//! Calibration of per-cell un(der)served location counts.
//!
//! The paper publishes the shape of Figure 1 through a handful of
//! statistics; this module encodes them as calibration targets and
//! produces an integer count vector that satisfies them:
//!
//! * a piecewise log-linear quantile curve anchored at the published
//!   percentiles (p90 = 552, p99 = 1437) and the Fig 2 corner
//!   (≈36 % of cells at or below ~61 locations),
//! * six **anchor cells** pinned to exact counts and locations: the
//!   five cells above the 20:1 servable threshold (Σ = 22,428
//!   locations, peak 5,998) and the largest servable cell (3,460),
//!   whose latitudes drive the two Table 2 scenarios (DESIGN.md §4),
//! * an exact total of ≈4.67 M locations.

use crate::stats::QuantileCurve;

/// An anchor cell: an exact count pinned at an exact location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorCell {
    /// Un(der)served locations in the cell.
    pub count: u64,
    /// Latitude of the cell's location, degrees.
    pub lat: f64,
    /// Longitude of the cell's location, degrees.
    pub lng: f64,
}

/// Calibration targets for the demand distribution.
#[derive(Debug, Clone)]
pub struct CountCalibration {
    /// Total un(der)served locations across the US (anchors included).
    pub total_locations: u64,
    /// Quantile curve for non-anchor cells.
    pub curve: QuantileCurve,
    /// Anchor cells (over-cap cells plus the capped-scenario peak).
    pub anchors: Vec<AnchorCell>,
}

impl CountCalibration {
    /// The paper's calibration.
    ///
    /// Anchor geography: the peak cell sits at 37.0° N — the latitude
    /// at which a 53°-inclined shell's density factor is ≈1.21, the
    /// value implied by reverse-engineering Table 2's full-service
    /// column. The largest *servable* cell (3,460 < the 3,465-location
    /// 20:1 limit) sits at 36.43° N, where the density factor is ≈1.6 %
    /// lower — reproducing the gap between Table 2's two columns. The
    /// remaining over-cap cells sum with the peak to 22,428 locations
    /// (0.48 % of the total, as published), with ≈5,103 locations of
    /// excess beyond the 20:1 limit.
    pub fn paper() -> Self {
        CountCalibration {
            total_locations: 4_670_000,
            curve: QuantileCurve::new(vec![
                (0.0, 1.0),
                (0.36, 61.0),
                (0.90, 552.0),
                (0.99, 1437.0),
                // The regular tail tops out below the 4-beam threshold
                // (2,599 locations at 20:1): in the paper's data the
                // only cells needing the full beam complement are the
                // six anchors — Fig 3's step structure implies exactly
                // this (the 4-beam class exhausts after a handful of
                // cells).
                (1.0, 2550.0),
            ]),
            anchors: vec![
                AnchorCell {
                    count: 5998,
                    lat: 37.00,
                    lng: -89.50,
                }, // peak (SE Missouri)
                AnchorCell {
                    count: 4450,
                    lat: 38.81,
                    lng: -83.30,
                },
                AnchorCell {
                    count: 4205,
                    lat: 40.23,
                    lng: -76.20,
                },
                AnchorCell {
                    count: 3950,
                    lat: 41.04,
                    lng: -93.50,
                },
                AnchorCell {
                    count: 3825,
                    lat: 39.35,
                    lng: -101.10,
                },
                AnchorCell {
                    count: 3460,
                    lat: 36.43,
                    lng: -85.00,
                }, // largest servable at 20:1
            ],
        }
    }

    /// A scaled-down calibration for tests: same shape, ~1 % of the
    /// volume, same anchors (so findings stay qualitatively identical).
    pub fn small() -> Self {
        let mut c = Self::paper();
        c.total_locations = 120_000;
        c
    }

    /// Sum of anchor-cell counts.
    pub fn anchor_total(&self) -> u64 {
        self.anchors.iter().map(|a| a.count).sum()
    }

    /// Number of non-anchor cells needed so the curve's mean fills the
    /// non-anchor share of the total.
    pub fn regular_cell_count(&self) -> usize {
        let regular_total = (self.total_locations - self.anchor_total()) as f64;
        (regular_total / self.curve.mean()).round() as usize
    }

    /// Generates the non-anchor per-cell counts: stratified inverse-CDF
    /// sampling through the quantile curve, then an exact-total
    /// adjustment of ±1 spread over the mid-range cells.
    ///
    /// Returns counts in ascending order; the spatial layer decides
    /// which cell gets which count.
    pub fn regular_counts(&self) -> Vec<u64> {
        let n = self.regular_cell_count();
        let target: u64 = self.total_locations - self.anchor_total();
        // Monotone sampling walks the curve's segments forward once
        // instead of searching per sample; the values are bit-identical
        // to evaluating `curve.value((i + 0.5) / n)` per cell.
        let mut counts: Vec<u64> = self
            .curve
            .stratified_values(n)
            .into_iter()
            .map(|v| v.round().max(1.0) as u64)
            .collect();
        // Exact-total adjustment: rounding drift is O(n⁰·⁵) at most a
        // few hundred here; nudge mid-distribution cells by ±1.
        let mut sum: u64 = counts.iter().sum();
        let mid = n / 2;
        let mut i = 0usize;
        while sum != target {
            // Walk outward from the middle: mid, mid+1, mid-1, mid+2, ...
            let step = i.div_ceil(2);
            let idx = if i.is_multiple_of(2) {
                mid + step
            } else {
                mid - step
            };
            let idx = idx.min(n - 1);
            if sum < target {
                counts[idx] += 1;
                sum += 1;
            } else if counts[idx] > 1 {
                counts[idx] -= 1;
                sum -= 1;
            }
            i += 1;
            if i > 4 * n {
                // Unreachable for sane calibrations; avoid an infinite
                // loop if a pathological config is supplied.
                break;
            }
        }
        counts.sort_unstable();
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{cdf_sorted, quantile_sorted};

    #[test]
    fn paper_anchor_statistics() {
        let c = CountCalibration::paper();
        // Five cells above the 3,465-location 20:1 limit.
        let over: Vec<_> = c.anchors.iter().filter(|a| a.count > 3465).collect();
        assert_eq!(over.len(), 5);
        let in_cells: u64 = over.iter().map(|a| a.count).sum();
        assert_eq!(in_cells, 22_428, "locations in over-cap cells");
        let excess: u64 = over.iter().map(|a| a.count - 3465).sum();
        assert_eq!(excess, 5_103, "excess beyond the 20:1 limit");
        // Peak cell.
        assert_eq!(over.iter().map(|a| a.count).max(), Some(5998));
    }

    #[test]
    fn regular_counts_hit_quantile_targets() {
        let c = CountCalibration::paper();
        let counts = c.regular_counts();
        let p90 = quantile_sorted(&counts, 0.90);
        let p99 = quantile_sorted(&counts, 0.99);
        assert!((p90 as i64 - 552).unsigned_abs() <= 6, "p90 {p90}");
        assert!((p99 as i64 - 1437).unsigned_abs() <= 15, "p99 {p99}");
        // Fig 2 bottom-left corner: ~36% of cells at or below 61.
        let f61 = cdf_sorted(&counts, 61);
        assert!((f61 - 0.36).abs() < 0.01, "F(61) {f61}");
        // No regular cell rivals the anchors or enters the 4-beam class.
        assert!(*counts.last().unwrap() <= 2550);
        assert!(*counts.first().unwrap() >= 1);
    }

    #[test]
    fn totals_are_exact() {
        for c in [CountCalibration::paper(), CountCalibration::small()] {
            let counts = c.regular_counts();
            let sum: u64 = counts.iter().sum::<u64>() + c.anchor_total();
            assert_eq!(sum, c.total_locations);
        }
    }

    #[test]
    fn paper_scale_matches_published_fractions() {
        let c = CountCalibration::paper();
        // 22,428 over-cap locations ≈ 0.48% of the total.
        let frac = 22_428.0 / c.total_locations as f64;
        assert!((frac - 0.0048).abs() < 0.0003, "over-cap fraction {frac}");
        // 5,103 unservable ≈ 0.11% ⇒ 99.89% servable at 20:1.
        let servable = 1.0 - 5_103.0 / c.total_locations as f64;
        assert!((servable - 0.9989).abs() < 0.0002, "servable {servable}");
    }

    #[test]
    fn cell_count_is_plausible() {
        let c = CountCalibration::paper();
        let n = c.regular_cell_count();
        // The published statistics imply ~20k demand cells.
        assert!((15_000..26_000).contains(&n), "n_cells {n}");
    }

    #[test]
    fn regular_cell_counts_are_pinned() {
        // T/mean is 20,343.80 at paper scale and 412.26 at small scale,
        // far from a rounding boundary: a mean that moves in its tenth
        // digit cannot move either count.
        assert_eq!(CountCalibration::paper().regular_cell_count(), 20_344);
        assert_eq!(CountCalibration::small().regular_cell_count(), 412);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CountCalibration::paper().regular_counts();
        let b = CountCalibration::paper().regular_counts();
        assert_eq!(a, b);
    }
}

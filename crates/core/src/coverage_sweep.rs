//! Figure 2: fraction of US demand cells served across the
//! (beamspread, oversubscription) plane.
//!
//! A cell is served at `(b, ρ)` iff its location count fits within the
//! spread cell capacity `17.325/b` Gbps at ratio `ρ` (DESIGN.md §4).
//! The fraction served is a pure function of the demand CDF, so the
//! sweep evaluates each grid point with one binary search over the
//! sorted counts.

use crate::PaperModel;
use leo_capacity::beamspread::{spread_cell_capacity_gbps, Beamspread};
use leo_capacity::oversub::{max_locations_servable, Oversubscription};
use leo_parallel::par_map;

/// The Fig 2 heatmap: `fraction[bi][ri]` is the fraction of demand
/// cells served at `beamspreads[bi]` and `oversubs[ri]`.
#[derive(Debug, Clone)]
pub struct CoverageSweep {
    /// Beamspread axis values.
    pub beamspreads: Vec<u32>,
    /// Oversubscription axis values.
    pub oversubs: Vec<u32>,
    /// Served fraction per (beamspread, oversub) grid point.
    pub fraction: Vec<Vec<f64>>,
}

/// Fraction of demand cells served at one `(spread, oversub)` point.
pub fn fraction_served(
    model: &PaperModel,
    sorted_counts: &[u64],
    oversub: Oversubscription,
    spread: Beamspread,
) -> f64 {
    if sorted_counts.is_empty() {
        return 1.0;
    }
    let cap = spread_cell_capacity_gbps(&model.capacity, spread);
    let limit = max_locations_servable(cap, oversub);
    let served = sorted_counts.partition_point(|&c| c <= limit);
    served as f64 / sorted_counts.len() as f64
}

/// Computes one beamspread row of served fractions in a single forward
/// scan, appending to `out`. `limits` holds the per-oversubscription
/// location limits for the row; because the limit is monotone
/// nondecreasing in ρ, the scan resumes from the previous limit's
/// index instead of binary-searching every grid point. Each appended
/// fraction is exactly `partition_point(|&c| c <= limit) / len` — the
/// same bits [`fraction_served`] produces — and a non-ascending limit
/// (never the case for a ρ axis, but the kernel stays total) falls
/// back to the binary search.
pub fn served_fractions_row(sorted_counts: &[u64], limits: &[u64], out: &mut Vec<f64>) {
    out.reserve(limits.len());
    if sorted_counts.is_empty() {
        out.extend(limits.iter().map(|_| 1.0));
        return;
    }
    let n = sorted_counts.len();
    let mut idx = 0usize;
    let mut prev = 0u64;
    for &limit in limits {
        if limit < prev {
            idx = sorted_counts.partition_point(|&c| c <= limit);
        } else {
            while idx < n && sorted_counts[idx] <= limit {
                idx += 1;
            }
        }
        prev = limit;
        out.push(idx as f64 / n as f64);
    }
}

/// The paper's Fig 2 axes: beamspread 1–15, oversubscription 1–30.
/// The single source of truth — [`sweep`] runs over exactly these, and
/// snapshot caches key on them so a change here invalidates cached
/// sweep rows.
pub fn default_axes() -> (Vec<u32>, Vec<u32>) {
    ((1..=15).collect(), (1..=30).collect())
}

/// Runs the Fig 2 sweep over the paper's axes ([`default_axes`]).
pub fn sweep(model: &PaperModel) -> CoverageSweep {
    let (beamspreads, oversubs) = default_axes();
    sweep_over(model, beamspreads, oversubs)
}

/// Runs the sweep over explicit axes. Rows (beamspreads) are evaluated
/// in parallel over the shared cached count view; each grid point is a
/// pure function of `(counts, b, ρ)`, so the result is identical at any
/// thread count.
pub fn sweep_over(model: &PaperModel, beamspreads: Vec<u32>, oversubs: Vec<u32>) -> CoverageSweep {
    let _span = leo_obs::span!("fig2.sweep");
    leo_obs::metrics::counter_add(
        "fig2.grid_points",
        (beamspreads.len() * oversubs.len()) as u64,
    );
    let counts = model.dataset.sorted_counts();
    // The ρ wrappers are shared by every row; each parallel row then
    // derives its ascending limit sequence into a scratch vector and
    // fills the row with one forward scan over the contiguous counts.
    let rhos: Vec<Oversubscription> = oversubs
        .iter()
        .map(|&r| {
            Oversubscription::new(r as f64).expect("oversubscription axis value must be >= 1")
        })
        .collect();
    let fraction = par_map(&beamspreads, |_, &b| {
        let spread = Beamspread::new(b).expect("beamspread axis value must be >= 1");
        let cap = spread_cell_capacity_gbps(&model.capacity, spread);
        let mut limits = Vec::with_capacity(rhos.len());
        limits.extend(rhos.iter().map(|&rho| max_locations_servable(cap, rho)));
        let mut row = Vec::with_capacity(limits.len());
        served_fractions_row(counts, &limits, &mut row);
        row
    });
    CoverageSweep {
        beamspreads,
        oversubs,
        fraction,
    }
}

impl CoverageSweep {
    /// Served fraction at given axis values, if present.
    pub fn at(&self, beamspread: u32, oversub: u32) -> Option<f64> {
        let bi = self.beamspreads.iter().position(|&b| b == beamspread)?;
        let ri = self.oversubs.iter().position(|&r| r == oversub)?;
        Some(self.fraction[bi][ri])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> &'static PaperModel {
        crate::testutil::model()
    }

    #[test]
    fn fig2_corners_match_paper_shape() {
        // Paper Fig 2 colorbar spans ~0.36 (bottom-left, high spread /
        // low oversub) to ~0.99 (top-right).
        let s = sweep(model());
        let bottom_left = s.at(14, 5).unwrap();
        assert!((bottom_left - 0.36).abs() < 0.05, "bl {bottom_left}");
        // At test scale the six anchors weigh ~1.5% of the ~400 demand
        // cells; at paper scale the corner reaches ≈0.999.
        let top_right = s.at(2, 30).unwrap();
        assert!(top_right > 0.97, "tr {top_right}");
    }

    #[test]
    fn fraction_is_monotone_in_both_axes() {
        let s = sweep(model());
        for bi in 0..s.beamspreads.len() {
            for ri in 1..s.oversubs.len() {
                assert!(s.fraction[bi][ri] >= s.fraction[bi][ri - 1]);
            }
        }
        for ri in 0..s.oversubs.len() {
            for bi in 1..s.beamspreads.len() {
                assert!(s.fraction[bi][ri] <= s.fraction[bi - 1][ri]);
            }
        }
    }

    #[test]
    fn unspread_at_cap_serves_all_but_over_cap_cells() {
        let m = model();
        let counts = m.dataset.sorted_counts();
        let f = fraction_served(m, counts, Oversubscription::FCC_CAP, Beamspread::ONE);
        // Exactly the 5 over-cap anchor cells are unserved.
        let expect = 1.0 - 5.0 / counts.len() as f64;
        assert!((f - expect).abs() < 1e-9, "f {f} expect {expect}");
    }

    #[test]
    fn row_scan_matches_per_point_binary_search_bit_for_bit() {
        let m = model();
        let counts = m.dataset.sorted_counts();
        let (beamspreads, oversubs) = default_axes();
        for &b in &beamspreads {
            let spread = Beamspread::new(b).unwrap();
            let cap = spread_cell_capacity_gbps(&m.capacity, spread);
            let limits: Vec<u64> = oversubs
                .iter()
                .map(|&r| max_locations_servable(cap, Oversubscription::new(r as f64).unwrap()))
                .collect();
            let mut row = Vec::new();
            served_fractions_row(counts, &limits, &mut row);
            for (ri, &r) in oversubs.iter().enumerate() {
                let point =
                    fraction_served(m, counts, Oversubscription::new(r as f64).unwrap(), spread);
                assert_eq!(row[ri].to_bits(), point.to_bits(), "b {b} rho {r}");
            }
        }
    }

    #[test]
    fn row_scan_survives_non_ascending_limits() {
        let counts = [1u64, 3, 3, 7, 10, 10, 12];
        let limits = [10u64, 2, 12, 0, 3];
        let mut row = Vec::new();
        served_fractions_row(&counts, &limits, &mut row);
        let expect: Vec<f64> = limits
            .iter()
            .map(|&l| counts.partition_point(|&c| c <= l) as f64 / counts.len() as f64)
            .collect();
        assert_eq!(row, expect);
        // Empty counts: everything trivially served.
        let mut empty = Vec::new();
        served_fractions_row(&[], &limits, &mut empty);
        assert!(empty.iter().all(|&f| f == 1.0));
    }

    #[test]
    fn at_handles_missing_axis_values() {
        let s = sweep(model());
        assert!(s.at(99, 5).is_none());
        assert!(s.at(5, 99).is_none());
        assert!(s.at(5, 20).is_some());
    }

    #[test]
    fn full_capacity_no_oversub_serves_small_cells_only() {
        let m = model();
        let counts = m.dataset.sorted_counts();
        let f = fraction_served(m, counts, Oversubscription::ONE, Beamspread::ONE);
        // 17.325 Gbps at 1:1 = 173 locations; from the calibrated curve
        // F(173) ≈ 0.36 + (log(173/61)/log(552/61))·0.54 ≈ 0.61.
        assert!((0.45..0.75).contains(&f), "f {f}");
    }
}

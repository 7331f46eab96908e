//! Figure 1: the distribution of un(der)served locations per service
//! cell.
//!
//! The paper presents this as a national map plus a CDF annotated with
//! the 90th percentile (552 locations/cell), the 99th percentile
//! (1,437), and the maximum (5,998). [`DemandStats`] computes the
//! summary statistics; [`cdf_series`] produces the plottable curve.

use crate::PaperModel;
use leo_demand::stats::quantile_sorted;

/// Summary statistics of the per-cell demand distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandStats {
    /// Number of cells with at least one un(der)served location.
    pub demand_cells: usize,
    /// Total US service cells (incl. zero-demand cells needing
    /// coverage).
    pub us_cells: usize,
    /// Total un(der)served locations.
    pub total_locations: u64,
    /// Median locations per demand cell.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum (the peak cell).
    pub max: u64,
    /// Mean locations per demand cell.
    pub mean: f64,
}

/// Computes Fig 1's summary statistics.
pub fn demand_stats(model: &PaperModel) -> DemandStats {
    let counts = model.dataset.sorted_counts();
    let total = model.dataset.total_locations;
    DemandStats {
        demand_cells: counts.len(),
        us_cells: model.dataset.us_cell_count,
        total_locations: total,
        p50: quantile_sorted(counts, 0.50),
        p90: quantile_sorted(counts, 0.90),
        p99: quantile_sorted(counts, 0.99),
        max: *counts.last().unwrap_or(&0),
        mean: if counts.is_empty() {
            0.0
        } else {
            total as f64 / counts.len() as f64
        },
    }
}

/// The CDF of locations-per-cell as `(locations, cumulative
/// probability)` points, downsampled to at most `max_points` for
/// plotting.
pub fn cdf_series(model: &PaperModel, max_points: usize) -> Vec<(u64, f64)> {
    let counts = model.dataset.sorted_counts();
    if counts.is_empty() {
        return Vec::new();
    }
    let n = counts.len();
    let step = (n / max_points.max(1)).max(1);
    let mut out = Vec::with_capacity(n / step + 2);
    for i in (0..n).step_by(step) {
        out.push((counts[i], (i + 1) as f64 / n as f64));
    }
    // Always include the exact tail.
    if out.last().map(|&(v, _)| v) != Some(counts[n - 1]) {
        out.push((counts[n - 1], 1.0));
    }
    out
}

/// Map data for the Fig 1 choropleth: `(lat, lng, locations)` per
/// demand cell, zipped straight out of the columnar layout.
pub fn map_series(model: &PaperModel) -> Vec<(f64, f64, u64)> {
    let cols = &model.dataset.cols;
    cols.lat_deg
        .iter()
        .zip(cols.lng_deg.iter())
        .zip(cols.locations.iter())
        .map(|((&lat, &lng), &n)| (lat, lng, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> &'static PaperModel {
        crate::testutil::model()
    }

    #[test]
    fn stats_are_internally_consistent() {
        let m = model();
        let s = demand_stats(m);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.max, 5998);
        assert_eq!(s.total_locations, 120_000);
        assert!(s.us_cells >= s.demand_cells);
        assert!((s.mean - s.total_locations as f64 / s.demand_cells as f64).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let m = model();
        let cdf = cdf_series(m, 200);
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf.last().unwrap().0, 5998);
    }

    #[test]
    fn map_series_covers_all_demand_cells() {
        let m = model();
        let map = map_series(m);
        assert_eq!(map.len(), m.dataset.cells.len());
        // All within the CONUS bounding box.
        for &(lat, lng, _) in &map {
            assert!((24.0..50.0).contains(&lat), "{lat}");
            assert!((-125.0..-66.0).contains(&lng), "{lng}");
        }
    }
}

//! Dataset serialization: CSV export.
//!
//! Downstream analyses and non-Rust tooling want the generated dataset
//! as plain tables. Two files capture it:
//!
//! * `cells.csv` — `cell_id,lat,lng,locations,county`, one row per
//!   demand cell in ascending id order, written straight from the
//!   dataset's columns;
//! * `counties.csv` — `county_id,lat,lng,median_income,locations,remoteness_km`.

use crate::dataset::BroadbandDataset;
use std::fmt::Write as _;

/// Serializes the per-cell table.
pub fn cells_to_csv(ds: &BroadbandDataset) -> String {
    let mut out = String::from("cell_id,lat,lng,locations,county\n");
    // ~56 bytes/row at paper scale (a res-5 cell id alone is 19
    // digits); reserving once skips the doubling reallocations of a
    // megabyte-sized string.
    out.reserve(ds.cells.len() * 56);
    let cols = &ds.cols;
    for (i, cell) in ds.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{:.7},{:.7},{},{}",
            cell.as_u64(),
            cols.lat_deg[i],
            cols.lng_deg[i],
            cols.locations[i],
            cols.county[i]
        );
    }
    out
}

/// Serializes the county table.
pub fn counties_to_csv(ds: &BroadbandDataset) -> String {
    let mut out = String::from("county_id,lat,lng,median_income,locations,remoteness_km\n");
    for c in &ds.counties {
        let _ = writeln!(
            out,
            "{},{:.7},{:.7},{:.2},{},{:.3}",
            c.id,
            c.seat.lat_deg(),
            c.seat.lng_deg(),
            c.median_income_usd,
            c.locations,
            c.remoteness_km
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthConfig;

    #[test]
    fn csv_has_expected_shape() {
        let ds = BroadbandDataset::generate(&SynthConfig::small());
        let csv = cells_to_csv(&ds);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), ds.cells.len() + 1);
        assert_eq!(lines[0], "cell_id,lat,lng,locations,county");
        assert_eq!(lines[1].split(',').count(), 5);
    }
}

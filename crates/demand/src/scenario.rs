//! What-if transformation over a generated dataset.
//!
//! The paper analyzes a snapshot; policy questions are about change:
//! what if the BEAD buildout serves part of the backlog?
//! [`terrestrial_buildout`] produces a modified dataset that flows
//! through the *same* model pipeline, so every figure can be
//! regenerated under that scenario. (It operates on the aggregate
//! tables; the grid and county geometry are shared unchanged.)

use crate::dataset::{BroadbandDataset, DatasetColumns};

/// A fiber/fixed-wireless buildout that serves up to `per_cell`
/// locations in every cell — the "easy" locations first, mirroring how
/// subsidized builds target clustered addresses. Dense cells shrink
/// the most in absolute terms; the long tail survives, which is
/// exactly the paper's diminishing-returns story from the terrestrial
/// side.
pub fn terrestrial_buildout(base: &BroadbandDataset, per_cell: u64) -> BroadbandDataset {
    let mut cells = Vec::new();
    let mut cols = DatasetColumns::default();
    let mut counties = base.counties.clone();
    for c in &mut counties {
        c.locations = 0;
    }
    for c in base.rows() {
        let left = c.locations.saturating_sub(per_cell);
        if left == 0 {
            continue;
        }
        cells.push(c.cell);
        cols.lat_deg.push(c.center.lat_deg());
        cols.lng_deg.push(c.center.lng_deg());
        cols.locations.push(left);
        cols.county.push(c.county);
        counties[c.county as usize].locations += left;
    }
    BroadbandDataset::from_columns(base.grid.clone(), cells, cols, base.us_cell_count, counties)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthConfig;

    fn base() -> BroadbandDataset {
        BroadbandDataset::generate(&SynthConfig::small())
    }

    #[test]
    fn buildout_flattens_the_head_not_the_tail() {
        let ds = base();
        let built = terrestrial_buildout(&ds, 500);
        // The peak cell lost exactly 500; 1-location cells vanished.
        assert_eq!(built.peak_cell().locations, 5998 - 500);
        assert!(built.cells.len() < ds.cells.len());
        // County totals are recounted from the surviving cells.
        assert_eq!(
            built.counties.iter().map(|c| c.locations).sum::<u64>(),
            built.total_locations
        );
        // The surviving backlog concentrates in the head: the peak
        // cell's share of remaining demand grows.
        let before = ds.peak_cell().locations as f64 / ds.total_locations as f64;
        let after = built.peak_cell().locations as f64 / built.total_locations as f64;
        assert!(after > before, "before {before} after {after}");
    }
}

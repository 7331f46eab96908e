//! Reference twin of [`strict::strict_table`]: the per-spread loop it
//! ran before the one-pass rewrite, which re-evaluates every cell's beam
//! count and density factor once per beamspread. The one-pass table must
//! match it field for field.
//!
//! Shared by `tests/strict.rs` and, through `#[path]`, by the
//! `bench_kernels` benchmark of `leo-bench`.
//!
//! [`strict::strict_table`]: starlink_divide::strict::strict_table

use leo_capacity::beamspread::{beams_required, Beamspread};
use leo_capacity::oversub::{max_locations_servable, Oversubscription};
use leo_capacity::DeploymentPolicy;
use starlink_divide::strict::StrictBound;
use starlink_divide::{sizing, PaperModel};

/// Reference strict bound for one beamspread.
pub fn naive_strict_bound(model: &PaperModel, spread: Beamspread) -> StrictBound {
    let oversub = Oversubscription::FCC_CAP;
    let limit = max_locations_servable(model.capacity.max_cell_capacity_gbps(), oversub);
    let paper = sizing::constellation_size(model, DeploymentPolicy::fcc_capped(), spread);
    let mut best = (0u64, 0.0f64, 0u32, 0u64);
    for c in model.dataset.rows() {
        let served = c.locations.min(limit);
        let beams = beams_required(&model.capacity, served, oversub)
            .expect("served fits by construction")
            .max(1);
        if let Some(n) = sizing::constellation_size_at(model, c.center.lat_deg(), beams, spread) {
            if n > best.0 {
                best = (n, c.center.lat_deg(), beams, c.locations);
            }
        }
    }
    StrictBound {
        beamspread: spread.factor(),
        paper_bound: paper,
        strict_bound: best.0.max(paper),
        binding_lat_deg: best.1,
        binding_beams: best.2,
        binding_locations: best.3,
    }
}

/// Reference `strict_table`: one full pass over the cells per spread.
pub fn naive_strict_table(model: &PaperModel) -> Vec<StrictBound> {
    [1u32, 2, 5, 10, 15]
        .iter()
        .map(|&b| naive_strict_bound(model, Beamspread::new(b).expect("nonzero")))
        .collect()
}

/// Whether two tables agree in every field, latitudes by their bits.
pub fn same_table(a: &[StrictBound], b: &[StrictBound]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.beamspread == y.beamspread
                && x.paper_bound == y.paper_bound
                && x.strict_bound == y.strict_bound
                && x.binding_lat_deg.to_bits() == y.binding_lat_deg.to_bits()
                && x.binding_beams == y.binding_beams
                && x.binding_locations == y.binding_locations
        })
}

//! Reference twin of the demand-cell ranking: the loop
//! `BroadbandDataset::generate` ran before certified approximate
//! ordering (DESIGN.md §18). Every candidate takes the exact field
//! ([`SmoothField::value`]) and one sort orders them, so this is the
//! oracle [`leo_demand::dataset::rank_candidates`] must match exactly.
//! Serial, and free of observability calls.
//!
//! Shared by `tests/score_order.rs` and, through `#[path]`, by the
//! `bench_kernels` benchmark of `leo-bench`.

use leo_demand::counts::CountCalibration;
use leo_demand::field::SmoothField;
use leo_demand::geography;
use leo_geomath::{GeoBBox, LatLng};
use leo_hexgrid::{CellId, GeoHexGrid, STARLINK_RESOLUTION};
use leo_parallel::mix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The grid, the CONUS bounding box, every CONUS cell with the center
/// `polyfill` carries for it, and the positions of the cells
/// `generate` ranks at paper scale: every cell except the six anchors.
pub fn paper_candidates() -> (GeoHexGrid, GeoBBox, Vec<(CellId, LatLng)>, Vec<u32>) {
    let grid = GeoHexGrid::starlink();
    let poly = geography::conus_polygon();
    let anchors: Vec<CellId> = CountCalibration::paper()
        .anchors
        .iter()
        .map(|a| grid.cell_for(&LatLng::new(a.lat, a.lng), STARLINK_RESOLUTION))
        .collect();
    let cells = grid.polyfill(&poly, STARLINK_RESOLUTION);
    let candidates = (0..cells.len() as u32)
        .filter(|&pos| !anchors.contains(&cells[pos as usize].0))
        .collect();
    (grid, *poly.bbox(), cells, candidates)
}

/// The demand field `generate` scores cells with.
pub fn field(seed: u64, bbox: &GeoBBox) -> SmoothField {
    SmoothField::new(seed, bbox, 80, (80.0, 450.0))
}

/// The score of cell `id` centred at `c` whose field value is
/// `field_value`: the remoteness ramp and the seeded jitter added as
/// `(field + ramp) + jitter`.
pub fn score(seed: u64, id: CellId, c: &LatLng, field_value: f64) -> f64 {
    let remote = geography::distance_to_nearest_metro_km(c);
    let mut rng = StdRng::seed_from_u64(mix64(seed.wrapping_mul(0x9E37_79B9), id.as_u64()));
    field_value + 0.6 * (remote / 400.0).min(2.0) + rng.gen_range(0.0..0.35)
}

/// Reference `rank_candidates`: the exact score of every candidate,
/// highest first, ties broken by cell id. Only the ids of `cells` are
/// read; each center is computed afresh with `cell_center`, so a
/// comparison also checks the centers `polyfill` carries.
pub fn naive_rank(
    seed: u64,
    bbox: &GeoBBox,
    grid: &GeoHexGrid,
    cells: &[(CellId, LatLng)],
    candidates: &[u32],
) -> Vec<(CellId, LatLng)> {
    let field = field(seed, bbox);
    let mut scored: Vec<(f64, CellId, LatLng)> = candidates
        .iter()
        .map(|&pos| {
            let id = cells[pos as usize].0;
            let c = grid.cell_center(id);
            (score(seed, id, &c, field.value(&c)), id, c)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    scored.into_iter().map(|(_, id, c)| (id, c)).collect()
}

/// True when the positions `ranked` into `cells` name the cells of
/// `reference` in the same order, with bit-identical centers.
pub fn same_ranking(
    cells: &[(CellId, LatLng)],
    ranked: &[u32],
    reference: &[(CellId, LatLng)],
) -> bool {
    ranked.len() == reference.len()
        && ranked.iter().zip(reference).all(|(&pos, (ib, cb))| {
            let (ia, ca) = &cells[pos as usize];
            ia == ib
                && ca.lat_deg().to_bits() == cb.lat_deg().to_bits()
                && ca.lng_deg().to_bits() == cb.lng_deg().to_bits()
        })
}

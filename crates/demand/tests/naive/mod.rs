//! Reference twin of the demand-cell ranking: the loop
//! `BroadbandDataset::generate` ran before certified approximate
//! ordering (DESIGN.md §18). Every candidate takes the exact field
//! ([`SmoothField::value`]) and one sort orders them, so this is the
//! oracle [`leo_demand::dataset::rank_candidates`] must match exactly.
//! The US cells come from [`polyfill`], the single-loop lattice scan
//! `GeoHexGrid::polyfill` ran before it was split into rows, rebuilt
//! here from public parts. Serial, and free of observability calls.
//!
//! Shared by `tests/score_order.rs` and, through `#[path]`, by the
//! `bench_kernels` benchmark of `leo-bench`.

use leo_demand::counts::CountCalibration;
use leo_demand::field::SmoothField;
use leo_demand::geography;
use leo_geomath::{AzimuthalEqualArea, GeoBBox, GeoPolygon, LatLng, PlanePoint};
use leo_hexgrid::coord::Axial;
use leo_hexgrid::layout::Layout;
use leo_hexgrid::{CellId, GeoHexGrid, STARLINK_CELL_AREA_KM2, STARLINK_RESOLUTION};
use leo_parallel::mix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The grid, the CONUS bounding box, every CONUS cell with its center
/// (from this twin's [`polyfill`]), and the positions of the cells
/// `generate` ranks at paper scale: every cell except the six anchors.
pub fn paper_candidates() -> (GeoHexGrid, GeoBBox, Vec<(CellId, LatLng)>, Vec<u32>) {
    let grid = GeoHexGrid::starlink();
    let poly = geography::conus_polygon();
    let anchors: Vec<CellId> = CountCalibration::paper()
        .anchors
        .iter()
        .map(|a| grid.cell_for(&LatLng::new(a.lat, a.lng), STARLINK_RESOLUTION))
        .collect();
    let cells = polyfill(&poly);
    let candidates = (0..cells.len() as u32)
        .filter(|&pos| !anchors.contains(&cells[pos as usize].0))
        .collect();
    (grid, *poly.bbox(), cells, candidates)
}

/// Every cell of `GeoHexGrid::starlink()` at the Starlink resolution
/// whose center falls inside `poly`, with that center, sorted by id:
/// one loop over the lattice's `q` and `r` inside the padded plane
/// bbox, then one sort. The grid's projection and resolution transform
/// are rebuilt from the constants and expressions of
/// `GeoHexGrid::with_cell_area`.
pub fn polyfill(poly: &GeoPolygon) -> Vec<(CellId, LatLng)> {
    let res = STARLINK_RESOLUTION;
    let k = res as i32;
    let proj = AzimuthalEqualArea::new(LatLng::new(39.5, -98.35));
    let layout = Layout::from_cell_area(STARLINK_CELL_AREA_KM2 * 7f64.powi(k) / 7f64.powi(k));
    // −k · arg(2 + ω), the aperture-7 rotation at resolution k.
    let theta = -(k as f64) * 0.333_473_172_251_832_1;
    let (cos_t, sin_t) = (theta.cos(), theta.sin());
    let project = |a: &Axial| {
        let p = layout.center(a);
        PlanePoint::new(p.x * cos_t - p.y * sin_t, p.x * sin_t + p.y * cos_t)
    };
    let unproject = |p: &PlanePoint| {
        layout.cell_at(&PlanePoint::new(
            p.x * cos_t + p.y * sin_t,
            -p.x * sin_t + p.y * cos_t,
        ))
    };
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in poly.ring() {
        let p = proj.forward(v);
        xmin = xmin.min(p.x);
        xmax = xmax.max(p.x);
        ymin = ymin.min(p.y);
        ymax = ymax.max(p.y);
    }
    let pad = layout.center_spacing_km();
    (xmin, xmax, ymin, ymax) = (xmin - pad, xmax + pad, ymin - pad, ymax + pad);
    let (mut qmin, mut qmax) = (i32::MAX, i32::MIN);
    let (mut rmin, mut rmax) = (i32::MAX, i32::MIN);
    for (x, y) in [(xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax)] {
        let a = unproject(&PlanePoint::new(x, y));
        qmin = qmin.min(a.q);
        qmax = qmax.max(a.q);
        rmin = rmin.min(a.r);
        rmax = rmax.max(a.r);
    }
    let mut out = Vec::new();
    for q in qmin - 1..=qmax + 1 {
        for r in rmin - 1..=rmax + 1 {
            let coord = Axial::new(q, r);
            let plane = project(&coord);
            if plane.x < xmin || plane.x > xmax || plane.y < ymin || plane.y > ymax {
                continue;
            }
            let center = proj.inverse(&plane);
            if poly.contains(&center) {
                out.push((CellId::pack(res, coord), center));
            }
        }
    }
    out.sort_unstable_by_key(|&(id, _)| id);
    out
}

/// True when `a` and `b` hold the same cells in the same order, with
/// bit-identical centers.
pub fn same_cells(a: &[(CellId, LatLng)], b: &[(CellId, LatLng)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ia, ca), (ib, cb))| {
            ia == ib
                && ca.lat_deg().to_bits() == cb.lat_deg().to_bits()
                && ca.lng_deg().to_bits() == cb.lng_deg().to_bits()
        })
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
    let named: Vec<(CellId, LatLng)> = ranked.iter().map(|&pos| cells[pos as usize]).collect();
    same_cells(&named, reference)
}

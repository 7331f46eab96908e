//! Geographic binding of the hex grid.
//!
//! [`GeoHexGrid`] ties the abstract hex lattice to the Earth's surface
//! through a Lambert azimuthal equal-area projection tangent at a
//! configurable center (the CONUS centroid for the Starlink analysis).
//! Because the projection preserves area exactly, every cell of a given
//! resolution covers the same ground area — resolution 5 is pinned to
//! the H3 resolution-5 average of 252.903 km², the Starlink service
//! cell size.
//!
//! Consecutive resolutions are geometrically nested: the resolution
//! `k+1` lattice is the resolution-`k` lattice scaled by `1/√7` and
//! rotated by `−arg(2+ω) ≈ −19.107°`, as in H3's aperture-7 hierarchy.

use crate::cell::CellId;
use crate::coord::Axial;

use crate::layout::Layout;
use crate::{STARLINK_CELL_AREA_KM2, STARLINK_RESOLUTION};
use leo_geomath::{AzimuthalEqualArea, GeoPolygon, LatLng, PlanePoint};

/// Rotation between consecutive resolutions: `arg(2 + ω)` with
/// `ω = e^{iπ/3}`, i.e. `atan2(√3/2, 5/2)` radians (≈ 19.1066°).
const APERTURE7_ROTATION_RAD: f64 = 0.333_473_172_251_832_1;

const MAX_RES: u8 = 15;

#[derive(Debug, Clone, Copy)]
struct ResTransform {
    layout: Layout,
    cos_t: f64,
    sin_t: f64,
}

impl ResTransform {
    fn project(&self, coord: &Axial) -> PlanePoint {
        let p = self.layout.center(coord);
        PlanePoint::new(
            p.x * self.cos_t - p.y * self.sin_t,
            p.x * self.sin_t + p.y * self.cos_t,
        )
    }

    fn unproject(&self, p: &PlanePoint) -> Axial {
        // Inverse rotation, then fractional hex rounding.
        let q = PlanePoint::new(
            p.x * self.cos_t + p.y * self.sin_t,
            -p.x * self.sin_t + p.y * self.cos_t,
        );
        self.layout.cell_at(&q)
    }

    fn corner(&self, coord: &Axial, i: usize) -> PlanePoint {
        let c = self.layout.corners(coord)[i];
        PlanePoint::new(
            c.x * self.cos_t - c.y * self.sin_t,
            c.x * self.sin_t + c.y * self.cos_t,
        )
    }
}

/// A multi-resolution hex grid bound to the Earth's surface.
#[derive(Debug, Clone)]
pub struct GeoHexGrid {
    proj: AzimuthalEqualArea,
    res: Vec<ResTransform>,
}

impl GeoHexGrid {
    /// Creates a grid with its projection tangent at `center` and the
    /// given cell area (km²) at `anchor_res`. Areas at other resolutions
    /// follow the aperture-7 ladder (`×7` per coarser level).
    pub fn with_cell_area(center: LatLng, anchor_res: u8, area_km2: f64) -> Self {
        assert!(anchor_res <= MAX_RES, "resolution out of range");
        assert!(area_km2 > 0.0, "cell area must be positive");
        let base_area = area_km2 * 7f64.powi(anchor_res as i32);
        let mut res = Vec::with_capacity(MAX_RES as usize + 1);
        for k in 0..=MAX_RES {
            let layout = Layout::from_cell_area(base_area / 7f64.powi(k as i32));
            let theta = -(k as f64) * APERTURE7_ROTATION_RAD;
            res.push(ResTransform {
                layout,
                cos_t: theta.cos(),
                sin_t: theta.sin(),
            });
        }
        GeoHexGrid {
            proj: AzimuthalEqualArea::new(center),
            res,
        }
    }

    /// The grid used throughout the reproduction: tangent at the
    /// geographic center of the contiguous US, resolution 5 pinned to
    /// the Starlink service-cell area.
    pub fn starlink() -> Self {
        GeoHexGrid::with_cell_area(
            LatLng::new(39.5, -98.35),
            STARLINK_RESOLUTION,
            STARLINK_CELL_AREA_KM2,
        )
    }

    /// Ground area of one cell at `res`, km².
    pub fn cell_area_km2(&self, res: u8) -> f64 {
        self.res[res as usize].layout.cell_area_km2()
    }

    /// Distance between adjacent cell centers at `res`, km.
    pub fn center_spacing_km(&self, res: u8) -> f64 {
        self.res[res as usize].layout.center_spacing_km()
    }

    /// The cell containing a point at resolution `res`.
    pub fn cell_for(&self, p: &LatLng, res: u8) -> CellId {
        let plane = self.proj.forward(p);
        CellId::pack(res, self.res[res as usize].unproject(&plane))
    }

    /// The center point of a cell.
    pub fn cell_center(&self, id: CellId) -> LatLng {
        let t = &self.res[id.resolution() as usize];
        self.proj.inverse(&t.project(&id.coord()))
    }

    /// The six boundary vertices of a cell, counterclockwise.
    pub fn cell_boundary(&self, id: CellId) -> [LatLng; 6] {
        let t = &self.res[id.resolution() as usize];
        let coord = id.coord();
        let mut out = [LatLng::new(0.0, 0.0); 6];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.proj.inverse(&t.corner(&coord, i));
        }
        out
    }

    /// All cells at resolution `res` whose centers fall inside `poly`,
    /// each with its center.
    ///
    /// Returned sorted by identifier for determinism. Each center is
    /// the point the containment test was made at, the same expression
    /// [`GeoHexGrid::cell_center`] evaluates, so it equals
    /// `cell_center(id)` bit for bit. This is the serial composition of
    /// [`GeoHexGrid::polyfill_rows`]: every row scanned in order, then
    /// one sort by id.
    pub fn polyfill(&self, poly: &GeoPolygon, res: u8) -> Vec<(CellId, LatLng)> {
        let rows = self.polyfill_rows(poly, res);
        let mut out = Vec::new();
        for row in 0..rows.count() {
            rows.scan(row, &mut out);
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// The lattice scan behind [`GeoHexGrid::polyfill`], split into
    /// rows of constant `q` that can be scanned independently (and
    /// concurrently). The projected bbox and the `r`-range are computed
    /// here, once.
    pub fn polyfill_rows<'a>(&'a self, poly: &'a GeoPolygon, res: u8) -> PolyfillRows<'a> {
        let t = &self.res[res as usize];
        // Project the polygon ring to this grid's plane and take its
        // bbox, padded by one cell spacing.
        let mut xmin = f64::INFINITY;
        let mut xmax = f64::NEG_INFINITY;
        let mut ymin = f64::INFINITY;
        let mut ymax = f64::NEG_INFINITY;
        for v in poly.ring() {
            let p = self.proj.forward(v);
            xmin = xmin.min(p.x);
            xmax = xmax.max(p.x);
            ymin = ymin.min(p.y);
            ymax = ymax.max(p.y);
        }
        let pad = t.layout.center_spacing_km();
        xmin -= pad;
        xmax += pad;
        ymin -= pad;
        ymax += pad;
        // Axial ranges from the four plane corners (the rotation makes
        // the axial bbox non-axis-aligned, so scan all corners).
        let corners = [
            PlanePoint::new(xmin, ymin),
            PlanePoint::new(xmin, ymax),
            PlanePoint::new(xmax, ymin),
            PlanePoint::new(xmax, ymax),
        ];
        let (mut qmin, mut qmax) = (i32::MAX, i32::MIN);
        let (mut rmin, mut rmax) = (i32::MAX, i32::MIN);
        for c in &corners {
            let a = t.unproject(c);
            qmin = qmin.min(a.q);
            qmax = qmax.max(a.q);
            rmin = rmin.min(a.r);
            rmax = rmax.max(a.r);
        }
        // Conservative slack: the corner scan bounds q and r on the
        // rotated lattice only approximately near edges.
        PolyfillRows {
            grid: self,
            poly,
            res,
            bbox: [xmin, xmax, ymin, ymax],
            q_lo: qmin - 1,
            q_hi: qmax + 1,
            r_lo: rmin - 1,
            r_hi: rmax + 1,
        }
    }
}

/// The rows of one polyfill scan ([`GeoHexGrid::polyfill_rows`]). Row
/// `k` is the lattice line `q = q_lo + k` over the scan's `r`-range.
/// Scanning every row in order and sorting the cells by id gives
/// [`GeoHexGrid::polyfill`]'s output; rows share no state, so they may
/// be scanned on any thread in any order.
#[derive(Debug, Clone, Copy)]
pub struct PolyfillRows<'a> {
    grid: &'a GeoHexGrid,
    poly: &'a GeoPolygon,
    res: u8,
    /// The padded plane bbox: `[xmin, xmax, ymin, ymax]`.
    bbox: [f64; 4],
    q_lo: i32,
    q_hi: i32,
    r_lo: i32,
    r_hi: i32,
}

impl PolyfillRows<'_> {
    /// Number of rows.
    pub fn count(&self) -> usize {
        (self.q_hi - self.q_lo + 1) as usize
    }

    /// Appends the cells of row `row` whose centers fall inside the
    /// polygon, each with its center, in ascending `r`.
    pub fn scan(&self, row: usize, out: &mut Vec<(CellId, LatLng)>) {
        debug_assert!(row < self.count(), "row {row} of {}", self.count());
        let t = &self.grid.res[self.res as usize];
        let [xmin, xmax, ymin, ymax] = self.bbox;
        let q = self.q_lo + row as i32;
        for r in self.r_lo..=self.r_hi {
            let coord = Axial::new(q, r);
            let plane = t.project(&coord);
            if plane.x < xmin || plane.x > xmax || plane.y < ymin || plane.y > ymax {
                continue;
            }
            let center = self.grid.proj.inverse(&plane);
            if self.poly.contains(&center) {
                out.push((CellId::pack(self.res, coord), center));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GeoHexGrid {
        GeoHexGrid::starlink()
    }

    #[test]
    fn starlink_res5_area_is_pinned() {
        let g = grid();
        assert!((g.cell_area_km2(5) - STARLINK_CELL_AREA_KM2).abs() < 1e-9);
        assert!((g.cell_area_km2(4) - 7.0 * STARLINK_CELL_AREA_KM2).abs() < 1e-6);
        assert!((g.cell_area_km2(6) - STARLINK_CELL_AREA_KM2 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn cell_for_inverts_cell_center() {
        let g = grid();
        for &(lat, lng) in &[
            (39.5, -98.35),
            (47.6, -122.33),
            (25.77, -80.19),
            (44.9, -68.7),
            (34.0, -118.2),
        ] {
            for res in [3u8, 5, 7] {
                let id = g.cell_for(&LatLng::new(lat, lng), res);
                let back = g.cell_for(&g.cell_center(id), res);
                assert_eq!(id, back, "({lat},{lng}) res {res}");
            }
        }
    }

    #[test]
    fn nearby_points_share_a_cell_far_points_do_not() {
        let g = grid();
        let a = LatLng::new(40.0, -100.0);
        // Center spacing at res 5 is ~17 km; a 100 m offset stays in the
        // same cell almost surely from a cell center.
        let id = g.cell_for(&a, 5);
        let center = g.cell_center(id);
        let near = leo_geomath::destination(&center, 45.0, 0.1);
        assert_eq!(g.cell_for(&near, 5), id);
        let far = leo_geomath::destination(&center, 45.0, 100.0);
        assert_ne!(g.cell_for(&far, 5), id);
    }

    #[test]
    fn boundary_vertices_enclose_center() {
        let g = grid();
        let id = g.cell_for(&LatLng::new(38.0, -104.0), 5);
        let boundary = g.cell_boundary(id);
        let poly = GeoPolygon::new(boundary.to_vec()).unwrap();
        assert!(poly.contains(&g.cell_center(id)));
        // The boundary polygon's area must match the pinned cell area.
        let rel = (poly.area_km2() - STARLINK_CELL_AREA_KM2).abs() / STARLINK_CELL_AREA_KM2;
        assert!(rel < 1e-3, "area {} (rel err {rel})", poly.area_km2());
    }

    #[test]
    fn adjacent_cell_centers_spacing() {
        let g = grid();
        let id = g.cell_for(&LatLng::new(39.5, -98.35), 5);
        let expected = g.center_spacing_km(5);
        let c = id.coord();
        for (dq, dr) in [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)] {
            let n = CellId::pack(5, Axial::new(c.q + dq, c.r + dr));
            let d = leo_geomath::great_circle_distance_km(&g.cell_center(id), &g.cell_center(n));
            let rel = (d - expected).abs() / expected;
            assert!(rel < 1e-3, "spacing {d} vs {expected}");
        }
    }

    #[test]
    fn polyfill_covers_a_square_region() {
        let g = grid();
        // A ~2°x2° box in Kansas: area ≈ 111.2² * 2 * 2 * cos(39°) km².
        let poly = GeoPolygon::from_degrees(&[
            (38.0, -100.0),
            (38.0, -98.0),
            (40.0, -98.0),
            (40.0, -100.0),
        ])
        .unwrap();
        let cells: Vec<CellId> = g.polyfill(&poly, 5).into_iter().map(|(id, _)| id).collect();
        let expect = poly.area_km2() / g.cell_area_km2(5);
        let got = cells.len() as f64;
        let rel = (got - expect).abs() / expect;
        assert!(rel < 0.02, "cells {got} vs expected {expect:.1}");
        // All returned cell centers are inside.
        for id in &cells {
            assert!(poly.contains(&g.cell_center(*id)));
        }
        // Deterministic and duplicate-free.
        let mut sorted = cells.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, cells);
    }

    /// Asserts that every center `polyfill` returns equals
    /// `cell_center` of its id bit for bit, and returns the cell count.
    fn assert_polyfill_centers_exact(g: &GeoHexGrid, poly: &GeoPolygon, res: u8) -> usize {
        let cells = g.polyfill(poly, res);
        for &(id, center) in &cells {
            assert_eq!(id.resolution(), res);
            let c = g.cell_center(id);
            assert_eq!(center.lat_deg().to_bits(), c.lat_deg().to_bits(), "{id}");
            assert_eq!(center.lng_deg().to_bits(), c.lng_deg().to_bits(), "{id}");
        }
        cells.len()
    }

    #[test]
    fn polyfill_centers_match_cell_center_bit_for_bit() {
        let g = grid();
        // The CONUS bounding box: every CONUS cell at the Starlink
        // resolution, and then some.
        let conus = GeoPolygon::from_degrees(&[
            (24.4, -124.9),
            (24.4, -66.9),
            (49.4, -66.9),
            (49.4, -124.9),
        ])
        .unwrap();
        let n = assert_polyfill_centers_exact(&g, &conus, 5);
        assert!(n > 31_966, "{n} cells");
        let small = GeoPolygon::from_degrees(&[
            (38.0, -100.0),
            (38.2, -98.9),
            (39.1, -98.5),
            (39.0, -99.6),
        ])
        .unwrap();
        for res in [3u8, 7] {
            assert!(
                assert_polyfill_centers_exact(&g, &small, res) > 0,
                "res {res}"
            );
        }
    }
}

//! Planar layout: hex coordinates ↔ plane points.
//!
//! A pointy-top hexagon layout over the equal-area projection plane.
//! The layout is parameterized by circumradius `size_km` (center to
//! corner); a cell's planar area is `(3√3/2)·size²`, and because the
//! projection underneath is equal-area, that is also its ground area.

use crate::coord::{round_frac, Axial};
use leo_geomath::PlanePoint;

const SQRT3: f64 = 1.732_050_807_568_877_2;

/// A pointy-top hexagonal layout with a given cell circumradius in km.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    size_km: f64,
}

impl Layout {
    /// Creates a layout from the circumradius (center→corner), km.
    pub fn new(size_km: f64) -> Self {
        assert!(size_km > 0.0, "cell size must be positive");
        Layout { size_km }
    }

    /// Creates a layout whose cells each cover `area_km2`.
    pub fn from_cell_area(area_km2: f64) -> Self {
        assert!(area_km2 > 0.0, "cell area must be positive");
        // A = (3√3/2) s²  ⇒  s = √(2A / (3√3))
        Layout::new((2.0 * area_km2 / (3.0 * SQRT3)).sqrt())
    }

    /// Planar area of one cell, km².
    pub fn cell_area_km2(&self) -> f64 {
        1.5 * SQRT3 * self.size_km * self.size_km
    }

    /// Distance between the centers of two adjacent cells, km
    /// (`√3 · size` for pointy-top hexes).
    pub fn center_spacing_km(&self) -> f64 {
        SQRT3 * self.size_km
    }

    /// Center of a cell on the plane.
    pub fn center(&self, a: &Axial) -> PlanePoint {
        // Pointy-top axial basis: e_q = (√3, 0)·s, e_r = (√3/2, 3/2)·s.
        // (The +y r-axis keeps the basis at +60°, matching the
        // Eisenstein-integer convention in `coord`.)
        PlanePoint::new(
            self.size_km * SQRT3 * (a.q as f64 + a.r as f64 / 2.0),
            self.size_km * 1.5 * a.r as f64,
        )
    }

    /// The cell containing a plane point.
    pub fn cell_at(&self, p: &PlanePoint) -> Axial {
        let qf = (p.x * SQRT3 / 3.0 - p.y / 3.0) / self.size_km;
        let rf = (2.0 / 3.0 * p.y) / self.size_km;
        round_frac(qf, rf)
    }

    /// The six corners of a cell, counterclockwise starting from the
    /// corner at angle +30° (east-north-east).
    pub fn corners(&self, a: &Axial) -> [PlanePoint; 6] {
        let c = self.center(a);
        let mut out = [PlanePoint::default(); 6];
        for (i, slot) in out.iter_mut().enumerate() {
            let ang = std::f64::consts::PI / 180.0 * (60.0 * i as f64 + 30.0);
            *slot = PlanePoint::new(
                c.x + self.size_km * ang.cos(),
                c.y + self.size_km * ang.sin(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_round_trip() {
        let layout = Layout::from_cell_area(252.903_364_5);
        assert!((layout.cell_area_km2() - 252.903_364_5).abs() < 1e-9);
    }

    #[test]
    fn center_of_origin_is_origin() {
        let layout = Layout::new(10.0);
        let c = layout.center(&Axial::new(0, 0));
        assert_eq!(c.x, 0.0);
        assert_eq!(c.y, 0.0);
    }

    #[test]
    fn neighbors_are_equidistant() {
        let layout = Layout::new(9.0);
        for (q, r) in [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)] {
            let n = Axial::new(q, r);
            let c = layout.center(&n);
            let d = c.x.hypot(c.y);
            assert!(
                (d - layout.center_spacing_km()).abs() < 1e-9,
                "neighbor {n:?} at distance {d}"
            );
        }
    }

    #[test]
    fn cell_at_inverts_center() {
        let layout = Layout::new(7.3);
        for q in -20..20 {
            for r in -20..20 {
                let a = Axial::new(q, r);
                assert_eq!(layout.cell_at(&layout.center(&a)), a);
            }
        }
    }

    #[test]
    fn points_near_center_map_to_that_cell() {
        let layout = Layout::new(5.0);
        let a = Axial::new(3, -2);
        let c = layout.center(&a);
        // In-radius of a pointy-top hex is (√3/2)·size; stay inside it.
        let inr = 0.86 * 5.0 * 0.99;
        for k in 0..12 {
            let ang = k as f64 * std::f64::consts::PI / 6.0;
            let p = PlanePoint::new(c.x + 0.9 * inr * ang.cos(), c.y + 0.9 * inr * ang.sin());
            assert_eq!(layout.cell_at(&p), a, "angle {ang}");
        }
    }

    #[test]
    fn corners_are_at_circumradius() {
        let layout = Layout::new(4.0);
        let a = Axial::new(-1, 5);
        let c = layout.center(&a);
        for corner in layout.corners(&a) {
            assert!(((corner.x - c.x).hypot(corner.y - c.y) - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn corner_polygon_area_matches_formula() {
        let layout = Layout::new(6.0);
        let corners = layout.corners(&Axial::new(0, 0));
        let mut a2 = 0.0;
        for i in 0..6 {
            let p = corners[i];
            let q = corners[(i + 1) % 6];
            a2 += p.x * q.y - q.x * p.y;
        }
        let area = (a2 / 2.0).abs();
        assert!((area - layout.cell_area_km2()).abs() < 1e-9);
    }
}

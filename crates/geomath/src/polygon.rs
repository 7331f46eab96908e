//! Geographic polygons with containment and area.
//!
//! The synthetic geography layer (`leo-demand`) represents the CONUS
//! boundary as a polygon; `leo-hexgrid` fills polygons with cells. The
//! polygons involved are all well within one hemisphere (continental
//! US scale), so containment is evaluated on the Lambert azimuthal
//! equal-area plane tangent at the center of the polygon's bounding
//! box — this also makes area computation exact for the sphere.

use crate::bbox::GeoBBox;
use crate::latlng::LatLng;
use crate::projection::{AzimuthalEqualArea, PlanePoint};

/// A simple (non-self-intersecting) polygon on the sphere, defined by a
/// ring of vertices in order (either winding), without a closing
/// duplicate vertex. Holes are not supported — the geography model does
/// not need them.
#[derive(Debug, Clone)]
pub struct GeoPolygon {
    ring: Vec<LatLng>,
    bbox: GeoBBox,
    proj: AzimuthalEqualArea,
    plane_ring: Vec<PlanePoint>,
}

impl GeoPolygon {
    /// Builds a polygon from a vertex ring.
    ///
    /// Returns `None` for rings with fewer than 3 vertices.
    pub fn new(ring: Vec<LatLng>) -> Option<Self> {
        if ring.len() < 3 {
            return None;
        }
        let mut bbox = GeoBBox::empty();
        for p in &ring {
            bbox.expand(p);
        }
        let proj = AzimuthalEqualArea::new(bbox.center());
        let plane_ring = ring.iter().map(|p| proj.forward(p)).collect();
        Some(GeoPolygon {
            ring,
            bbox,
            proj,
            plane_ring,
        })
    }

    /// Convenience constructor from `(lat, lng)` degree pairs.
    pub fn from_degrees(pts: &[(f64, f64)]) -> Option<Self> {
        Self::new(pts.iter().map(|&(a, o)| LatLng::new(a, o)).collect())
    }

    /// The vertex ring.
    pub fn ring(&self) -> &[LatLng] {
        &self.ring
    }

    /// Bounding box of the polygon.
    pub fn bbox(&self) -> &GeoBBox {
        &self.bbox
    }

    /// Point-in-polygon test (even-odd rule on the equal-area plane).
    /// Points exactly on an edge may land on either side.
    pub fn contains(&self, p: &LatLng) -> bool {
        if !self.bbox.contains(p) {
            return false;
        }
        let q = self.proj.forward(p);
        let mut inside = false;
        let n = self.plane_ring.len();
        let mut j = n - 1;
        for i in 0..n {
            let pi = self.plane_ring[i];
            let pj = self.plane_ring[j];
            if (pi.y > q.y) != (pj.y > q.y) {
                let x_int = pj.x + (q.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
                if q.x < x_int {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Spherical surface area of the polygon in km² (shoelace on the
    /// equal-area plane, so exact up to floating-point error).
    pub fn area_km2(&self) -> f64 {
        let mut acc = 0.0;
        let n = self.plane_ring.len();
        for i in 0..n {
            let a = self.plane_ring[i];
            let b = self.plane_ring[(i + 1) % n];
            acc += a.x * b.y - b.x * a.y;
        }
        (acc / 2.0).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::EARTH_RADIUS_KM;

    fn unit_quad() -> GeoPolygon {
        GeoPolygon::from_degrees(&[(39.0, -99.0), (39.0, -98.0), (40.0, -98.0), (40.0, -99.0)])
            .unwrap()
    }

    #[test]
    fn rejects_degenerate_rings() {
        assert!(GeoPolygon::from_degrees(&[(0.0, 0.0), (1.0, 1.0)]).is_none());
        assert!(GeoPolygon::from_degrees(&[]).is_none());
    }

    #[test]
    fn containment_basic() {
        let q = unit_quad();
        assert!(q.contains(&LatLng::new(39.5, -98.5)));
        assert!(!q.contains(&LatLng::new(38.5, -98.5)));
        assert!(!q.contains(&LatLng::new(39.5, -97.5)));
        assert!(!q.contains(&LatLng::new(41.0, -98.5)));
    }

    #[test]
    fn area_matches_exact_quad_formula() {
        let q = unit_quad();
        let exact = EARTH_RADIUS_KM
            * EARTH_RADIUS_KM
            * 1f64.to_radians()
            * (40f64.to_radians().sin() - 39f64.to_radians().sin());
        let rel = (q.area_km2() - exact).abs() / exact;
        assert!(rel < 1e-3, "area {} vs exact {exact}", q.area_km2());
    }

    #[test]
    fn winding_direction_does_not_matter() {
        let cw =
            GeoPolygon::from_degrees(&[(39.0, -99.0), (40.0, -99.0), (40.0, -98.0), (39.0, -98.0)])
                .unwrap();
        let ccw = unit_quad();
        assert!((cw.area_km2() - ccw.area_km2()).abs() < 1e-6);
        assert!(cw.contains(&LatLng::new(39.5, -98.5)));
    }

    #[test]
    fn concave_polygon_containment() {
        // An L-shaped polygon.
        let l = GeoPolygon::from_degrees(&[
            (0.0, 0.0),
            (0.0, 3.0),
            (1.0, 3.0),
            (1.0, 1.0),
            (3.0, 1.0),
            (3.0, 0.0),
        ])
        .unwrap();
        assert!(l.contains(&LatLng::new(0.5, 2.0)));
        assert!(l.contains(&LatLng::new(2.0, 0.5)));
        assert!(!l.contains(&LatLng::new(2.0, 2.0))); // the notch
    }
}

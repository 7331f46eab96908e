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
    plane: PlaneRing,
}

/// A vertex ring on the projection plane, indexed by horizontal slabs
/// for the even-odd containment test.
///
/// The full scan tests every edge `(pj, pi)` with
/// `(pi.y > q.y) != (pj.y > q.y)`, which holds exactly when
/// `min y ≤ q.y < max y`. Both bounds are vertex y's, so for `q.y` in
/// the slab `[ys[s], ys[s + 1])` between two consecutive distinct
/// vertex y's it holds exactly for the edges with `min y ≤ ys[s]` and
/// `max y ≥ ys[s + 1]`, whatever `q.y` is inside the slab. Each slab
/// stores that edge set, and [`PlaneRing::contains`] tests only the
/// probe's slab with the full scan's `x_int` expression. Parity does
/// not depend on edge order, so the answer is the full scan's, bit for
/// bit.
#[derive(Debug, Clone)]
struct PlaneRing {
    points: Vec<PlanePoint>,
    /// Sorted distinct vertex y's: slab `s` is `[ys[s], ys[s + 1])`.
    ys: Vec<f64>,
    /// Slab `s` holds `edges[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    /// Each edge as `(pj, pi)`, the previous vertex then the current
    /// one, the orientation the full scan evaluates it in.
    edges: Vec<(PlanePoint, PlanePoint)>,
}

impl PlaneRing {
    fn new(points: Vec<PlanePoint>) -> Self {
        let mut ys: Vec<f64> = points.iter().map(|p| p.y).collect();
        ys.sort_by(f64::total_cmp);
        ys.dedup();
        let n = points.len();
        let mut by_slab = vec![Vec::new(); ys.len().saturating_sub(1)];
        for i in 0..n {
            let (pj, pi) = (points[(i + n - 1) % n], points[i]);
            // The slabs from the edge's min y to its max y; none when
            // the edge is horizontal.
            let index = |y: f64| ys.partition_point(|&v| v < y);
            for slab in &mut by_slab[index(pi.y.min(pj.y))..index(pi.y.max(pj.y))] {
                slab.push((pj, pi));
            }
        }
        let mut starts = vec![0u32];
        let mut edges = Vec::new();
        for slab in by_slab {
            edges.extend(slab);
            starts.push(edges.len() as u32);
        }
        PlaneRing {
            points,
            ys,
            starts,
            edges,
        }
    }

    /// Even-odd containment of a plane point.
    fn contains(&self, q: &PlanePoint) -> bool {
        // Below the lowest vertex, at or above the highest, or NaN:
        // no edge qualifies.
        let s = self.ys.partition_point(|&y| y <= q.y);
        if s == 0 || s == self.ys.len() {
            return false;
        }
        let slab = &self.edges[self.starts[s - 1] as usize..self.starts[s] as usize];
        let mut inside = false;
        for &(pj, pi) in slab {
            let x_int = pj.x + (q.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
            if q.x < x_int {
                inside = !inside;
            }
        }
        inside
    }
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
        let plane = PlaneRing::new(ring.iter().map(|p| proj.forward(p)).collect());
        Some(GeoPolygon {
            ring,
            bbox,
            proj,
            plane,
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
        self.plane.contains(&self.proj.forward(p))
    }

    /// Spherical surface area of the polygon in km² (shoelace on the
    /// equal-area plane, so exact up to floating-point error).
    pub fn area_km2(&self) -> f64 {
        let mut acc = 0.0;
        let ring = &self.plane.points;
        let n = ring.len();
        for i in 0..n {
            let a = ring[i];
            let b = ring[(i + 1) % n];
            acc += a.x * b.y - b.x * a.y;
        }
        (acc / 2.0).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::EARTH_RADIUS_KM;
    use proptest::prelude::*;

    /// The containment scan the slab index replaced: every edge whose
    /// ends straddle the probe's y, in ring order.
    fn full_scan(ring: &[PlanePoint], q: &PlanePoint) -> bool {
        let mut inside = false;
        let n = ring.len();
        let mut j = n - 1;
        for i in 0..n {
            let pi = ring[i];
            let pj = ring[j];
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

    /// A star-shaped ring around the origin with vertices snapped to a
    /// half-unit lattice, so vertices share y's and some edges are
    /// horizontal or of zero length.
    fn star_ring() -> impl Strategy<Value = Vec<PlanePoint>> {
        proptest::collection::vec((0.0..0.9f64, 1u32..12), 3..24).prop_map(|spokes| {
            let n = spokes.len() as f64;
            let snap = |v: f64| (v * 2.0).round() / 2.0;
            spokes
                .iter()
                .enumerate()
                .map(|(k, &(jitter, r))| {
                    let angle = (k as f64 + jitter) * std::f64::consts::TAU / n;
                    let r = r as f64;
                    PlanePoint::new(snap(r * angle.cos()), snap(r * angle.sin()))
                })
                .collect()
        })
    }

    /// Probes where a slab index could go wrong: every vertex; points
    /// at each vertex's y left of, right of and beside the vertex, and
    /// halfway to the next vertex (on the edge when it is
    /// horizontal); and points just off each vertex's y.
    fn probes(ring: &[PlanePoint]) -> Vec<PlanePoint> {
        let n = ring.len();
        let mut out = Vec::new();
        for (k, p) in ring.iter().enumerate() {
            let next = ring[(k + 1) % n];
            out.push(*p);
            for x in [-100.0, 100.0, p.x - 0.25, p.x + 0.25, (p.x + next.x) / 2.0] {
                out.push(PlanePoint::new(x, p.y));
            }
            for y in [p.y - 1e-9, p.y + 1e-9, (p.y + next.y) / 2.0] {
                out.push(PlanePoint::new(p.x, y));
                out.push(PlanePoint::new((p.x + next.x) / 2.0, y));
            }
        }
        out.push(PlanePoint::new(0.0, f64::NAN));
        out
    }

    proptest! {
        #[test]
        fn slab_containment_equals_the_full_edge_scan(
            ring in star_ring(),
            extra in proptest::collection::vec((-13.0..13.0f64, -13.0..13.0f64), 16),
        ) {
            let plane = PlaneRing::new(ring.clone());
            let mut qs = probes(&ring);
            qs.extend(extra.iter().map(|&(x, y)| PlanePoint::new(x, y)));
            for q in &qs {
                prop_assert_eq!(plane.contains(q), full_scan(&ring, q), "{:?} in {:?}", q, ring);
            }
        }

        #[test]
        fn polygon_containment_equals_the_full_edge_scan(
            spokes in proptest::collection::vec((0.0..0.9f64, 0.2..6.0f64), 3..16),
            extra in proptest::collection::vec((30.0..48.0f64, -110.0..-86.0f64), 16),
        ) {
            let n = spokes.len() as f64;
            let ring: Vec<LatLng> = spokes
                .iter()
                .enumerate()
                .map(|(k, &(jitter, r))| {
                    let angle = (k as f64 + jitter) * std::f64::consts::TAU / n;
                    LatLng::new(39.0 + r * angle.sin(), -98.0 + r * angle.cos())
                })
                .collect();
            let poly = GeoPolygon::new(ring.clone()).unwrap();
            let qs = ring.iter().copied().chain(extra.iter().map(|&(a, o)| LatLng::new(a, o)));
            for p in qs {
                let full = poly.bbox.contains(&p) && full_scan(&poly.plane.points, &poly.proj.forward(&p));
                prop_assert_eq!(poly.contains(&p), full, "{} in {:?}", p, ring);
            }
        }
    }

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

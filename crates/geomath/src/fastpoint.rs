//! Precomputed-point distance kernels for nearest-anchor hot loops.
//!
//! The demand generator evaluates great-circle distances millions of
//! times against *fixed* anchor sets (smooth-field bump centers, metro
//! anchors, county seats). [`great_circle_distance_km`] recomputes the
//! radian conversions and `cos(lat)` of both endpoints on every call;
//! for a fixed anchor those are loop-invariant. [`PrePoint`] hoists
//! them so the per-pair cost drops to two sines, a square root and an
//! arcsine, and [`UnitPoint`] additionally carries the anchor's 3D unit
//! vector so nearest-point *selection* can compare dot products (five
//! flops per candidate, no transcendentals at all).
//!
//! ## Bit-identity contract
//!
//! [`pre_distance_km`] performs the exact floating-point operation
//! sequence of [`great_circle_distance_km`]: the hoisted values
//! (`to_radians`, `cos`) are deterministic functions of the same inputs,
//! so hoisting them out of the loop cannot change a single result bit
//! (asserted over a dense CONUS sample by the tests below). The
//! calibrated synthetic datasets rely on this — swapping the kernel must
//! not move any artifact byte.
//!
//! Dot products order candidates by true central angle (the dot is
//! strictly decreasing in the angle), so argmax-by-dot agrees with
//! argmin-by-haversine except when two candidates sit within the two
//! kernels' combined rounding noise (≪ 1 µm) of each other. Callers
//! that must replicate haversine selection exactly re-rank the
//! near-best candidates with [`pre_distance_km`] — see
//! [`DOT_RERANK_MARGIN`].
//!
//! [`great_circle_distance_km`]: crate::sphere::great_circle_distance_km

use crate::constants::EARTH_RADIUS_KM;
use crate::latlng::LatLng;
use crate::vec3::Vec3;

/// Dot-product slack within which two candidates' central angles could
/// conceivably rank differently under the dot and haversine kernels.
///
/// The two kernels disagree only when angles differ by less than
/// ~1e-14 rad (sub-micrometre); a dot margin of 1e-7 is seven orders of
/// magnitude more conservative and still keeps re-rank sets tiny (it
/// admits at most candidates within ~450 m of the best at mid-range
/// separations, and a few km very near an anchor — a handful of exact
/// haversine evaluations either way).
pub const DOT_RERANK_MARGIN: f64 = 1e-7;

/// A point with its haversine-loop-invariant trigonometry hoisted:
/// radian coordinates and `cos(lat)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrePoint {
    lat_rad: f64,
    lng_rad: f64,
    cos_lat: f64,
}

impl PrePoint {
    /// Precomputes the trigonometry of `p`.
    pub fn new(p: &LatLng) -> Self {
        let lat_rad = p.lat_rad();
        PrePoint {
            lat_rad,
            lng_rad: p.lng_rad(),
            // The same expression `great_circle_distance_km` evaluates
            // per call — not `sin_cos`, whose cosine libm does not
            // guarantee bit-equal to a standalone `cos`.
            cos_lat: lat_rad.cos(),
        }
    }
}

/// Central angle (radians) between two precomputed points.
///
/// Bit-identical to [`crate::sphere::central_angle_rad`] on the same
/// pair: identical operations in identical order, with the
/// loop-invariant factors read from the [`PrePoint`]s instead of
/// recomputed.
#[inline]
pub fn pre_central_angle_rad(a: &PrePoint, b: &PrePoint) -> f64 {
    let dlat = (b.lat_rad - a.lat_rad) / 2.0;
    let dlng = (b.lng_rad - a.lng_rad) / 2.0;
    let h = dlat.sin().powi(2) + a.cos_lat * b.cos_lat * dlng.sin().powi(2);
    2.0 * h.sqrt().clamp(-1.0, 1.0).asin()
}

/// Great-circle distance (km) between two precomputed points;
/// bit-identical to [`crate::sphere::great_circle_distance_km`].
#[inline]
pub fn pre_distance_km(a: &PrePoint, b: &PrePoint) -> f64 {
    pre_central_angle_rad(a, b) * EARTH_RADIUS_KM
}

/// The dot-product threshold equivalent to "within `radius_km`":
/// a candidate is within the radius iff its unit-vector dot against the
/// query is at least this value (cosine is strictly decreasing on
/// `[0, π]`).
#[inline]
pub fn dot_for_radius_km(radius_km: f64) -> f64 {
    (radius_km / EARTH_RADIUS_KM).cos()
}

/// A construction-time anchor point: hoisted trigonometry and
/// geocentric unit vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitPoint {
    pre: PrePoint,
    unit: Vec3,
}

impl UnitPoint {
    /// Precomputes everything for `p`.
    pub fn new(p: &LatLng) -> Self {
        UnitPoint {
            pre: PrePoint::new(p),
            unit: p.to_unit_vec(),
        }
    }

    /// The hoisted trigonometry (for exact haversine evaluation).
    #[inline]
    pub fn pre(&self) -> &PrePoint {
        &self.pre
    }

    /// The geocentric unit vector (for dot-product selection).
    #[inline]
    pub fn unit(&self) -> Vec3 {
        self.unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sphere::great_circle_distance_km;

    /// A dense sample of CONUS-ish point pairs, plus antipodal and
    /// near-coincident degenerates.
    fn sample_pairs() -> Vec<(LatLng, LatLng)> {
        let mut pairs = Vec::new();
        for lat_a in [-89.9, -37.5, 0.0, 25.0, 37.0, 48.9, 90.0] {
            for lng_a in [-179.9, -124.7, -98.35, -66.9, 0.0, 133.7] {
                for lat_b in [-45.0, 24.5, 37.000001, 49.0] {
                    for lng_b in [-125.0, -89.5, -66.95, 179.0] {
                        pairs.push((LatLng::new(lat_a, lng_a), LatLng::new(lat_b, lng_b)));
                    }
                }
            }
        }
        pairs.push((LatLng::new(0.0, 0.0), LatLng::new(0.0, 180.0)));
        pairs.push((LatLng::new(39.5, -98.35), LatLng::new(39.5, -98.35)));
        pairs
    }

    #[test]
    fn pre_distance_is_bit_identical_to_haversine() {
        for (a, b) in sample_pairs() {
            let naive = great_circle_distance_km(&a, &b);
            let pre = pre_distance_km(&PrePoint::new(&a), &PrePoint::new(&b));
            assert_eq!(
                naive.to_bits(),
                pre.to_bits(),
                "kernel mismatch for {a} -> {b}: {naive} vs {pre}"
            );
        }
    }

    #[test]
    fn pre_distance_is_bit_identical_in_both_argument_orders() {
        let p = LatLng::new(37.0, -89.5);
        let q = LatLng::new(40.71, -74.01);
        let (pp, pq) = (PrePoint::new(&p), PrePoint::new(&q));
        assert_eq!(
            great_circle_distance_km(&p, &q).to_bits(),
            pre_distance_km(&pp, &pq).to_bits()
        );
        assert_eq!(
            great_circle_distance_km(&q, &p).to_bits(),
            pre_distance_km(&pq, &pp).to_bits()
        );
    }

    #[test]
    fn dot_ordering_agrees_with_distance_ordering() {
        // Order 50 anchors by dot and by haversine from one query;
        // orderings must agree (no two anchors are within the rounding
        // margin of each other here).
        let query = LatLng::new(39.5, -98.35);
        let qu = query.to_unit_vec();
        let anchors: Vec<LatLng> = (0..50)
            .map(|i| LatLng::new(25.0 + (i as f64) * 0.47, -120.0 + (i as f64) * 1.03))
            .collect();
        let mut by_dot: Vec<usize> = (0..anchors.len()).collect();
        by_dot.sort_by(|&i, &j| {
            let di = qu.dot(anchors[i].to_unit_vec());
            let dj = qu.dot(anchors[j].to_unit_vec());
            dj.partial_cmp(&di).unwrap()
        });
        let mut by_dist: Vec<usize> = (0..anchors.len()).collect();
        by_dist.sort_by(|&i, &j| {
            let di = great_circle_distance_km(&query, &anchors[i]);
            let dj = great_circle_distance_km(&query, &anchors[j]);
            di.partial_cmp(&dj).unwrap()
        });
        assert_eq!(by_dot, by_dist);
    }

    #[test]
    fn dot_threshold_matches_radius_test() {
        let query = LatLng::new(39.5, -98.35);
        let qu = query.to_unit_vec();
        for km in [1.0, 80.0, 640.0, 5120.0] {
            let threshold = dot_for_radius_km(km);
            for bearing in [0.0, 90.0, 200.0] {
                let inside = crate::sphere::destination(&query, bearing, km * 0.99);
                let outside = crate::sphere::destination(&query, bearing, km * 1.01);
                assert!(qu.dot(inside.to_unit_vec()) >= threshold, "{km} {bearing}");
                assert!(qu.dot(outside.to_unit_vec()) < threshold, "{km} {bearing}");
            }
        }
    }

    #[test]
    fn unit_point_exposes_consistent_views() {
        let p = LatLng::new(47.61, -122.33);
        let u = UnitPoint::new(&p);
        assert!((u.unit().norm() - 1.0).abs() < 1e-12);
        assert_eq!(u.pre(), &PrePoint::new(&p));
    }
}

//! Property-based tests for the geodesy layer.
//!
//! These pin down the algebraic identities the rest of the system
//! depends on: the projection must round-trip, distances must form a
//! metric, and `destination` must leave along the bearing it is given.

use leo_geomath::angle::normalize_lng_deg;
use leo_geomath::{
    destination, great_circle_distance_km, AzimuthalEqualArea, LatLng, EARTH_RADIUS_KM,
};
use proptest::prelude::*;

/// Latitudes away from the poles where bearing math is well-conditioned.
fn lat() -> impl Strategy<Value = f64> {
    -84.0..84.0
}

fn lng() -> impl Strategy<Value = f64> {
    -180.0..180.0
}

fn latlng() -> impl Strategy<Value = LatLng> {
    (lat(), lng()).prop_map(|(a, o)| LatLng::new(a, o))
}

/// Initial great-circle bearing from `a` to `b`, degrees clockwise
/// from north in `[0, 360)`.
fn initial_bearing_deg(a: &LatLng, b: &LatLng) -> f64 {
    let dlng = b.lng_rad() - a.lng_rad();
    let y = dlng.sin() * b.lat_rad().cos();
    let x =
        a.lat_rad().cos() * b.lat_rad().sin() - a.lat_rad().sin() * b.lat_rad().cos() * dlng.cos();
    (y.atan2(x).to_degrees() + 360.0) % 360.0
}

/// Points within ~25° of the CONUS center, i.e. the region the actual
/// pipeline projects.
fn conus_point() -> impl Strategy<Value = LatLng> {
    (20.0..60.0f64, -130.0..-65.0f64).prop_map(|(a, o)| LatLng::new(a, o))
}

proptest! {
    #[test]
    fn lng_normalization_is_idempotent_and_in_range(x in -1e4..1e4f64) {
        let once = normalize_lng_deg(x);
        prop_assert!((-180.0..180.0).contains(&once));
        prop_assert!((normalize_lng_deg(once) - once).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric(a in latlng(), b in latlng()) {
        let d1 = great_circle_distance_km(&a, &b);
        let d2 = great_circle_distance_km(&b, &a);
        prop_assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn distance_satisfies_triangle_inequality(a in latlng(), b in latlng(), c in latlng()) {
        let ab = great_circle_distance_km(&a, &b);
        let bc = great_circle_distance_km(&b, &c);
        let ac = great_circle_distance_km(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn distance_is_bounded_by_half_circumference(a in latlng(), b in latlng()) {
        let d = great_circle_distance_km(&a, &b);
        prop_assert!(d >= 0.0);
        prop_assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM + 1e-6);
    }

    #[test]
    fn destination_inverts_bearing_and_distance(
        a in latlng(), bearing in 0.0..360.0f64, dist in 1.0..5000.0f64
    ) {
        let b = destination(&a, bearing, dist);
        let back = great_circle_distance_km(&a, &b);
        prop_assert!((back - dist).abs() < 1e-6 * dist, "dist {dist} back {back}");
        // Initial bearing should match, away from poles and degenerate arcs.
        if b.lat_deg().abs() < 84.0 {
            let bb = initial_bearing_deg(&a, &b);
            let diff = (bb - bearing).abs().min((bb - bearing + 360.0).abs()).min((bb - bearing - 360.0).abs());
            prop_assert!(diff < 1e-6, "bearing {bearing} recovered {bb}");
        }
    }

    #[test]
    fn unit_vec_round_trip(p in latlng()) {
        let q = LatLng::from_vec(p.to_unit_vec());
        prop_assert!(great_circle_distance_km(&p, &q) < 1e-9);
    }

    #[test]
    fn azimuthal_round_trip(center in conus_point(), p in conus_point()) {
        let proj = AzimuthalEqualArea::new(center);
        let back = proj.inverse(&proj.forward(&p));
        prop_assert!(great_circle_distance_km(&p, &back) < 1e-6);
    }
}

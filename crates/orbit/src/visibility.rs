//! Ground-to-satellite visibility geometry.
//!
//! A user terminal can use a satellite only above a minimum elevation
//! angle (Starlink's FCC license requires ≥ 25° for user links). On the
//! spherical Earth this bounds the *Earth central angle* between the
//! ground point and the sub-satellite point:
//!
//! ```text
//! λ(ε, h) = arccos( R/(R+h) · cos ε ) − ε
//! ```
//!
//! so each satellite serves a spherical cap of angular radius `λ`. The
//! capacity model uses this to verify that a satellite's *footprint*
//! holds vastly more cells than its *beam count* can serve — the paper's
//! premise that beams, not geometry, are the binding resource.

use leo_geomath::constants::EARTH_RADIUS_KM;
use leo_geomath::{LatLng, Vec3};

/// Starlink's minimum user-terminal elevation angle, degrees.
pub const STARLINK_MIN_ELEVATION_DEG: f64 = 25.0;

/// Earth central angle (radians) of the coverage cap for a satellite at
/// altitude `h` km serving terminals above elevation `elev_deg`.
pub fn coverage_cap_angle_rad(altitude_km: f64, elev_deg: f64) -> f64 {
    let eps = elev_deg.to_radians();
    let ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km);
    (ratio * eps.cos()).clamp(-1.0, 1.0).acos() - eps
}

/// Angular slack (radians) of [`cap_dot_floor`] and [`cap_dot_ceiling`]:
/// far beyond the rounding of the dot product and of the exact
/// central-angle and elevation tests, far below any cap angle.
pub const CAP_DOT_MARGIN_RAD: f64 = 1e-6;

/// Further slack of [`cap_dot_floor`] and [`cap_dot_ceiling`], as a
/// fraction of the radius: it covers the error of a prefilter position
/// (under 1e-8 km, see [`crate::ephemeris`]) and keeps both bounds
/// conservative even for a cap angle near zero, where the cosine is
/// flat.
pub(crate) const CAP_DOT_SLACK: f64 = 1e-9;

/// Dot-product floor of a conservative coverage-cap prefilter. For a
/// ground unit vector `û` and a position `p` at radius `radius` (km, or
/// 1 for unit vectors), `û · p` below the floor means the central angle
/// exceeds `lambda` by more than [`CAP_DOT_MARGIN_RAD`], so the exact
/// test would reject the pair as well. Caps reaching past the antipode
/// get no floor.
pub(crate) fn cap_dot_floor(radius: f64, lambda: f64) -> f64 {
    let reach = lambda + CAP_DOT_MARGIN_RAD;
    if reach < std::f64::consts::PI {
        radius * (reach.cos() - CAP_DOT_SLACK)
    } else {
        f64::NEG_INFINITY
    }
}

/// Dot-product ceiling of the same cap, the mirror of
/// [`cap_dot_floor`]: `û · p` at or above it means the central angle is
/// below `lambda` by more than [`CAP_DOT_MARGIN_RAD`], so the exact test
/// would accept the pair as well. Caps no wider than the margin get no
/// ceiling.
pub(crate) fn cap_dot_ceiling(radius: f64, lambda: f64) -> f64 {
    let reach = lambda - CAP_DOT_MARGIN_RAD;
    if reach > 0.0 && reach < std::f64::consts::PI {
        radius * (reach.cos() + CAP_DOT_SLACK)
    } else {
        f64::INFINITY
    }
}

/// Ground area (km²) of the coverage cap.
pub fn coverage_cap_area_km2(altitude_km: f64, elev_deg: f64) -> f64 {
    leo_geomath::sphere::spherical_cap_area_km2(coverage_cap_angle_rad(altitude_km, elev_deg))
}

/// Elevation angle (degrees) of a satellite at ECEF position `sat_ecef`
/// (km) as seen from ground point `ground` on the spherical Earth.
/// Negative values mean the satellite is below the horizon.
pub fn elevation_angle_deg(ground: &LatLng, sat_ecef: Vec3) -> f64 {
    elevation_from_unit_deg(ground.to_unit_vec(), sat_ecef)
}

/// [`elevation_angle_deg`] from the ground point's unit vector `up`,
/// for callers testing many satellites against one ground point.
pub(crate) fn elevation_from_unit_deg(up: Vec3, sat_ecef: Vec3) -> f64 {
    let gp = up * EARTH_RADIUS_KM;
    let los = sat_ecef - gp;
    let n = los.norm();
    if n < 1e-9 {
        return 90.0;
    }
    (up.dot(los) / n).clamp(-1.0, 1.0).asin().to_degrees()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_angle_at_zero_elevation_is_horizon_angle() {
        // ε = 0: λ = arccos(R/(R+h)).
        let h = 550.0;
        let expect = (EARTH_RADIUS_KM / (EARTH_RADIUS_KM + h)).acos();
        assert!((coverage_cap_angle_rad(h, 0.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn starlink_cap_matches_hand_calculation() {
        // h=550, ε=25°: λ ≈ 8.45° (see DESIGN.md).
        let lambda = coverage_cap_angle_rad(550.0, STARLINK_MIN_ELEVATION_DEG);
        assert!(
            (lambda.to_degrees() - 8.45).abs() < 0.05,
            "{}",
            lambda.to_degrees()
        );
        // Footprint ≈ 2.77e6 km², i.e. ~11k Starlink cells — beam count
        // (24) binds long before footprint does.
        let area = coverage_cap_area_km2(550.0, STARLINK_MIN_ELEVATION_DEG);
        assert!((area / 1e6 - 2.77).abs() < 0.05, "area {area}");
    }

    #[test]
    fn dot_floor_and_ceiling_bracket_the_cap_rim() {
        let lambda = coverage_cap_angle_rad(550.0, STARLINK_MIN_ELEVATION_DEG);
        let r = EARTH_RADIUS_KM + 550.0;
        let (floor, ceiling) = (cap_dot_floor(r, lambda), cap_dot_ceiling(r, lambda));
        let dot = |angle: f64| r * angle.cos();
        assert!(dot(lambda - 2.0 * CAP_DOT_MARGIN_RAD) >= ceiling);
        assert!(dot(lambda) < ceiling && dot(lambda) >= floor);
        assert!(dot(lambda + 2.0 * CAP_DOT_MARGIN_RAD) < floor);
        // A cap no wider than the margin has no certain inside.
        assert_eq!(cap_dot_ceiling(r, CAP_DOT_MARGIN_RAD), f64::INFINITY);
    }

    #[test]
    fn cap_shrinks_with_elevation() {
        let mut prev = f64::INFINITY;
        for e in [0.0, 10.0, 25.0, 40.0, 60.0, 80.0] {
            let l = coverage_cap_angle_rad(550.0, e);
            assert!(l < prev, "elev {e}");
            prev = l;
        }
    }

    #[test]
    fn overhead_satellite_is_at_90_degrees() {
        let g = LatLng::new(40.0, -100.0);
        let sat = g.to_unit_vec() * (EARTH_RADIUS_KM + 550.0);
        // asin is ill-conditioned at 1, so allow micro-degree slack.
        assert!((elevation_angle_deg(&g, sat) - 90.0).abs() < 1e-5);
    }

    #[test]
    fn elevation_at_cap_edge_matches_min_elevation() {
        let g = LatLng::new(40.0, -100.0);
        let lambda = coverage_cap_angle_rad(550.0, 25.0);
        // Place a satellite whose SSP is exactly λ away.
        let ssp = leo_geomath::destination(&g, 90.0, lambda * EARTH_RADIUS_KM);
        let sat = ssp.to_unit_vec() * (EARTH_RADIUS_KM + 550.0);
        let e = elevation_angle_deg(&g, sat);
        assert!((e - 25.0).abs() < 0.01, "elevation {e}");
    }

    #[test]
    fn below_horizon_satellite_has_negative_elevation() {
        let g = LatLng::new(0.0, 0.0);
        let far = LatLng::new(0.0, 120.0);
        let sat = far.to_unit_vec() * (EARTH_RADIUS_KM + 550.0);
        assert!(elevation_angle_deg(&g, sat) < 0.0);
    }
}

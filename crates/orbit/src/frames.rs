//! Reference-frame conversions.
//!
//! Two frames appear in the pipeline:
//!
//! * **ECI** (Earth-centered inertial): orbits are propagated here.
//! * **ECEF** (Earth-centered Earth-fixed): ground points live here;
//!   the frames differ by a rotation about the z-axis by the Earth
//!   rotation angle `θ(t) = ω_⊕ · t` (we measure time from an epoch at
//!   which the frames coincide — absolute sidereal time is irrelevant
//!   to constellation statistics).
//!
//! Sub-satellite points use the spherical-Earth model for consistency
//! with the rest of the system.

use leo_geomath::constants::EARTH_ROTATION_RATE_RAD_S;
use leo_geomath::{LatLng, Vec3};

/// Earth rotation angle at `t` seconds past epoch, radians.
pub fn earth_rotation_angle_rad(t_s: f64) -> f64 {
    (EARTH_ROTATION_RATE_RAD_S * t_s) % (2.0 * std::f64::consts::PI)
}

/// Rotates an ECI position into ECEF at time `t_s`.
pub fn eci_to_ecef(p_eci: Vec3, t_s: f64) -> Vec3 {
    rotate_eci_to_ecef(p_eci, earth_rotation_angle_rad(t_s).sin_cos())
}

/// [`eci_to_ecef`] with the Earth rotation angle's `(sin θ, cos θ)`
/// already evaluated, so a caller propagating many satellites to one
/// instant computes it once.
#[inline]
pub(crate) fn rotate_eci_to_ecef(p_eci: Vec3, (s, c): (f64, f64)) -> Vec3 {
    // ECEF = Rz(−θ)·ECI (the Earth rotates +θ, so fixed coordinates
    // rotate the other way).
    Vec3::new(
        c * p_eci.x + s * p_eci.y,
        -s * p_eci.x + c * p_eci.y,
        p_eci.z,
    )
}

/// Rotates an ECEF position into ECI at time `t_s`.
pub fn ecef_to_eci(p_ecef: Vec3, t_s: f64) -> Vec3 {
    let theta = earth_rotation_angle_rad(t_s);
    let (s, c) = theta.sin_cos();
    Vec3::new(
        c * p_ecef.x - s * p_ecef.y,
        s * p_ecef.x + c * p_ecef.y,
        p_ecef.z,
    )
}

/// The sub-satellite point (spherical Earth) of an ECEF position.
pub fn subsatellite_point(p_ecef: Vec3) -> LatLng {
    LatLng::from_vec(p_ecef)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eci_ecef_round_trip() {
        let p = Vec3::new(4000.0, -3000.0, 5000.0);
        for t in [0.0, 1.0, 1234.5, 86_400.0] {
            let back = ecef_to_eci(eci_to_ecef(p, t), t);
            assert!((back - p).norm() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn frames_coincide_at_epoch() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert!((eci_to_ecef(p, 0.0) - p).norm() < 1e-12);
    }

    #[test]
    fn quarter_sidereal_day_rotates_90_degrees() {
        let t = std::f64::consts::FRAC_PI_2 / EARTH_ROTATION_RATE_RAD_S;
        let p_eci = Vec3::new(7000.0, 0.0, 0.0);
        let p_ecef = eci_to_ecef(p_eci, t);
        // A point fixed in inertial space appears to move westward:
        // its ECEF longitude decreases by ~90°.
        let ll = subsatellite_point(p_ecef);
        assert!((ll.lng_deg() + 90.0).abs() < 0.01, "lng={}", ll.lng_deg());
    }
}

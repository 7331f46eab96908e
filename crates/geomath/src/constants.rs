//! Physical constants shared by the geodesy and orbit layers.
//!
//! The paper's constellation-sizing model divides the Earth's surface
//! area by a per-satellite service area, so the exact radius convention
//! matters for reproducibility. We follow the common spherical-Earth
//! convention used by H3's published cell areas: the **authalic radius**
//! (the radius of the sphere with the same surface area as the WGS84
//! ellipsoid).

/// Authalic (equal-area) Earth radius in kilometers.
pub const EARTH_RADIUS_KM: f64 = 6_371.007_180_918_475;

/// Surface area of the spherical Earth, in square kilometers
/// (`4 * PI * R^2` ≈ 5.10066e8 km²).
pub const EARTH_SURFACE_AREA_KM2: f64 =
    4.0 * std::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM;

/// Standard gravitational parameter of Earth, km³/s² (WGS84 value).
pub const EARTH_MU_KM3_S2: f64 = 398_600.441_8;

/// Earth's sidereal rotation rate, radians per second.
pub const EARTH_ROTATION_RATE_RAD_S: f64 = 7.292_115_146_706_979e-5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_area_matches_known_value() {
        // 5.10066e8 km² is the textbook surface area of the Earth.
        assert!((EARTH_SURFACE_AREA_KM2 - 5.100_66e8).abs() / 5.100_66e8 < 1e-4);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn authalic_radius_between_polar_and_equatorial() {
        // WGS84 polar and equatorial radii, km.
        assert!(EARTH_RADIUS_KM > 6_356.752);
        assert!(EARTH_RADIUS_KM < 6_378.137);
    }

    #[test]
    fn sidereal_day_consistent_with_rotation_rate() {
        let day = 2.0 * std::f64::consts::PI / EARTH_ROTATION_RATE_RAD_S;
        // The sidereal day is 86,164.0905 s.
        assert!((day - 86_164.090_5).abs() < 0.5);
    }
}

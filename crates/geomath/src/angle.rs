//! Angle normalization helpers.
//!
//! Latitude/longitude inputs arrive in degrees from the (synthetic)
//! broadband-map datasets; all trigonometry happens in radians.

/// Normalizes a longitude in degrees to the half-open interval
/// `[-180, 180)`.
///
/// Longitudes that differ by full turns refer to the same meridian; the
/// normalization keeps cell keys and projection inputs canonical.
pub fn normalize_lng_deg(lng: f64) -> f64 {
    let mut x = (lng + 180.0) % 360.0;
    if x < 0.0 {
        x += 360.0;
    }
    x - 180.0
}

/// Clamps a latitude in degrees to `[-90, 90]`.
///
/// Out-of-range latitudes are geometrically meaningless; callers that
/// produce them (e.g. by adding an offset near a pole) want saturation
/// rather than wrap-around, because wrapping across a pole also flips
/// the longitude and is handled by the great-circle routines instead.
pub fn normalize_lat_deg(lat: f64) -> f64 {
    lat.clamp(-90.0, 90.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lng_normalization_basic() {
        assert_eq!(normalize_lng_deg(0.0), 0.0);
        assert_eq!(normalize_lng_deg(180.0), -180.0);
        assert_eq!(normalize_lng_deg(-180.0), -180.0);
        assert_eq!(normalize_lng_deg(190.0), -170.0);
        assert_eq!(normalize_lng_deg(-190.0), 170.0);
        assert_eq!(normalize_lng_deg(540.0), -180.0);
        assert_eq!(normalize_lng_deg(359.0), -1.0);
    }

    #[test]
    fn lng_normalization_idempotent() {
        for lng in [-720.5, -359.0, -181.0, -0.25, 12.5, 179.99, 1234.5] {
            let once = normalize_lng_deg(lng);
            let twice = normalize_lng_deg(once);
            assert!((once - twice).abs() < 1e-12, "lng={lng}");
            assert!((-180.0..180.0).contains(&once), "lng={lng} -> {once}");
        }
    }

    #[test]
    fn lat_clamping() {
        assert_eq!(normalize_lat_deg(95.0), 90.0);
        assert_eq!(normalize_lat_deg(-95.0), -90.0);
        assert_eq!(normalize_lat_deg(45.0), 45.0);
    }
}

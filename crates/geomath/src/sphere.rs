//! Great-circle math on the spherical Earth.
//!
//! These routines back both the demand-geography layer (distances between
//! synthetic locations and cluster centers) and the orbital layer
//! (coverage caps, elevation geometry). Everything operates on the
//! authalic sphere of radius [`EARTH_RADIUS_KM`].

use crate::constants::EARTH_RADIUS_KM;
use crate::latlng::LatLng;

/// Central angle (radians) between two points, via the haversine
/// formula — numerically stable for small separations, which is the
/// common case when binning locations into ~250 km² cells.
pub fn central_angle_rad(a: &LatLng, b: &LatLng) -> f64 {
    let dlat = (b.lat_rad() - a.lat_rad()) / 2.0;
    let dlng = (b.lng_rad() - a.lng_rad()) / 2.0;
    let h = dlat.sin().powi(2) + a.lat_rad().cos() * b.lat_rad().cos() * dlng.sin().powi(2);
    2.0 * h.sqrt().clamp(-1.0, 1.0).asin()
}

/// Great-circle distance between two points, kilometers.
pub fn great_circle_distance_km(a: &LatLng, b: &LatLng) -> f64 {
    central_angle_rad(a, b) * EARTH_RADIUS_KM
}

/// Destination point after traveling `distance_km` along the great
/// circle leaving `start` at `bearing_deg` (degrees clockwise from
/// north).
pub fn destination(start: &LatLng, bearing_deg: f64, distance_km: f64) -> LatLng {
    let delta = distance_km / EARTH_RADIUS_KM;
    let theta = bearing_deg.to_radians();
    let (slat, clat) = start.lat_rad().sin_cos();
    let (sd, cd) = delta.sin_cos();
    let lat2 = (slat * cd + clat * sd * theta.cos())
        .clamp(-1.0, 1.0)
        .asin();
    let lng2 = start.lng_rad() + (theta.sin() * sd * clat).atan2(cd - slat * lat2.sin());
    LatLng::from_radians(lat2, lng2)
}

/// Area of a spherical cap of angular radius `theta_rad`, km².
///
/// The constellation-coverage model uses this for satellite footprints:
/// `A = 2π R² (1 − cos θ)`.
pub fn spherical_cap_area_km2(theta_rad: f64) -> f64 {
    2.0 * std::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM * (1.0 - theta_rad.cos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distance_sf_to_nyc() {
        // SFO to JFK is ~4152 km by great circle.
        let sfo = LatLng::new(37.6213, -122.3790);
        let jfk = LatLng::new(40.6413, -73.7781);
        let d = great_circle_distance_km(&sfo, &jfk);
        assert!((d - 4152.0).abs() < 20.0, "got {d}");
    }

    #[test]
    fn equatorial_degree_is_about_111km() {
        let a = LatLng::new(0.0, 0.0);
        let b = LatLng::new(0.0, 1.0);
        let d = great_circle_distance_km(&a, &b);
        assert!((d - 111.19).abs() < 0.2, "got {d}");
    }

    #[test]
    fn destination_round_trip() {
        let start = LatLng::new(39.5, -98.35); // geographic center of CONUS
        for bearing in [0.0, 45.0, 133.7, 270.0] {
            for dist in [1.0, 50.0, 500.0, 3000.0] {
                let end = destination(&start, bearing, dist);
                let back = great_circle_distance_km(&start, &end);
                assert!(
                    (back - dist).abs() < 1e-6 * dist.max(1.0),
                    "b={bearing} d={dist} got {back}"
                );
            }
        }
    }

    #[test]
    fn hemisphere_cap_is_half_earth() {
        let hemi = spherical_cap_area_km2(std::f64::consts::FRAC_PI_2);
        assert!((hemi - crate::constants::EARTH_SURFACE_AREA_KM2 / 2.0).abs() < 1.0);
    }

    #[test]
    fn cap_area_round_trip() {
        // Inverse of `spherical_cap_area_km2`: θ = acos(1 − A / 2πR²).
        let radius_of = |area: f64| {
            (1.0 - area / (2.0 * std::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM)).acos()
        };
        for theta in [0.01, 0.1, 0.5, 1.0, 2.0] {
            let back = radius_of(spherical_cap_area_km2(theta));
            assert!((back - theta).abs() < 1e-10);
        }
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = LatLng::new(0.0, 0.0);
        let b = LatLng::new(0.0, 180.0);
        let d = great_circle_distance_km(&a, &b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1e-6);
    }
}

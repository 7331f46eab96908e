//! Map projections.
//!
//! [`AzimuthalEqualArea`] — Lambert azimuthal equal-area — is the one
//! projection the system needs: the hex service grid is laid out on it
//! so that every cell covers the same ground area, which the
//! constellation-sizing arithmetic requires (see DESIGN.md §4). It is
//! centered on an arbitrary tangent point and produces planar
//! coordinates in kilometers.

use crate::constants::EARTH_RADIUS_KM;
use crate::latlng::LatLng;

/// A point on a projected plane, in kilometers from the tangent point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanePoint {
    /// East coordinate, km.
    pub x: f64,
    /// North coordinate, km.
    pub y: f64,
}

impl PlanePoint {
    /// Creates a plane point.
    pub const fn new(x: f64, y: f64) -> Self {
        PlanePoint { x, y }
    }
}

/// Lambert azimuthal equal-area projection centered at a tangent point.
///
/// Preserves area exactly: a region of `A` km² on the sphere maps to a
/// plane region of `A` km². The hex service grid (`leo-hexgrid`) is
/// constructed on this plane so that each grid cell corresponds to an
/// equal ground area, matching the paper's use of H3 resolution-5 cells
/// (~252.9 km² each).
#[derive(Debug, Clone, Copy)]
pub struct AzimuthalEqualArea {
    center: LatLng,
    sin_phi0: f64,
    cos_phi0: f64,
}

impl AzimuthalEqualArea {
    /// Creates a projection tangent at `center`.
    pub fn new(center: LatLng) -> Self {
        let (s, c) = center.lat_rad().sin_cos();
        AzimuthalEqualArea {
            center,
            sin_phi0: s,
            cos_phi0: c,
        }
    }

    /// Projects a geodetic coordinate to the plane.
    pub fn forward(&self, p: &LatLng) -> PlanePoint {
        let phi = p.lat_rad();
        let dl = (p.lng_deg() - self.center.lng_deg()).to_radians();
        let (sphi, cphi) = phi.sin_cos();
        let (sdl, cdl) = dl.sin_cos();
        let denom = 1.0 + self.sin_phi0 * sphi + self.cos_phi0 * cphi * cdl;
        if denom <= 1e-12 {
            // Antipode of the tangent point: projection is undefined;
            // map to a point on the rim (radius 2R) along +x.
            return PlanePoint::new(2.0 * EARTH_RADIUS_KM, 0.0);
        }
        let kp = (2.0 / denom).sqrt();
        PlanePoint::new(
            EARTH_RADIUS_KM * kp * cphi * sdl,
            EARTH_RADIUS_KM * kp * (self.cos_phi0 * sphi - self.sin_phi0 * cphi * cdl),
        )
    }

    /// Inverse-projects a plane point back to the sphere.
    pub fn inverse(&self, p: &PlanePoint) -> LatLng {
        let rho = (p.x * p.x + p.y * p.y).sqrt();
        if rho < 1e-12 {
            return self.center;
        }
        let c = 2.0 * ((rho / (2.0 * EARTH_RADIUS_KM)).clamp(-1.0, 1.0)).asin();
        let (sc, cc) = c.sin_cos();
        let phi = (cc * self.sin_phi0 + p.y * sc * self.cos_phi0 / rho)
            .clamp(-1.0, 1.0)
            .asin();
        let lng = self.center.lng_rad()
            + (p.x * sc).atan2(rho * self.cos_phi0 * cc - p.y * self.sin_phi0 * sc);
        LatLng::from_radians(phi, lng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sphere::great_circle_distance_km;

    const CONUS_CENTER: (f64, f64) = (39.5, -98.35);

    fn round_trip(proj: &AzimuthalEqualArea, pts: &[(f64, f64)], tol_km: f64) {
        for &(lat, lng) in pts {
            let p = LatLng::new(lat, lng);
            let back = proj.inverse(&proj.forward(&p));
            let err = great_circle_distance_km(&p, &back);
            assert!(err < tol_km, "({lat},{lng}) round-trip error {err} km");
        }
    }

    const US_POINTS: &[(f64, f64)] = &[
        (39.5, -98.35),
        (47.6, -122.3),
        (25.8, -80.2),
        (44.9, -68.7),
        (32.7, -117.2),
        (64.8, -147.7), // Fairbanks, AK
        (21.3, -157.9), // Honolulu, HI
    ];

    #[test]
    fn azimuthal_round_trip() {
        let proj = AzimuthalEqualArea::new(LatLng::new(CONUS_CENTER.0, CONUS_CENTER.1));
        round_trip(&proj, US_POINTS, 1e-6);
    }

    #[test]
    fn azimuthal_center_maps_to_origin() {
        let c = LatLng::new(CONUS_CENTER.0, CONUS_CENTER.1);
        let proj = AzimuthalEqualArea::new(c);
        let o = proj.forward(&c);
        assert!(o.x.abs() < 1e-9 && o.y.abs() < 1e-9);
    }

    #[test]
    fn azimuthal_preserves_area_of_small_quad() {
        // A ~1°x1° quad near the projection center: spherical area vs
        // planar shoelace area must agree to within numerical error.
        let c = LatLng::new(CONUS_CENTER.0, CONUS_CENTER.1);
        let proj = AzimuthalEqualArea::new(c);
        let lat0: f64 = 39.0;
        let lat1: f64 = 40.0;
        let lng0: f64 = -99.0;
        let lng1: f64 = -98.0;
        // Exact spherical area of a lat/lng quad: R² Δλ (sin φ1 − sin φ0).
        let exact = EARTH_RADIUS_KM
            * EARTH_RADIUS_KM
            * (lng1 - lng0).to_radians()
            * (lat1.to_radians().sin() - lat0.to_radians().sin());
        // Planar area via dense polygon + shoelace.
        let mut ring = Vec::new();
        let n = 100;
        for i in 0..n {
            let t = i as f64 / n as f64;
            ring.push(LatLng::new(lat0, lng0 + t * (lng1 - lng0)));
        }
        for i in 0..n {
            let t = i as f64 / n as f64;
            ring.push(LatLng::new(lat0 + t * (lat1 - lat0), lng1));
        }
        for i in 0..n {
            let t = i as f64 / n as f64;
            ring.push(LatLng::new(lat1, lng1 - t * (lng1 - lng0)));
        }
        for i in 0..n {
            let t = i as f64 / n as f64;
            ring.push(LatLng::new(lat1 - t * (lat1 - lat0), lng0));
        }
        let pts: Vec<PlanePoint> = ring.iter().map(|p| proj.forward(p)).collect();
        let mut area2 = 0.0;
        for i in 0..pts.len() {
            let j = (i + 1) % pts.len();
            area2 += pts[i].x * pts[j].y - pts[j].x * pts[i].y;
        }
        let planar = (area2 / 2.0).abs();
        let rel = (planar - exact).abs() / exact;
        assert!(rel < 1e-4, "planar {planar} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn azimuthal_antipode_is_finite() {
        let proj = AzimuthalEqualArea::new(LatLng::new(10.0, 20.0));
        let anti = LatLng::new(-10.0, -160.0);
        let p = proj.forward(&anti);
        assert!(p.x.is_finite() && p.y.is_finite());
        // The rim of the projection is at radius 2R.
        let rho = (p.x * p.x + p.y * p.y).sqrt();
        assert!((rho - 2.0 * EARTH_RADIUS_KM).abs() < 1.0);
    }
}

//! Circular Keplerian orbits.
//!
//! Starlink shells are circular to within a few kilometers, so the
//! propagator models exactly the circular two-body case: constant
//! angular rate along the orbit plane, defined by inclination, RAAN,
//! and an initial argument of latitude. J2 and drag perturbations shift
//! RAAN/phase slowly but leave the *statistical* geometry (latitude
//! density, coverage fractions) unchanged, which is all the model
//! consumes; DESIGN.md notes this simplification.

use crate::frames;
use leo_geomath::constants::{EARTH_MU_KM3_S2, EARTH_RADIUS_KM};
use leo_geomath::{LatLng, Vec3};

/// A circular orbit: semi-major axis (Earth radius + altitude),
/// inclination, right ascension of the ascending node, and the argument
/// of latitude at epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircularOrbit {
    altitude_km: f64,
    pub(crate) inclination_rad: f64,
    pub(crate) raan_rad: f64,
    pub(crate) arg_lat_epoch_rad: f64,
}

/// ECI position on a circular orbit of radius `r` from the sine/cosine
/// pairs of the argument of latitude `u`, inclination `i` and RAAN `Ω`:
/// the in-plane position rotated by `i`, then by `Ω`. Shared by
/// [`CircularOrbit::position_eci`] and the hoisted
/// [`crate::ephemeris::WalkerEphemeris`], so both evaluate the same
/// floating-point operations in the same order.
#[inline]
pub(crate) fn eci_position(
    r: f64,
    (su, cu): (f64, f64),
    (si, ci): (f64, f64),
    (so, co): (f64, f64),
) -> Vec3 {
    Vec3::new(
        r * (co * cu - so * su * ci),
        r * (so * cu + co * su * ci),
        r * (su * si),
    )
}

impl CircularOrbit {
    /// Creates a circular orbit. Angles in degrees, altitude above the
    /// spherical Earth in km.
    pub fn new(altitude_km: f64, inclination_deg: f64, raan_deg: f64, arg_lat_deg: f64) -> Self {
        assert!(altitude_km > 0.0, "altitude must be positive");
        CircularOrbit {
            altitude_km,
            inclination_rad: inclination_deg.to_radians(),
            raan_rad: raan_deg.to_radians(),
            arg_lat_epoch_rad: arg_lat_deg.to_radians(),
        }
    }

    /// Orbit altitude above the spherical Earth, km.
    pub fn altitude_km(&self) -> f64 {
        self.altitude_km
    }

    /// Orbit radius (from Earth center), km.
    pub fn radius_km(&self) -> f64 {
        EARTH_RADIUS_KM + self.altitude_km
    }

    /// Orbital period, seconds (`T = 2π √(a³/μ)`).
    pub fn period_s(&self) -> f64 {
        let a = self.radius_km();
        2.0 * std::f64::consts::PI * (a * a * a / EARTH_MU_KM3_S2).sqrt()
    }

    /// Mean motion, radians per second.
    pub fn mean_motion_rad_s(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.period_s()
    }

    /// Orbital speed, km/s (`v = √(μ/a)` for circular orbits).
    pub fn speed_km_s(&self) -> f64 {
        (EARTH_MU_KM3_S2 / self.radius_km()).sqrt()
    }

    /// ECI position at `t_s` seconds past epoch, km.
    pub fn position_eci(&self, t_s: f64) -> Vec3 {
        let u = self.arg_lat_epoch_rad + self.mean_motion_rad_s() * t_s;
        eci_position(
            self.radius_km(),
            u.sin_cos(),
            self.inclination_rad.sin_cos(),
            self.raan_rad.sin_cos(),
        )
    }

    /// Sub-satellite point (spherical Earth) at `t_s` seconds past epoch.
    pub fn subsatellite(&self, t_s: f64) -> LatLng {
        frames::subsatellite_point(frames::eci_to_ecef(self.position_eci(t_s), t_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn starlink_orbit() -> CircularOrbit {
        CircularOrbit::new(550.0, 53.0, 30.0, 0.0)
    }

    #[test]
    fn period_of_550km_orbit_is_about_95_minutes() {
        let t = starlink_orbit().period_s();
        assert!((t / 60.0 - 95.6).abs() < 0.5, "period {} min", t / 60.0);
    }

    #[test]
    fn speed_of_550km_orbit_is_about_7_6_km_s() {
        let v = starlink_orbit().speed_km_s();
        assert!((v - 7.59).abs() < 0.05, "speed {v}");
    }

    #[test]
    fn radius_is_constant() {
        let o = starlink_orbit();
        for t in [0.0, 100.0, 2000.0, 5000.0] {
            assert!((o.position_eci(t).norm() - o.radius_km()).abs() < 1e-6);
        }
    }

    #[test]
    fn orbit_is_periodic() {
        let o = starlink_orbit();
        let p0 = o.position_eci(0.0);
        let p1 = o.position_eci(o.period_s());
        assert!((p0 - p1).norm() < 1e-6);
    }

    #[test]
    fn max_subsatellite_latitude_equals_inclination() {
        let o = starlink_orbit();
        let mut max_lat: f64 = 0.0;
        let steps = 2000;
        for k in 0..steps {
            let t = o.period_s() * k as f64 / steps as f64;
            max_lat = max_lat.max(o.subsatellite(t).lat_deg().abs());
        }
        assert!((max_lat - 53.0).abs() < 0.1, "max lat {max_lat}");
    }

    #[test]
    fn ascending_node_crosses_equator_at_raan() {
        // At epoch with arg_lat = 0, the satellite is at the ascending
        // node: latitude 0, ECI longitude = RAAN (frames coincide at t=0).
        let o = CircularOrbit::new(550.0, 53.0, 40.0, 0.0);
        let p = o.subsatellite(0.0);
        assert!(p.lat_deg().abs() < 1e-9);
        assert!((p.lng_deg() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn polar_orbit_passes_over_poles() {
        let o = CircularOrbit::new(560.0, 90.0, 0.0, 0.0);
        let quarter = o.period_s() / 4.0;
        let p = o.position_eci(quarter);
        // A quarter period after the ascending node, a polar orbit is
        // over the north pole (in ECI).
        assert!((p.z - o.radius_km()).abs() < 1e-6);
    }
}

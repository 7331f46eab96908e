//! Hoisted propagation of a whole Walker shell.
//!
//! The Monte-Carlo kernels ([`crate::coverage::coverage`],
//! [`crate::density::empirical_density_factor`]) and the gateway-path
//! search ([`crate::isl::user_gateway_path`]) propagate every satellite
//! of a shell to the same instants. Through [`CircularOrbit`] each
//! satellite re-derives its period, mean motion, radius and the sines
//! and cosines of its inclination and RAAN on every call, and each ECEF
//! conversion re-evaluates the Earth rotation. [`WalkerEphemeris`]
//! evaluates the per-shell and per-satellite invariants once, and
//! [`Epoch`] evaluates the Earth rotation once per instant.
//!
//! ## Bit-identity contract
//!
//! Every hoisted value is produced by the expression `CircularOrbit`
//! uses, read from the very orbits [`WalkerShell::satellites`] lists,
//! and [`Epoch::ecef`] runs the kernels `position_eci` and `eci_to_ecef`
//! share. So [`Epoch::ecef`] and [`Epoch::subsatellite`] equal
//! `eci_to_ecef(orbit.position_eci(t), t)` and `orbit.subsatellite(t)`
//! to the last bit (property-tested in `tests/proptests.rs`).
//!
//! ## Prefilter positions
//!
//! Every satellite of a shell shares one mean motion `n`, so
//! `u = u0 + n·t` and the angle-addition formula give `(sin u, cos u)`
//! from the hoisted `(sin u0, cos u0)` and one `(sin nt, cos nt)` per
//! instant: four multiplies, no transcendental. `Epoch::sin_lat` and
//! `Epoch::ecef_approx` use them. They differ from the exact values by
//! a few ulp of the phase `n·t` — under 1e-12 while `|n·t|` stays below
//! `APPROX_PHASE_LIMIT_RAD` (about 100 days of LEO motion); beyond it
//! they fall back to the exact `u.sin_cos()`.
//!
//! On a circular orbit the sub-satellite latitude obeys
//! `sin φ = sin i · sin u` exactly, independent of RAAN and Earth
//! rotation. The exact latitude goes through the full 3-D position, a
//! norm and an `asin`, so `Epoch::sin_lat` and the sine of the exact
//! latitude differ by rounding only. A `SinLatBand` widens a latitude
//! band by `SIN_LAT_MARGIN` = 1e-9 in sine space, three orders of
//! magnitude beyond that rounding. A satellite it rejects is therefore
//! outside the band under the exact test too. Its inner band narrows
//! the band by the same margin, so a satellite inside that one is in
//! the band under the exact test too, and only satellites between the
//! two need the exact path.

use crate::frames;
use crate::propagate::{eci_position, CircularOrbit};
use crate::walker::WalkerShell;
use leo_geomath::{LatLng, Vec3};

/// Sine-space slack of the latitude-band prefilters: far above the
/// rounding gap between [`Epoch::sin_lat`] and the sine of the
/// propagated latitude, far below any band width the kernels use.
pub const SIN_LAT_MARGIN: f64 = 1e-9;

/// Largest phase `|n·t|` (radians) for which [`Epoch`] derives its
/// prefilter positions by angle addition; the phase's own rounding
/// (1.8e-12 at the limit) must stay far below [`SIN_LAT_MARGIN`].
pub(crate) const APPROX_PHASE_LIMIT_RAD: f64 = 1e4;

/// One Walker shell's propagation invariants, evaluated once.
///
/// Satellites are indexed plane-major (`plane × S + slot`), the order of
/// [`WalkerShell::satellites`] and of the ISL topology.
#[derive(Debug, Clone)]
pub struct WalkerEphemeris {
    altitude_km: f64,
    radius_km: f64,
    period_s: f64,
    mean_motion_rad_s: f64,
    /// `(sin i, cos i)`, shared by the shell.
    inclination: (f64, f64),
    /// `(sin Ω, cos Ω)` per satellite, evaluated once per plane.
    raan: Vec<(f64, f64)>,
    /// Argument of latitude at epoch per satellite, radians.
    arg_lat_epoch_rad: Vec<f64>,
    /// `(sin u0, cos u0)` per satellite, for the prefilter positions.
    arg_lat_epoch: Vec<(f64, f64)>,
}

impl WalkerEphemeris {
    /// Hoists the invariants of every satellite of `shell`.
    pub fn new(shell: &WalkerShell) -> Self {
        // Shell-wide values from the constructor every satellite uses.
        let orbit = CircularOrbit::new(shell.altitude_km, shell.inclination_deg, 0.0, 0.0);
        let n = shell.total() as usize;
        let mut raan: Vec<(f64, f64)> = Vec::with_capacity(n);
        let mut arg_lat_epoch_rad = Vec::with_capacity(n);
        let mut arg_lat_epoch = Vec::with_capacity(n);
        for sat in shell.satellites_iter() {
            let o = sat.orbit;
            let plane_raan = match raan.last() {
                Some(&prev) if sat.slot != 0 => prev,
                _ => o.raan_rad.sin_cos(),
            };
            raan.push(plane_raan);
            arg_lat_epoch_rad.push(o.arg_lat_epoch_rad);
            arg_lat_epoch.push(o.arg_lat_epoch_rad.sin_cos());
        }
        WalkerEphemeris {
            altitude_km: orbit.altitude_km(),
            radius_km: orbit.radius_km(),
            period_s: orbit.period_s(),
            mean_motion_rad_s: orbit.mean_motion_rad_s(),
            inclination: orbit.inclination_rad.sin_cos(),
            raan,
            arg_lat_epoch_rad,
            arg_lat_epoch,
        }
    }

    /// Number of satellites.
    pub fn len(&self) -> usize {
        self.arg_lat_epoch_rad.len()
    }

    /// Always false: Walker shells are never empty.
    pub fn is_empty(&self) -> bool {
        self.arg_lat_epoch_rad.is_empty()
    }

    /// Shell altitude above the spherical Earth, km.
    pub(crate) fn altitude_km(&self) -> f64 {
        self.altitude_km
    }

    /// Orbit radius from the Earth's centre, km.
    pub(crate) fn radius_km(&self) -> f64 {
        self.radius_km
    }

    /// Orbital period, seconds.
    pub(crate) fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Argument of latitude of satellite `i` at `t_s`, radians.
    #[inline]
    fn arg_lat_rad(&self, i: usize, t_s: f64) -> f64 {
        self.arg_lat_epoch_rad[i] + self.mean_motion_rad_s * t_s
    }

    /// The shell at instant `t_s`, with the Earth rotation and the
    /// orbital phase evaluated.
    pub fn at(&self, t_s: f64) -> Epoch<'_> {
        let phase = self.mean_motion_rad_s * t_s;
        Epoch {
            eph: self,
            t_s,
            earth: frames::earth_rotation_angle_rad(t_s).sin_cos(),
            phase: (phase.abs() <= APPROX_PHASE_LIMIT_RAD).then(|| phase.sin_cos()),
        }
    }
}

/// A [`WalkerEphemeris`] at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Epoch<'a> {
    eph: &'a WalkerEphemeris,
    t_s: f64,
    /// `(sin θ, cos θ)` of the Earth rotation angle at `t_s`.
    earth: (f64, f64),
    /// `(sin nt, cos nt)` of the orbital phase, `None` beyond
    /// [`APPROX_PHASE_LIMIT_RAD`].
    phase: Option<(f64, f64)>,
}

impl Epoch<'_> {
    /// `(sin u, cos u)` of satellite `i` for the prefilters: by angle
    /// addition, within rounding of `u.sin_cos()` (see the module docs).
    #[inline]
    fn arg_lat_sin_cos_approx(&self, i: usize) -> (f64, f64) {
        match self.phase {
            Some((sp, cp)) => {
                let (s0, c0) = self.eph.arg_lat_epoch[i];
                (s0 * cp + c0 * sp, c0 * cp - s0 * sp)
            }
            None => self.eph.arg_lat_rad(i, self.t_s).sin_cos(),
        }
    }

    /// `sin i · sin u` of satellite `i`: the sine of its sub-satellite
    /// latitude up to rounding, for [`SinLatBand`] tests.
    #[inline]
    pub(crate) fn sin_lat(&self, i: usize) -> f64 {
        self.eph.inclination.0 * self.arg_lat_sin_cos_approx(i).0
    }

    /// ECEF position of satellite `i` within about 1e-8 km of
    /// [`Epoch::ecef`], for prefilters: no transcendental per call.
    #[inline]
    pub(crate) fn ecef_approx(&self, i: usize) -> Vec3 {
        let e = self.eph;
        let eci = eci_position(
            e.radius_km,
            self.arg_lat_sin_cos_approx(i),
            e.inclination,
            e.raan[i],
        );
        frames::rotate_eci_to_ecef(eci, self.earth)
    }

    /// ECEF position of satellite `i`, km; bit-identical to
    /// `eci_to_ecef(orbit.position_eci(t), t)`.
    #[inline]
    pub fn ecef(&self, i: usize) -> Vec3 {
        let e = self.eph;
        let u = e.arg_lat_rad(i, self.t_s);
        let eci = eci_position(e.radius_km, u.sin_cos(), e.inclination, e.raan[i]);
        frames::rotate_eci_to_ecef(eci, self.earth)
    }

    /// Sub-satellite point of satellite `i`; bit-identical to
    /// `orbit.subsatellite(t)`.
    pub fn subsatellite(&self, i: usize) -> LatLng {
        frames::subsatellite_point(self.ecef(i))
    }
}

/// Bounds `[lo, hi]` on the sine of latitude. [`SinLatBand::new`]
/// widens a latitude band by [`SIN_LAT_MARGIN`], so a satellite whose
/// [`Epoch::sin_lat`] it does not contain is certainly outside the band;
/// [`SinLatBand::inner`] narrows it by as much, so a satellite whose
/// `sin_lat` that one contains is certainly inside. Bounds outside ±90°
/// clamp to the poles, where the sine is still monotone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SinLatBand {
    lo: f64,
    hi: f64,
}

impl SinLatBand {
    /// The band between latitudes `lo_deg` and `hi_deg`, widened.
    pub(crate) fn new(lo_deg: f64, hi_deg: f64) -> Self {
        let sin = |deg: f64| deg.clamp(-90.0, 90.0).to_radians().sin();
        SinLatBand {
            lo: sin(lo_deg) - SIN_LAT_MARGIN,
            hi: sin(hi_deg) + SIN_LAT_MARGIN,
        }
    }

    /// The same band narrowed by [`SIN_LAT_MARGIN`] instead of widened:
    /// the bounds move inward by twice the margin. Empty when the band
    /// is thinner than that.
    pub(crate) fn inner(&self) -> Self {
        SinLatBand {
            lo: self.lo + 2.0 * SIN_LAT_MARGIN,
            hi: self.hi - 2.0 * SIN_LAT_MARGIN,
        }
    }

    /// Whether the bounds hold this latitude sine.
    #[inline]
    pub(crate) fn contains(&self, sin_lat: f64) -> bool {
        sin_lat >= self.lo && sin_lat <= self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ephemeris_matches_each_orbit_bit_for_bit() {
        for shell in [
            WalkerShell::new(550.0, 53.0, 6, 5, 1),
            WalkerShell::new(560.0, 97.6, 4, 7, 1),
        ] {
            let eph = WalkerEphemeris::new(&shell);
            let sats = shell.satellites();
            assert_eq!(eph.len(), sats.len());
            assert_eq!(eph.period_s().to_bits(), sats[0].orbit.period_s().to_bits());
            for t in [0.0, 17.5, 5731.0, 86_400.0 * 3.3] {
                let epoch = eph.at(t);
                for (i, s) in sats.iter().enumerate() {
                    let want = frames::eci_to_ecef(s.orbit.position_eci(t), t);
                    let got = epoch.ecef(i);
                    assert_eq!(
                        [got.x, got.y, got.z].map(f64::to_bits),
                        [want.x, want.y, want.z].map(f64::to_bits),
                        "sat {i} t {t}"
                    );
                    assert_eq!(epoch.subsatellite(i), s.orbit.subsatellite(t));
                }
            }
        }
    }

    #[test]
    fn sin_lat_tracks_the_propagated_latitude() {
        let shell = WalkerShell::new(550.0, 53.0, 8, 9, 3);
        let eph = WalkerEphemeris::new(&shell);
        for k in 0..40 {
            let epoch = eph.at(k as f64 * 123.4);
            for i in 0..eph.len() {
                let exact = epoch.subsatellite(i).lat_rad().sin();
                assert!((epoch.sin_lat(i) - exact).abs() < 1e-12, "sat {i}");
            }
        }
    }

    #[test]
    fn prefilter_positions_stay_within_their_error_budget() {
        let shell = WalkerShell::new(550.0, 53.0, 8, 9, 3);
        let eph = WalkerEphemeris::new(&shell);
        // Up to the phase limit, and past it (the exact fallback).
        let limit_s = APPROX_PHASE_LIMIT_RAD / (2.0 * std::f64::consts::PI / eph.period_s());
        for t in [0.0, 731.0, 86_400.0, limit_s * 0.999, limit_s * 1.001, 1e9] {
            let epoch = eph.at(t);
            for i in 0..eph.len() {
                let d = (epoch.ecef_approx(i) - epoch.ecef(i)).norm();
                assert!(d < 1e-6, "sat {i} t {t}: {d} km");
            }
        }
    }

    #[test]
    fn sin_lat_band_widens_and_clamps() {
        let band = SinLatBand::new(30.0, 40.0);
        assert!(band.contains(35f64.to_radians().sin()));
        assert!(band.contains(30f64.to_radians().sin()));
        assert!(!band.contains(29.9f64.to_radians().sin()));
        assert!(!band.contains(40.1f64.to_radians().sin()));
        let polar = SinLatBand::new(80.0, 95.0);
        assert!(polar.contains(1.0));
        assert!(!SinLatBand::new(f64::NAN, 10.0).contains(0.0));
    }

    #[test]
    fn inner_band_narrows_by_the_margin() {
        let band = SinLatBand::new(30.0, 40.0);
        let inner = band.inner();
        let (lo, hi) = (30f64.to_radians().sin(), 40f64.to_radians().sin());
        assert!(inner.contains(35f64.to_radians().sin()));
        assert!(inner.contains(lo + 2.0 * SIN_LAT_MARGIN));
        assert!(!inner.contains(lo + SIN_LAT_MARGIN / 2.0));
        assert!(!inner.contains(hi - SIN_LAT_MARGIN / 2.0));
        assert!(band.contains(hi + SIN_LAT_MARGIN / 2.0));
        // The pole stays in the margin: never certain.
        assert!(!SinLatBand::new(80.0, 95.0).inner().contains(1.0));
        // Thinner than twice the margin: nothing is certain.
        let thin = SinLatBand::new(30.0, 30.0).inner();
        assert!(!thin.contains(lo));
        assert!(!SinLatBand::new(f64::NAN, 10.0).inner().contains(0.0));
    }
}

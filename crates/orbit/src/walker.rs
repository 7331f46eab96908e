//! Walker-Delta constellations.
//!
//! A Walker-Delta constellation `i : T/P/F` distributes `T` satellites
//! over `P` equally spaced orbital planes of common inclination `i`,
//! with `S = T/P` satellites per plane and a phase offset of
//! `F · 360°/T` between satellites in adjacent planes. Starlink's
//! shells follow this pattern; the presets below encode the FCC-filed
//! Gen1/Gen2 geometry at the fidelity the paper's analysis consumes
//! (inclination, altitude, satellite count).

use crate::propagate::CircularOrbit;

/// One satellite of a shell: its orbit plus its slot within the plane.
#[derive(Debug, Clone, Copy)]
pub struct Satellite {
    /// Orbit of this satellite.
    pub orbit: CircularOrbit,
    /// Slot index within the plane, `0..sats_per_plane`.
    pub slot: u32,
}

/// A Walker-Delta shell.
#[derive(Debug, Clone, Copy)]
pub struct WalkerShell {
    /// Altitude above the spherical Earth, km.
    pub altitude_km: f64,
    /// Inclination, degrees.
    pub inclination_deg: f64,
    /// Number of orbital planes `P`.
    pub planes: u32,
    /// Satellites per plane `S`.
    pub sats_per_plane: u32,
    /// Walker phasing factor `F` (`0 ≤ F < P`).
    pub phasing: u32,
}

impl WalkerShell {
    /// Creates a shell, validating the Walker parameters.
    pub fn new(
        altitude_km: f64,
        inclination_deg: f64,
        planes: u32,
        sats_per_plane: u32,
        phasing: u32,
    ) -> Self {
        assert!(planes > 0 && sats_per_plane > 0, "empty shell");
        assert!(phasing < planes, "phasing must be < planes");
        WalkerShell {
            altitude_km,
            inclination_deg,
            planes,
            sats_per_plane,
            phasing,
        }
    }

    /// Total satellites `T = P·S`.
    pub fn total(&self) -> u32 {
        self.planes * self.sats_per_plane
    }

    /// Enumerates the shell's satellites with their epoch geometry.
    pub fn satellites(&self) -> Vec<Satellite> {
        self.satellites_iter().collect()
    }

    /// [`WalkerShell::satellites`] without collecting: plane-major,
    /// slot-minor.
    pub(crate) fn satellites_iter(&self) -> impl Iterator<Item = Satellite> + '_ {
        let t = self.total();
        (0..self.planes).flat_map(move |plane| {
            let raan = 360.0 * plane as f64 / self.planes as f64;
            (0..self.sats_per_plane).map(move |slot| {
                let arg_lat = 360.0 * slot as f64 / self.sats_per_plane as f64
                    + 360.0 * (self.phasing as f64) * (plane as f64) / (t as f64);
                Satellite {
                    orbit: CircularOrbit::new(
                        self.altitude_km,
                        self.inclination_deg,
                        raan,
                        arg_lat,
                    ),
                    slot,
                }
            })
        })
    }

    /// The primary Starlink Gen1 shell: 53.0°, 550 km, 72 planes × 22
    /// satellites (1584 total) — the workhorse shell over the
    /// continental US.
    pub fn starlink_gen1_shell1() -> Self {
        WalkerShell::new(550.0, 53.0, 72, 22, 17)
    }

    /// An approximation of the constellation size the paper calls
    /// "current": ~8000 satellites, dominated by 53°-inclined shells.
    /// Used only for the `orbit-validate` experiment; Table 2's outputs
    /// do not depend on it.
    pub fn starlink_current_2025() -> Vec<Self> {
        vec![
            WalkerShell::new(550.0, 53.0, 72, 22, 17), // 1584
            WalkerShell::new(540.0, 53.2, 72, 22, 17), // 1584
            WalkerShell::new(570.0, 70.0, 36, 20, 11), // 720
            WalkerShell::new(560.0, 97.6, 10, 50, 1),  // 500
            WalkerShell::new(525.0, 53.0, 84, 28, 23), // 2352 (Gen2 partial)
            WalkerShell::new(530.0, 43.0, 60, 21, 13), // 1260 (Gen2 partial)
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_count() {
        let s = WalkerShell::starlink_gen1_shell1();
        assert_eq!(s.total(), 1584);
        assert_eq!(s.satellites().len(), 1584);
    }

    #[test]
    fn current_constellation_is_about_8000() {
        let n: u32 = WalkerShell::starlink_current_2025()
            .iter()
            .map(|s| s.total())
            .sum();
        assert!((7500..8500).contains(&n), "total {n}");
    }

    #[test]
    fn planes_are_equally_spaced_in_raan() {
        let s = WalkerShell::new(550.0, 53.0, 8, 3, 1);
        // Plane-major order: plane p holds satellites 3p..3p+3, all at
        // RAAN 45°·p.
        for (i, sat) in s.satellites().iter().enumerate() {
            let expect = (45.0 * (i / 3) as f64).to_radians();
            assert!((sat.orbit.raan_rad - expect).abs() < 1e-12, "satellite {i}");
        }
    }

    #[test]
    fn all_satellites_have_distinct_epoch_positions() {
        let s = WalkerShell::new(550.0, 53.0, 6, 6, 1);
        let sats = s.satellites();
        let mut positions: Vec<(i64, i64, i64)> = sats
            .iter()
            .map(|x| {
                let p = x.orbit.position_eci(0.0);
                ((p.x * 1e3) as i64, (p.y * 1e3) as i64, (p.z * 1e3) as i64)
            })
            .collect();
        positions.sort_unstable();
        positions.dedup();
        assert_eq!(positions.len(), 36);
    }

    #[test]
    fn phasing_must_be_valid() {
        let result = std::panic::catch_unwind(|| WalkerShell::new(550.0, 53.0, 4, 4, 4));
        assert!(result.is_err());
    }

    #[test]
    fn shell_satellites_stay_within_inclination_band() {
        let s = WalkerShell::new(550.0, 53.0, 4, 4, 1);
        for sat in s.satellites() {
            for k in 0..20 {
                let t = sat.orbit.period_s() * k as f64 / 20.0;
                assert!(sat.orbit.subsatellite(t).lat_deg().abs() <= 53.0 + 0.01);
            }
        }
    }
}

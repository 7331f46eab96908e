//! Latitude-dependent satellite density of inclined constellations.
//!
//! This module is the geometric heart of the constellation-sizing model
//! (paper §3.0.2, our DESIGN.md §4).
//!
//! A satellite on a circular orbit of inclination `i` has sub-satellite
//! latitude `φ(u)` with `sin φ = sin i · sin u`, where the argument of
//! latitude `u` advances uniformly in time. The time-averaged
//! probability density of finding the satellite in latitude band `dφ`
//! is therefore
//!
//! ```text
//! f(φ) = cos φ / (π √(sin²i − sin²φ)),     |φ| < i
//! ```
//!
//! Spreading that over the latitude band's area `2π R² cos φ dφ` (RAAN
//! is uniform for a Walker shell) gives the surface density of
//! sub-satellite points for an `N`-satellite shell:
//!
//! ```text
//! σ(φ) = N / (2π² R² √(sin²i − sin²φ)) = N · d(φ, i) / A_earth
//! ```
//!
//! with the dimensionless **density factor**
//!
//! ```text
//! d(φ, i) = 2 / (π √(sin²i − sin²φ)).
//! ```
//!
//! `d` integrates to 1 over the sphere (satellites are *somewhere*),
//! equals `2/(π sin i)` at the equator, and diverges at `φ → i` — the
//! well-known density pile-up at the inclination limit that makes
//! mid-latitudes (like the continental US under Starlink's 53° shells)
//! satellite-rich. Inverting `σ` yields the constellation size needed
//! to sustain a required density at one latitude — exactly the paper's
//! "work backwards from the satellite density at the peak demand cell".

use crate::ephemeris::{SinLatBand, WalkerEphemeris};
use crate::walker::WalkerShell;
use leo_geomath::constants::EARTH_SURFACE_AREA_KM2;
use leo_parallel::par_map;

/// Dimensionless sub-satellite density factor `d(φ, i)` of an inclined
/// Walker shell at latitude `lat_deg`; `None` when the latitude is at or
/// above the inclination (never overflown).
pub fn density_factor(lat_deg: f64, inclination_deg: f64) -> Option<f64> {
    let si = inclination_deg.to_radians().sin();
    let sp = lat_deg.to_radians().sin();
    let det = si * si - sp * sp;
    if det <= 0.0 {
        return None;
    }
    Some(2.0 / (std::f64::consts::PI * det.sqrt()))
}

/// Total constellation size (satellites) required so that an
/// `inclination_deg` Walker shell sustains a time-averaged sub-satellite
/// density of `required_sats_per_km2` at latitude `lat_deg`.
///
/// Returns `None` for latitudes the shell never overflies.
pub fn constellation_size_for_density(
    required_sats_per_km2: f64,
    lat_deg: f64,
    inclination_deg: f64,
) -> Option<f64> {
    let d = density_factor(lat_deg, inclination_deg)?;
    Some(constellation_size_for_factor(required_sats_per_km2, d))
}

/// [`constellation_size_for_density`] at a latitude whose
/// [`density_factor`] `d` is already known: `required × A_earth / d`.
/// Callers sizing many requirements at one latitude evaluate `d` once.
#[inline]
pub fn constellation_size_for_factor(required_sats_per_km2: f64, d: f64) -> f64 {
    required_sats_per_km2 * EARTH_SURFACE_AREA_KM2 / d
}

/// Empirical density factor of a shell at a latitude, estimated by
/// propagating every satellite over `time_samples` instants spanning one
/// orbital period and counting sub-satellite points in a band of
/// half-width `band_deg` around `lat_deg`.
///
/// Converges to [`density_factor`] as samples grow; the orbit-validate
/// experiment and tests compare the two.
///
/// Each sample first takes a `sin φ = sin i · sin u` latitude test with
/// no transcendental per sample, against the band's sine bounds widened
/// and narrowed by a margin; only samples between the two propagate in
/// 3-D and run the exact band test, so the in-band count is the one a
/// full propagation of every sample gives (see [`crate::ephemeris`]).
///
/// The band clamps to the poles: a band reaching past ±90° counts the
/// samples up to the pole and divides by the area up to the pole.
pub fn empirical_density_factor(
    shell: &WalkerShell,
    lat_deg: f64,
    band_deg: f64,
    time_samples: u32,
) -> f64 {
    assert!(band_deg > 0.0 && time_samples > 0);
    let _span = leo_obs::span!("orbit.mc_density");
    let eph = WalkerEphemeris::new(shell);
    leo_obs::metrics::counter_add("orbit.mc_samples", time_samples as u64 * eph.len() as u64);
    let n = eph.len() as f64;
    let period = eph.period_s();
    let band = SinLatBand::new(lat_deg - band_deg, lat_deg + band_deg);
    let certain = band.inner();
    // Time samples are independent; hits are integer counts, so the
    // parallel fold is exact and thread-count-invariant.
    let samples: Vec<u32> = (0..time_samples).collect();
    let per_sample: Vec<(u64, u64)> = par_map(&samples, |_, &k| {
        let epoch = eph.at(period * k as f64 / time_samples as f64);
        let (mut in_band, mut exact) = (0u64, 0u64);
        for i in 0..eph.len() {
            let sin_lat = epoch.sin_lat(i);
            if !band.contains(sin_lat) {
                continue;
            }
            if certain.contains(sin_lat) {
                in_band += 1;
                continue;
            }
            exact += 1;
            let lat = epoch.subsatellite(i).lat_deg();
            if (lat - lat_deg).abs() <= band_deg {
                in_band += 1;
            }
        }
        (in_band, exact)
    });
    let (in_band, exact) = per_sample
        .iter()
        .fold((0, 0), |(a, b), &(c, d)| (a + c, b + d));
    leo_obs::metrics::counter_add("orbit.mc_exact", exact);
    leo_obs::metrics::counter_add("orbit.mc_in_band", in_band);
    let frac = in_band as f64 / (n * time_samples as f64);
    // Convert band occupancy to a density factor: the band covers
    // area 2πR²·(sin(φ+Δ) − sin(φ−Δ)), a fraction (sin(φ+Δ) − sin(φ−Δ))/2
    // of Earth's surface, with both edges clamped to the poles as the
    // count is.
    let sin_edge = |deg: f64| deg.clamp(-90.0, 90.0).to_radians().sin();
    let lo = sin_edge(lat_deg - band_deg);
    let hi = sin_edge(lat_deg + band_deg);
    let band_area_fraction = (hi - lo) / 2.0;
    frac / band_area_fraction
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equator_density_closed_form() {
        let d = density_factor(0.0, 53.0).unwrap();
        let expect = 2.0 / (std::f64::consts::PI * 53f64.to_radians().sin());
        assert!((d - expect).abs() < 1e-12);
    }

    #[test]
    fn density_grows_toward_inclination() {
        let mut prev = 0.0;
        for lat in [0.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
            let d = density_factor(lat, 53.0).unwrap();
            assert!(d > prev, "lat {lat}");
            prev = d;
        }
    }

    #[test]
    fn unreachable_latitudes_are_none() {
        assert!(density_factor(53.0, 53.0).is_none());
        assert!(density_factor(60.0, 53.0).is_none());
        assert!(density_factor(-53.0, 53.0).is_none());
    }

    #[test]
    fn density_factor_integrates_to_one() {
        // ∫ d(φ) · (cos φ / 2) dφ over [−i, i] = 1 (satellites are
        // always somewhere on the sphere).
        let incl = 53.0f64;
        let steps = 200_000;
        let lo = -incl.to_radians() + 1e-9;
        let hi = incl.to_radians() - 1e-9;
        let h = (hi - lo) / steps as f64;
        let mut acc = 0.0;
        for k in 0..steps {
            let phi = lo + (k as f64 + 0.5) * h;
            if let Some(d) = density_factor(phi.to_degrees(), incl) {
                acc += d * phi.cos() / 2.0 * h;
            }
        }
        assert!((acc - 1.0).abs() < 1e-3, "integral {acc}");
    }

    #[test]
    fn paper_density_factor_at_peak_cell_latitude() {
        // The reverse-engineered Table 2 constant corresponds to
        // d ≈ 1.21 at the peak cell; our synthetic peak cell sits near
        // 37°N where d(37°, 53°) ≈ 1.21.
        let d = density_factor(37.0, 53.0).unwrap();
        assert!((d - 1.21).abs() < 0.02, "d {d}");
    }

    #[test]
    fn size_for_density_inverts_density() {
        // If N sats give density σ at φ, then asking for σ returns N.
        let n = 1584.0;
        let lat = 39.5;
        let d = density_factor(lat, 53.0).unwrap();
        let sigma = n * d / EARTH_SURFACE_AREA_KM2;
        let back = constellation_size_for_density(sigma, lat, 53.0).unwrap();
        assert!((back - n).abs() < 1e-6);
    }

    #[test]
    fn empirical_density_matches_analytic() {
        // A modest shell and coarse sampling suffice for ~2% agreement
        // away from the inclination edge.
        let shell = WalkerShell::new(550.0, 53.0, 24, 16, 5);
        for lat in [0.0f64, 20.0, 37.0] {
            let analytic = density_factor(lat, 53.0).unwrap();
            let empirical = empirical_density_factor(&shell, lat, 2.0, 211);
            let rel = (empirical - analytic).abs() / analytic;
            assert!(rel < 0.05, "lat {lat}: empirical {empirical} vs {analytic}");
        }
    }

    #[test]
    fn band_past_the_pole_divides_by_the_area_up_to_the_pole() {
        // [87°, 91°] clamps to [87°, 90°], which holds 6° of every 360°
        // of a polar orbit: the factor is (1/60) / ((1 − sin 87°)/2),
        // not the 12% larger value the unclamped sin 91° edge gives.
        let shell = WalkerShell::new(550.0, 90.0, 12, 12, 5);
        let got = empirical_density_factor(&shell, 89.0, 2.0, 3593);
        let want = (6.0 / 360.0) / ((1.0 - 87f64.to_radians().sin()) / 2.0);
        assert!((want - 24.3).abs() < 0.05, "{want}");
        assert!((got - want).abs() / want < 0.01, "{got} vs {want}");
    }

    #[test]
    fn empirical_density_is_longitude_uniform() {
        // The density derivation assumes RAAN-uniformity; verify that a
        // Walker shell's sub-satellite points spread evenly over
        // longitude within a band.
        let shell = WalkerShell::new(550.0, 53.0, 24, 16, 5);
        let sats = shell.satellites();
        let period = sats[0].orbit.period_s();
        let mut counts = [0u32; 8];
        for k in 0..97 {
            // Co-prime sampling vs the period avoids aliasing.
            let t = period * (k as f64 * 7.0 + 0.31) / 97.0;
            for s in &sats {
                let p = s.orbit.subsatellite(t);
                if p.lat_deg().abs() < 20.0 {
                    let slot = (((p.lng_deg() + 180.0) / 45.0) as usize).min(7);
                    counts[slot] += 1;
                }
            }
        }
        let total: u32 = counts.iter().sum();
        let mean = total as f64 / 8.0;
        for (i, c) in counts.iter().enumerate() {
            let rel = (*c as f64 - mean).abs() / mean;
            assert!(rel < 0.10, "octant {i}: {c} vs mean {mean}");
        }
    }
}

//! Time-sampled coverage analysis of multi-shell constellations.
//!
//! The paper's "best case" scenario assumes the constellation provides
//! full geographic coverage — every US cell has at least one satellite
//! beam available at all times. This module verifies that premise by
//! direct simulation: propagate every shell, and for each ground point
//! and time sample count the satellites above the minimum elevation.
//! The orbit-validate experiment (EXT-COV in DESIGN.md) reports the
//! minimum and mean counts, and the `leo-bench` suite regenerates them.

use crate::ephemeris::{SinLatBand, WalkerEphemeris};
use crate::visibility;
use crate::walker::WalkerShell;
use leo_geomath::{pre_central_angle_rad, LatLng, PrePoint, Vec3};
use leo_parallel::par_map;

/// Coverage statistics for one ground point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageStats {
    /// Minimum satellites simultaneously in view across all samples.
    pub min_in_view: u32,
    /// Mean satellites in view.
    pub mean_in_view: f64,
    /// Fraction of samples with at least one satellite in view.
    pub availability: f64,
}

/// Configuration for a coverage run.
#[derive(Debug, Clone, Copy)]
pub struct CoverageConfig {
    /// Minimum usable elevation angle, degrees.
    pub min_elevation_deg: f64,
    /// Number of time samples.
    pub time_samples: u32,
    /// Total simulated span, seconds.
    pub span_s: f64,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            min_elevation_deg: visibility::STARLINK_MIN_ELEVATION_DEG,
            time_samples: 64,
            span_s: 5731.0, // one 550 km period, a prime-ish number of seconds
        }
    }
}

/// One shell's coverage invariants: its ephemeris, its cap angle, the
/// latitude band its satellites must be in to reach any point, and the
/// dot-product bounds that decide a pair without the exact test.
struct ShellCover {
    eph: WalkerEphemeris,
    lambda: f64,
    band: SinLatBand,
    /// [`visibility::cap_dot_floor`] of the points' bounding cap widened
    /// by the cap angle, compared against `hub · ecef`: below it, the
    /// satellite is certainly out of every point's view.
    hub_floor: f64,
    /// [`visibility::cap_dot_floor`] at the orbit radius, compared
    /// against `p̂ · ecef`: below it, certainly out of view.
    dot_floor: f64,
    /// [`visibility::cap_dot_ceiling`] at the orbit radius: at or above
    /// it, certainly in view.
    dot_ceiling: f64,
}

/// A ground point with its unit vector and haversine trigonometry
/// hoisted.
struct Ground {
    lat_deg: f64,
    pre: PrePoint,
    unit: Vec3,
}

/// The ground points' bounding cap: a hub direction and an angular
/// radius (`spread`) no point lies beyond. When the points' unit
/// vectors sum to near zero (no points, or a set such as an antipodal
/// pair) there is no hub: the zero vector and an infinite spread, whose
/// floor of −∞ rules nothing out.
fn bounding_cap(ground: &[Ground]) -> (Vec3, f64) {
    let sum = ground.iter().fold(Vec3::default(), |s, g| {
        Vec3::new(s.x + g.unit.x, s.y + g.unit.y, s.z + g.unit.z)
    });
    if sum.norm() <= 1e-9 {
        return (Vec3::default(), f64::INFINITY);
    }
    let hub = sum.normalized();
    let min_dot = ground
        .iter()
        .map(|g| hub.dot(g.unit))
        .fold(f64::INFINITY, f64::min);
    // Rounded up: the dots are within about 1e-15 of the true cosines,
    // and lowering the smallest by the far larger slack before the
    // `acos` bounds every point's true angle from the hub.
    let spread = (min_dot - visibility::CAP_DOT_SLACK).max(-1.0).acos();
    (hub, spread)
}

/// Computes coverage statistics for each ground point under the union
/// of `shells`.
///
/// Complexity is `O(time_samples × satellites)` for propagation plus,
/// per time sample, one dot product per band satellite (those within
/// one cap angle of the points' latitude range) against the points'
/// bounding cap, and `points` dot products per satellite that cap does
/// not rule out. A pair is decided by its dot product alone when it is
/// farther than the cap angle plus a 1e-6 rad margin
/// (`visibility::cap_dot_floor`) or nearer than the cap angle minus it
/// (`visibility::cap_dot_ceiling`); only pairs within the margin of
/// the rim build a sub-satellite point and run the exact haversine
/// test, so the integer in-view counts are exactly those of testing
/// every pair. A full 8k-satellite constellation over a few dozen
/// points runs in a few milliseconds.
pub fn coverage(
    shells: &[WalkerShell],
    points: &[LatLng],
    cfg: &CoverageConfig,
) -> Vec<CoverageStats> {
    assert!(cfg.time_samples > 0, "need at least one sample");
    let _span = leo_obs::span!("orbit.mc_coverage");
    let (lat_min, lat_max) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.lat_deg()), hi.max(p.lat_deg()))
        });
    let ground: Vec<Ground> = points
        .iter()
        .map(|p| Ground {
            lat_deg: p.lat_deg(),
            pre: PrePoint::new(p),
            unit: p.to_unit_vec(),
        })
        .collect();
    let (hub, spread) = bounding_cap(&ground);
    let covers: Vec<ShellCover> = shells
        .iter()
        .map(|s| {
            let eph = WalkerEphemeris::new(s);
            let lambda =
                visibility::coverage_cap_angle_rad(eph.altitude_km(), cfg.min_elevation_deg);
            let radius = eph.radius_km();
            ShellCover {
                band: SinLatBand::new(lat_min - lambda.to_degrees(), lat_max + lambda.to_degrees()),
                hub_floor: visibility::cap_dot_floor(radius, lambda + spread),
                dot_floor: visibility::cap_dot_floor(radius, lambda),
                dot_ceiling: visibility::cap_dot_ceiling(radius, lambda),
                eph,
                lambda,
            }
        })
        .collect();
    let sats: usize = covers.iter().map(|c| c.eph.len()).sum();
    leo_obs::metrics::counter_add("orbit.mc_samples", cfg.time_samples as u64 * sats as u64);
    // Each time sample yields an independent per-point visibility
    // count; samples fan out across workers and merge with the
    // associative, order-insensitive (min, sum, count) fold below, so
    // the statistics are exact at any thread count.
    let samples: Vec<u32> = (0..cfg.time_samples).collect();
    let per_sample: Vec<(Vec<u32>, u64)> = par_map(&samples, |_, &k| {
        let t = cfg.span_s * k as f64 / cfg.time_samples as f64;
        let mut counts = vec![0u32; points.len()];
        let mut exact = 0u64;
        for c in &covers {
            let epoch = c.eph.at(t);
            for i in 0..c.eph.len() {
                if !c.band.contains(epoch.sin_lat(i)) {
                    continue;
                }
                let approx = epoch.ecef_approx(i);
                if hub.dot(approx) < c.hub_floor {
                    continue;
                }
                let mut ssp: Option<(LatLng, PrePoint)> = None;
                for (count, g) in counts.iter_mut().zip(&ground) {
                    let dot = g.unit.dot(approx);
                    if dot < c.dot_floor {
                        continue;
                    }
                    if dot >= c.dot_ceiling {
                        *count += 1;
                        continue;
                    }
                    exact += 1;
                    let (ssp, ssp_pre) = ssp.get_or_insert_with(|| {
                        let p = epoch.subsatellite(i);
                        (p, PrePoint::new(&p))
                    });
                    // Latitude prefilter: |Δlat| alone can exceed λ.
                    if (ssp.lat_deg() - g.lat_deg).abs().to_radians() > c.lambda {
                        continue;
                    }
                    if pre_central_angle_rad(&g.pre, ssp_pre) <= c.lambda {
                        *count += 1;
                    }
                }
            }
        }
        (counts, exact)
    });
    let mut totals = vec![(u32::MAX, 0u64, 0u64); points.len()];
    leo_obs::metrics::counter_add("orbit.mc_exact", per_sample.iter().map(|s| s.1).sum());
    for (counts, _) in &per_sample {
        for (entry, &count) in totals.iter_mut().zip(counts) {
            entry.0 = entry.0.min(count);
            entry.1 += count as u64;
            if count > 0 {
                entry.2 += 1;
            }
        }
    }
    totals
        .into_iter()
        .map(|(min_in_view, sum, avail)| CoverageStats {
            min_in_view,
            mean_in_view: sum as f64 / cfg.time_samples as f64,
            availability: avail as f64 / cfg.time_samples as f64,
        })
        .collect()
}

/// Expected mean number of satellites in view at a latitude, from the
/// analytic density model: `N_effective = Σ_shells N_s · d(φ, i_s) ·
/// cap_area / A_earth`. Used to cross-check the simulation.
pub fn expected_in_view(shells: &[WalkerShell], lat_deg: f64, min_elevation_deg: f64) -> f64 {
    shells
        .iter()
        .filter_map(|s| {
            let d = crate::density::density_factor(lat_deg, s.inclination_deg)?;
            let cap = visibility::coverage_cap_area_km2(s.altitude_km, min_elevation_deg);
            Some(s.total() as f64 * d * cap / leo_geomath::EARTH_SURFACE_AREA_KM2)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen1_shell_covers_conus_continuously() {
        let shells = [WalkerShell::starlink_gen1_shell1()];
        let points = [
            LatLng::new(39.5, -98.35),
            LatLng::new(47.6, -122.33),
            LatLng::new(25.77, -80.19),
            LatLng::new(37.0, -86.0),
        ];
        let stats = coverage(&shells, &points, &CoverageConfig::default());
        for (p, s) in points.iter().zip(&stats) {
            assert!(s.availability == 1.0, "gap at {p}: {s:?}");
            assert!(s.min_in_view >= 1, "no coverage floor at {p}: {s:?}");
        }
    }

    #[test]
    fn simulated_mean_matches_analytic_expectation() {
        let shells = [WalkerShell::starlink_gen1_shell1()];
        let p = LatLng::new(39.5, -98.35);
        let cfg = CoverageConfig {
            time_samples: 128,
            ..CoverageConfig::default()
        };
        let sim = coverage(&shells, &[p], &cfg)[0].mean_in_view;
        let analytic = expected_in_view(&shells, 39.5, cfg.min_elevation_deg);
        let rel = (sim - analytic).abs() / analytic;
        assert!(rel < 0.15, "sim {sim} vs analytic {analytic}");
    }

    #[test]
    fn no_coverage_far_above_inclination() {
        let shells = [WalkerShell::new(550.0, 53.0, 12, 12, 5)];
        let barrow = LatLng::new(71.3, -156.8); // Utqiagvik, Alaska
        let stats = coverage(&shells, &[barrow], &CoverageConfig::default());
        assert_eq!(stats[0].mean_in_view, 0.0);
        assert_eq!(stats[0].availability, 0.0);
    }

    #[test]
    fn more_satellites_mean_more_in_view() {
        let small = [WalkerShell::new(550.0, 53.0, 24, 11, 5)];
        let big = [WalkerShell::new(550.0, 53.0, 72, 22, 17)];
        let p = [LatLng::new(40.0, -100.0)];
        let cfg = CoverageConfig::default();
        let a = coverage(&small, &p, &cfg)[0].mean_in_view;
        let b = coverage(&big, &p, &cfg)[0].mean_in_view;
        assert!(b > 2.0 * a, "small {a} big {b}");
    }
}

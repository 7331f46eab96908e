//! Deployment timelines: when could Starlink reach each requirement?
//!
//! F2 says > 32,000 *additional* satellites are needed; launch cadence
//! turns that into calendar time. SpaceX's recent sustained rate is
//! roughly 1,800–2,200 Starlink satellites per year, and the on-orbit
//! population also *decays* (≈5-year design life forces replacement
//! launches), so the steady-state fleet is capped at
//! `cadence × lifetime` regardless of how long one waits — a constraint
//! the "just launch more" framing misses entirely.

use crate::{sizing, PaperModel};
use leo_capacity::beamspread::Beamspread;
use leo_capacity::DeploymentPolicy;

/// A launch-cadence model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchModel {
    /// Satellites placed on orbit per year.
    pub sats_per_year: f64,
    /// On-orbit design life, years (replacements consume cadence).
    pub lifetime_years: f64,
    /// Fleet size at the start.
    pub initial_fleet: f64,
}

impl LaunchModel {
    /// The current-era estimate: ~2,000 satellites/year, 5-year life,
    /// starting from the paper's ~8,000-satellite fleet.
    pub fn current_estimate() -> Self {
        LaunchModel {
            sats_per_year: 2_000.0,
            lifetime_years: 5.0,
            initial_fleet: 8_000.0,
        }
    }

    /// Steady-state fleet ceiling, `cadence × lifetime`.
    pub fn steady_state_fleet(&self) -> f64 {
        self.sats_per_year * self.lifetime_years
    }

    /// Years until the fleet first reaches `target`, or `None` if the
    /// steady-state ceiling is below it (it is never reached). The
    /// fleet relaxes exponentially toward the steady state
    /// (`dN/dt = cadence − N/lifetime`).
    pub fn years_to_reach(&self, target: f64) -> Option<f64> {
        if self.initial_fleet >= target {
            return Some(0.0);
        }
        let ss = self.steady_state_fleet();
        if ss <= target {
            return None;
        }
        // Invert the relaxation: t = −L·ln((ss − target)/(ss − N0)).
        Some(-self.lifetime_years * ((ss - target) / (ss - self.initial_fleet)).ln())
    }
}

/// The timeline row for one beamspread requirement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineRow {
    /// Beamspread factor.
    pub beamspread: u32,
    /// Required constellation (20:1 cap).
    pub required: u64,
    /// Years to reach it under the launch model, `None` = never
    /// (steady-state ceiling below the requirement).
    pub years: Option<f64>,
}

/// Computes the deployment timeline for the paper's beamspread ladder.
pub fn timeline(model: &PaperModel, launch: &LaunchModel) -> Vec<TimelineRow> {
    [1u32, 2, 5, 10, 15]
        .iter()
        .map(|&b| {
            let required = sizing::constellation_size(
                model,
                DeploymentPolicy::fcc_capped(),
                Beamspread::new(b).expect("nonzero"),
            );
            TimelineRow {
                beamspread: b,
                required,
                years: launch.years_to_reach(required as f64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> &'static PaperModel {
        crate::testutil::model()
    }

    #[test]
    fn steady_state_is_cadence_times_lifetime() {
        let l = LaunchModel::current_estimate();
        assert_eq!(l.steady_state_fleet(), 10_000.0);
    }

    #[test]
    fn years_to_reach_inverts_the_fleet_relaxation() {
        let l = LaunchModel::current_estimate();
        // Fleet after `t` years: N(t) = ss + (N0 − ss)·e^(−t/L).
        let ss = l.steady_state_fleet();
        let fleet_at = |t: f64| ss + (l.initial_fleet - ss) * (-t / l.lifetime_years).exp();
        for target in [8_500.0, 9_000.0, 9_900.0] {
            let t = l.years_to_reach(target).unwrap();
            assert!((fleet_at(t) - target).abs() < 1e-6, "target {target}");
        }
        assert_eq!(l.years_to_reach(7_000.0), Some(0.0));
        assert!(l.years_to_reach(10_001.0).is_none());
    }

    #[test]
    fn current_cadence_never_reaches_the_b2_requirement() {
        // The headline: at ~2,000/yr with 5-year lifetimes, the fleet
        // tops out at 10,000 — the 41k b=2 requirement is unreachable;
        // even the b=15 requirement (5.6k) is already met or nearly so.
        let rows = timeline(model(), &LaunchModel::current_estimate());
        let b2 = rows.iter().find(|r| r.beamspread == 2).unwrap();
        assert!(b2.years.is_none(), "{b2:?}");
        let b15 = rows.iter().find(|r| r.beamspread == 15).unwrap();
        assert_eq!(b15.years, Some(0.0));
    }

    #[test]
    fn quadrupled_cadence_reaches_b2_in_finite_time() {
        let launch = LaunchModel {
            sats_per_year: 10_000.0,
            lifetime_years: 5.0,
            initial_fleet: 8_000.0,
        };
        let rows = timeline(model(), &launch);
        let b2 = rows.iter().find(|r| r.beamspread == 2).unwrap();
        let years = b2.years.expect("50k ceiling clears 41k");
        assert!((5.0..40.0).contains(&years), "{years}");
    }
}

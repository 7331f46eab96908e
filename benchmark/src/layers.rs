//! Traced calls into the layers that both the replay and the
//! in-process workloads use, with the work counts recorded beside each
//! span. Counts computed from call arguments are labelled "computed"
//! in the README; the others come from returned values.

use crate::trace::{count, span};
use leo_geomath::LatLng;
use leo_orbit::coverage::{CoverageConfig, CoverageStats};
use leo_orbit::gateway::Gateway;
use leo_orbit::isl::{GatewayPath, IslTopology, PathMode};
use leo_orbit::WalkerShell;
use leo_simnet::QoeReport;

/// `leo_orbit::density::empirical_density_factor`.
pub fn density(shell: &WalkerShell, lat_deg: f64, band_deg: f64, samples: u32) -> f64 {
    let d = span("orbit.density", || {
        leo_orbit::density::empirical_density_factor(shell, lat_deg, band_deg, samples)
    });
    let sat_samples = f64::from(samples) * f64::from(shell.total());
    // The estimator divides the in-band share by the band's share of
    // the sphere; undo that to recover the in-band share.
    let band_share =
        ((lat_deg + band_deg).to_radians().sin() - (lat_deg - band_deg).to_radians().sin()) / 2.0;
    count("orbit.density.calls", 1.0);
    count("orbit.density.sat_samples", sat_samples);
    count("orbit.density.in_band", d * band_share * sat_samples);
    d
}

/// `leo_orbit::coverage::coverage`.
pub fn coverage(
    shells: &[WalkerShell],
    points: &[LatLng],
    cfg: &CoverageConfig,
) -> Vec<CoverageStats> {
    let stats = span("orbit.coverage", || {
        leo_orbit::coverage::coverage(shells, points, cfg)
    });
    let sats: u32 = shells.iter().map(WalkerShell::total).sum();
    let sat_samples = f64::from(cfg.time_samples) * f64::from(sats);
    count("orbit.coverage.sat_samples", sat_samples);
    count(
        "orbit.coverage.pair_tests",
        sat_samples * points.len() as f64,
    );
    stats
}

/// `leo_orbit::isl::user_gateway_path`.
pub fn path(
    topo: &IslTopology,
    gateways: &[Gateway],
    user: &LatLng,
    t_s: f64,
    mode: PathMode,
) -> Option<GatewayPath> {
    let p = span("orbit.path", || {
        leo_orbit::isl::user_gateway_path(topo, gateways, user, t_s, mode)
    });
    count("orbit.path.calls", 1.0);
    count("orbit.path.reached", if p.is_some() { 1.0 } else { 0.0 });
    p
}

/// `leo_simnet::busy_hour_experiment`.
pub fn busy_hour(capacity_gbps: f64, oversubs: &[f64], seed: u64) -> Vec<QoeReport> {
    let reports = span("simnet.busy_hour", || {
        leo_simnet::busy_hour_experiment(capacity_gbps, oversubs, seed)
    });
    count(
        "simnet.busy_hour.flows",
        reports.iter().map(|r| r.flows as f64).sum(),
    );
    reports
}

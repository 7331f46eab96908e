//! Reference twins of the Monte-Carlo and path kernels: the loops
//! `empirical_density_factor`, `coverage` and `user_gateway_path` ran
//! before the hoisted [`leo_orbit::ephemeris::WalkerEphemeris`] and its prefilters.
//! Every satellite is propagated through [`CircularOrbit`] and every
//! pair takes the exact test, so these are the oracle the fast kernels
//! must match bit for bit. Serial, and free of observability calls.
//!
//! Shared by `tests/proptests.rs` and, through `#[path]`, by the
//! `bench_kernels` benchmark of `leo-bench`.
//!
//! [`CircularOrbit`]: leo_orbit::CircularOrbit

use leo_geomath::{LatLng, Vec3};
use leo_orbit::coverage::{CoverageConfig, CoverageStats};
use leo_orbit::gateway::{Gateway, GATEWAY_MIN_ELEVATION_DEG};
use leo_orbit::isl::{GatewayPath, IslTopology, PathMode, SPEED_OF_LIGHT_KM_S};
use leo_orbit::{frames, visibility, WalkerShell};
use std::collections::BinaryHeap;

/// Reference `empirical_density_factor`.
pub fn naive_density(shell: &WalkerShell, lat_deg: f64, band_deg: f64, time_samples: u32) -> f64 {
    let sats = shell.satellites();
    let n = sats.len() as f64;
    let period = sats[0].orbit.period_s();
    let in_band: u64 = (0..time_samples)
        .map(|k| {
            let t = period * k as f64 / time_samples as f64;
            sats.iter()
                .filter(|s| {
                    let lat = s.orbit.subsatellite(t).lat_deg();
                    (lat - lat_deg).abs() <= band_deg
                })
                .count() as u64
        })
        .sum();
    let frac = in_band as f64 / (n * time_samples as f64);
    let lo = (lat_deg - band_deg).clamp(-90.0, 90.0).to_radians().sin();
    let hi = (lat_deg + band_deg).clamp(-90.0, 90.0).to_radians().sin();
    frac / ((hi - lo) / 2.0)
}

/// Reference `coverage`.
pub fn naive_coverage(
    shells: &[WalkerShell],
    points: &[LatLng],
    cfg: &CoverageConfig,
) -> Vec<CoverageStats> {
    let sats: Vec<_> = shells.iter().flat_map(|s| s.satellites()).collect();
    let mut totals = vec![(u32::MAX, 0u64, 0u64); points.len()];
    for k in 0..cfg.time_samples {
        let t = cfg.span_s * k as f64 / cfg.time_samples as f64;
        let ssps: Vec<(LatLng, f64)> = sats
            .iter()
            .map(|s| {
                (
                    s.orbit.subsatellite(t),
                    visibility::coverage_cap_angle_rad(
                        s.orbit.altitude_km(),
                        cfg.min_elevation_deg,
                    ),
                )
            })
            .collect();
        for (entry, p) in totals.iter_mut().zip(points) {
            let mut count = 0u32;
            for (ssp, lambda) in &ssps {
                if (ssp.lat_deg() - p.lat_deg()).abs().to_radians() > *lambda {
                    continue;
                }
                if p.central_angle_rad(ssp) <= *lambda {
                    count += 1;
                }
            }
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

/// Reference `nearest_gateway`: a haversine test against every site.
pub fn naive_nearest_gateway(
    gateways: &[Gateway],
    ssp: &LatLng,
    altitude_km: f64,
) -> Option<(usize, f64)> {
    let lambda = visibility::coverage_cap_angle_rad(altitude_km, GATEWAY_MIN_ELEVATION_DEG);
    let r = leo_geomath::EARTH_RADIUS_KM;
    let a = r + altitude_km;
    gateways
        .iter()
        .enumerate()
        .filter_map(|(i, g)| {
            let angle = ssp.central_angle_rad(&g.location);
            if angle > lambda {
                return None;
            }
            Some((i, (r * r + a * a - 2.0 * r * a * angle.cos()).sqrt()))
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
}

/// Reference `user_gateway_path`: every satellite propagated and every
/// sub-satellite point built up front.
pub fn naive_path(
    topo: &IslTopology,
    gateways: &[Gateway],
    user: &LatLng,
    t_s: f64,
    mode: PathMode,
) -> Option<GatewayPath> {
    let sats = topo.shell().satellites();
    let alt = topo.shell().altitude_km;
    let ecef: Vec<Vec3> = sats
        .iter()
        .map(|s| frames::eci_to_ecef(s.orbit.position_eci(t_s), t_s))
        .collect();
    let ssps: Vec<LatLng> = ecef
        .iter()
        .map(|&p| frames::subsatellite_point(p))
        .collect();
    let user_ecef = user.to_unit_vec() * leo_geomath::EARTH_RADIUS_KM;
    let serving = ecef
        .iter()
        .enumerate()
        .filter(|(i, p)| {
            visibility::elevation_angle_deg(user, **p) >= visibility::STARLINK_MIN_ELEVATION_DEG
                && ssps[*i].lat_deg().abs() <= 90.0
        })
        .min_by(|a, b| {
            let da = (*a.1 - user_ecef).norm();
            let db = (*b.1 - user_ecef).norm();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)?;
    let up_km = (ecef[serving] - user_ecef).norm();
    let landing = |distance: f64, isl_hops: u32, gateway: usize| GatewayPath {
        latency_ms: distance / SPEED_OF_LIGHT_KM_S * 1000.0,
        distance_km: distance,
        isl_hops,
        gateway,
    };
    match mode {
        PathMode::BentPipe => {
            let (gw, down_km) = naive_nearest_gateway(gateways, &ssps[serving], alt)?;
            Some(landing(up_km + down_km, 0, gw))
        }
        PathMode::IslRelay => {
            #[derive(PartialEq)]
            struct Entry(f64, usize);
            impl Eq for Entry {}
            impl Ord for Entry {
                fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                    o.0.partial_cmp(&self.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                }
            }
            impl PartialOrd for Entry {
                fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                    Some(self.cmp(o))
                }
            }
            let n = ecef.len();
            let mut dist = vec![f64::INFINITY; n];
            let mut hops = vec![0u32; n];
            let mut heap = BinaryHeap::new();
            dist[serving] = up_km;
            heap.push(Entry(up_km, serving));
            let mut best: Option<GatewayPath> = None;
            while let Some(Entry(d, u)) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                if let Some(b) = &best {
                    if d >= b.distance_km {
                        break;
                    }
                }
                if let Some((gw, down_km)) = naive_nearest_gateway(gateways, &ssps[u], alt) {
                    let total = d + down_km;
                    if best.as_ref().map(|b| total < b.distance_km).unwrap_or(true) {
                        best = Some(landing(total, hops[u], gw));
                    }
                }
                for &v in &topo.adjacency()[u] {
                    let w = (ecef[u] - ecef[v]).norm();
                    if d + w < dist[v] {
                        dist[v] = d + w;
                        hops[v] = hops[u] + 1;
                        heap.push(Entry(d + w, v));
                    }
                }
            }
            best
        }
    }
}

/// Bit-level equality of two coverage results.
pub fn same_coverage(a: &[CoverageStats], b: &[CoverageStats]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.min_in_view == y.min_in_view
                && x.mean_in_view.to_bits() == y.mean_in_view.to_bits()
                && x.availability.to_bits() == y.availability.to_bits()
        })
}

/// Bit-level equality of two path results.
pub fn same_path(a: &Option<GatewayPath>, b: &Option<GatewayPath>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.latency_ms.to_bits() == y.latency_ms.to_bits()
                && x.distance_km.to_bits() == y.distance_km.to_bits()
                && x.isl_hops == y.isl_hops
                && x.gateway == y.gateway
        }
        _ => false,
    }
}

//! Inter-satellite link topology and user→gateway path latency.
//!
//! Starlink satellites carry optical ISLs in the classic **+grid**
//! arrangement: each satellite links to its predecessor and successor
//! within its orbital plane and to the same-slot satellite in each
//! adjacent plane. This module builds that topology for a Walker shell,
//! computes instantaneous link lengths, and answers the paper's §2.2
//! connectivity question quantitatively: what is the user→gateway
//! latency in a bent-pipe versus an ISL-relayed configuration?

use crate::ephemeris::{Epoch, WalkerEphemeris};
use crate::frames;
use crate::gateway::{Gateway, GatewayView};
use crate::visibility;
use crate::walker::WalkerShell;
use leo_geomath::{LatLng, Vec3};
use std::collections::BinaryHeap;

/// Speed of light in vacuum, km/s (ISLs are free-space optical; Ku/Ka
/// links are also effectively at `c`).
pub const SPEED_OF_LIGHT_KM_S: f64 = 299_792.458;

/// A +grid ISL topology over one Walker shell.
#[derive(Debug, Clone)]
pub struct IslTopology {
    shell: WalkerShell,
    /// The shell's propagation invariants, hoisted once for every path
    /// query.
    ephemeris: WalkerEphemeris,
    /// Adjacency: for each satellite, its four (or fewer) neighbours.
    adjacency: Vec<Vec<usize>>,
}

impl IslTopology {
    /// Builds the +grid: intra-plane ring plus same-slot inter-plane
    /// links (wrapping in both directions).
    pub fn plus_grid(shell: WalkerShell) -> Self {
        let p = shell.planes as usize;
        let s = shell.sats_per_plane as usize;
        let idx = |plane: usize, slot: usize| plane * s + slot;
        let mut adjacency = vec![Vec::with_capacity(4); p * s];
        for plane in 0..p {
            for slot in 0..s {
                let me = idx(plane, slot);
                // Intra-plane ring.
                adjacency[me].push(idx(plane, (slot + 1) % s));
                adjacency[me].push(idx(plane, (slot + s - 1) % s));
                // Inter-plane, same slot.
                adjacency[me].push(idx((plane + 1) % p, slot));
                adjacency[me].push(idx((plane + p - 1) % p, slot));
            }
        }
        // Degenerate shells (1 plane or 1 slot) create self/duplicate
        // edges; drop them.
        for (me, neighbors) in adjacency.iter_mut().enumerate() {
            neighbors.sort_unstable();
            neighbors.dedup();
            neighbors.retain(|&n| n != me);
        }
        IslTopology {
            ephemeris: WalkerEphemeris::new(&shell),
            shell,
            adjacency,
        }
    }

    /// The shell this topology spans.
    pub fn shell(&self) -> &WalkerShell {
        &self.shell
    }

    /// Neighbour lists, indexed by satellite id (`plane × S + slot`).
    pub fn adjacency(&self) -> &[Vec<usize>] {
        &self.adjacency
    }
}

/// How user traffic reaches a gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathMode {
    /// The serving satellite must itself see a gateway.
    BentPipe,
    /// Traffic may relay over the ISL mesh to a gateway-visible
    /// satellite.
    IslRelay,
}

/// A computed user→gateway path.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayPath {
    /// One-way latency, milliseconds.
    pub latency_ms: f64,
    /// Total path length, km.
    pub distance_km: f64,
    /// ISL hops used (0 for bent pipe).
    pub isl_hops: u32,
    /// Index of the landing gateway.
    pub gateway: usize,
}

/// Computes the lowest-latency user→gateway path at time `t_s`.
///
/// The user attaches to the visible satellite minimizing slant range
/// (a reasonable stand-in for Starlink's scheduler); returns `None`
/// when no satellite serves the user or (bent pipe) no gateway is
/// reachable.
pub fn user_gateway_path(
    topo: &IslTopology,
    gateways: &[Gateway],
    user: &LatLng,
    t_s: f64,
    mode: PathMode,
) -> Option<GatewayPath> {
    let alt = topo.shell.altitude_km;
    let epoch = topo.ephemeris.at(t_s);
    let n = topo.ephemeris.len();
    let mut pos = Positions {
        epoch,
        cache: vec![None; n],
    };
    let gws = GatewayView::new(gateways, alt);

    // Serving satellite: min slant among those above the UT mask. The
    // elevation mask is a cap of angle λ around the user, so satellites
    // the dot prefilter puts certainly outside it skip the exact test.
    let up = user.to_unit_vec();
    let user_ecef = up * leo_geomath::EARTH_RADIUS_KM;
    let lambda = visibility::coverage_cap_angle_rad(alt, visibility::STARLINK_MIN_ELEVATION_DEG);
    let floor = visibility::cap_dot_floor(topo.ephemeris.radius_km(), lambda);
    let serving = (0..n)
        .filter(|&i| up.dot(epoch.ecef_approx(i)) >= floor)
        .map(|i| (i, pos.get(i)))
        .filter(|(_, p)| {
            visibility::elevation_from_unit_deg(up, *p) >= visibility::STARLINK_MIN_ELEVATION_DEG
        })
        .min_by(|a, b| {
            let da = (a.1 - user_ecef).norm();
            let db = (b.1 - user_ecef).norm();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)?;
    let up_km = (pos.get(serving) - user_ecef).norm();

    match mode {
        PathMode::BentPipe => {
            let ssp = frames::subsatellite_point(pos.get(serving));
            let (gw, down_km) = gws.nearest(&ssp)?;
            let distance = up_km + down_km;
            Some(GatewayPath {
                latency_ms: distance / SPEED_OF_LIGHT_KM_S * 1000.0,
                distance_km: distance,
                isl_hops: 0,
                gateway: gw,
            })
        }
        PathMode::IslRelay => {
            // Dijkstra from the serving satellite; a node's terminal
            // cost adds its nearest-gateway downlink if one is visible.
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
                // Early exit: no shorter completion is possible once
                // the best landing beats every frontier distance.
                if let Some(b) = &best {
                    if d >= b.distance_km {
                        break;
                    }
                }
                let pu = pos.get(u);
                if let Some((gw, down_km)) = gws.nearest(&frames::subsatellite_point(pu)) {
                    let total = d + down_km;
                    if best.as_ref().map(|b| total < b.distance_km).unwrap_or(true) {
                        best = Some(GatewayPath {
                            latency_ms: total / SPEED_OF_LIGHT_KM_S * 1000.0,
                            distance_km: total,
                            isl_hops: hops[u],
                            gateway: gw,
                        });
                    }
                }
                for &v in &topo.adjacency[u] {
                    let w = (pu - pos.get(v)).norm();
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

/// Exact ECEF positions at one instant, each computed on first use:
/// a path query touches only the satellites near the user and those
/// Dijkstra reaches.
struct Positions<'a> {
    epoch: Epoch<'a>,
    cache: Vec<Option<Vec3>>,
}

impl Positions<'_> {
    fn get(&mut self, i: usize) -> Vec3 {
        let epoch = &self.epoch;
        *self.cache[i].get_or_insert_with(|| epoch.ecef(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::conus_gateways;

    fn topo() -> IslTopology {
        IslTopology::plus_grid(WalkerShell::new(550.0, 53.0, 24, 16, 5))
    }

    #[test]
    fn plus_grid_degree_is_four() {
        let t = topo();
        for (i, adj) in t.adjacency().iter().enumerate() {
            assert_eq!(adj.len(), 4, "satellite {i} degree {}", adj.len());
        }
        let links = t.adjacency().iter().map(Vec::len).sum::<usize>() / 2;
        assert_eq!(links, 2 * 24 * 16);
    }

    #[test]
    fn degenerate_shells_have_no_self_links() {
        let t = IslTopology::plus_grid(WalkerShell::new(550.0, 53.0, 2, 2, 1));
        for (i, adj) in t.adjacency().iter().enumerate() {
            assert!(!adj.contains(&i));
            let mut sorted = adj.clone();
            sorted.dedup();
            assert_eq!(&sorted, adj);
        }
    }

    #[test]
    fn conus_user_reaches_a_gateway_both_ways() {
        let t = topo();
        let gws = conus_gateways();
        let user = LatLng::new(47.0, -109.0); // rural Montana
        let bp = user_gateway_path(&t, &gws, &user, 0.0, PathMode::BentPipe);
        let isl = user_gateway_path(&t, &gws, &user, 0.0, PathMode::IslRelay);
        let isl = isl.expect("ISL path must exist when any satellite serves the user");
        assert!(isl.latency_ms > 0.0 && isl.latency_ms < 50.0, "{isl:?}");
        if let Some(bp) = bp {
            // The ISL-relayed path is never worse than bent pipe (hop
            // count 0 is a valid relay outcome).
            assert!(isl.latency_ms <= bp.latency_ms + 1e-9);
        }
    }

    #[test]
    fn isl_reaches_where_bent_pipe_cannot() {
        // A maritime user far east of CONUS (beyond the ~2,600 km
        // bent-pipe reach: 940 km UT cone + 1,665 km gateway cone): no
        // gateway in the serving satellite's view, but the mesh relays
        // westward.
        let t = topo();
        let gws = conus_gateways();
        let user = LatLng::new(35.0, -38.0);
        let bp = user_gateway_path(&t, &gws, &user, 0.0, PathMode::BentPipe);
        assert!(bp.is_none(), "bent pipe should fail mid-Atlantic: {bp:?}");
        let isl = user_gateway_path(&t, &gws, &user, 0.0, PathMode::IslRelay);
        let isl = isl.expect("ISL relay should succeed");
        assert!(isl.isl_hops >= 1, "{isl:?}");
        // ~2,000+ km of relay: tens of ms one way.
        assert!(isl.latency_ms > 5.0 && isl.latency_ms < 120.0, "{isl:?}");
    }

    #[test]
    fn latency_is_at_least_the_physical_floor() {
        // One-way latency can never beat altitude/c.
        let t = topo();
        let gws = conus_gateways();
        let floor_ms = 2.0 * 550.0 / SPEED_OF_LIGHT_KM_S * 1000.0;
        let p = user_gateway_path(&t, &gws, &LatLng::new(39.0, -98.0), 0.0, PathMode::BentPipe)
            .expect("coverage over Kansas");
        assert!(
            p.latency_ms >= floor_ms * 0.99,
            "{} < {floor_ms}",
            p.latency_ms
        );
        assert!(p.latency_ms < 15.0, "{p:?}");
    }

    #[test]
    fn no_coverage_far_north() {
        let t = topo();
        let gws = conus_gateways();
        let user = LatLng::new(75.0, -100.0); // above the inclination band
        assert!(user_gateway_path(&t, &gws, &user, 0.0, PathMode::IslRelay).is_none());
    }
}

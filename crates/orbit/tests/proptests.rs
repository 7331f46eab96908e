//! Property-based tests for orbital invariants.

mod naive;

use leo_geomath::constants::EARTH_RADIUS_KM;
use leo_geomath::LatLng;
use leo_orbit::frames::{ecef_to_eci, eci_to_ecef};
use leo_orbit::visibility::coverage_cap_angle_rad;
use leo_orbit::{density_factor, CircularOrbit, WalkerShell};
use proptest::prelude::*;

proptest! {
    #[test]
    fn circular_orbit_radius_and_speed_are_conserved(
        alt in 300.0..2000.0f64,
        incl in 1.0..99.0f64,
        raan in 0.0..360.0f64,
        arg in 0.0..360.0f64,
        t in 0.0..100_000.0f64,
    ) {
        let o = CircularOrbit::new(alt, incl, raan, arg);
        let p = o.position_eci(t);
        // Central-difference velocity of the propagated position.
        let h = 1e-3;
        let v = (o.position_eci(t + h) - o.position_eci(t - h)) / (2.0 * h);
        prop_assert!((p.norm() - o.radius_km()).abs() < 1e-6);
        prop_assert!((v.norm() - o.speed_km_s()).abs() < 1e-6);
        prop_assert!(p.normalized().dot(v).abs() < 1e-6);
    }

    #[test]
    fn subsatellite_latitude_bounded_by_inclination(
        alt in 300.0..2000.0f64,
        incl in 1.0..90.0f64,
        t in 0.0..100_000.0f64,
    ) {
        let o = CircularOrbit::new(alt, incl, 10.0, 20.0);
        prop_assert!(o.subsatellite(t).lat_deg().abs() <= incl + 1e-6);
    }

    #[test]
    fn eci_ecef_round_trip(x in -1e4..1e4f64, y in -1e4..1e4f64, z in -1e4..1e4f64,
                           t in 0.0..1e6f64) {
        let p = leo_geomath::Vec3::new(x, y, z);
        let back = ecef_to_eci(eci_to_ecef(p, t), t);
        prop_assert!((back - p).norm() < 1e-6);
    }

    #[test]
    fn coverage_cap_monotone_in_altitude(e in 0.0..80.0f64,
                                         h1 in 300.0..1000.0f64,
                                         dh in 1.0..1000.0f64) {
        prop_assert!(coverage_cap_angle_rad(h1 + dh, e) > coverage_cap_angle_rad(h1, e));
    }

    #[test]
    fn coverage_cap_is_positive_and_bounded(e in 0.0..85.0f64, h in 200.0..2000.0f64) {
        let l = coverage_cap_angle_rad(h, e);
        prop_assert!(l > 0.0);
        // Never larger than the horizon cap at that altitude.
        prop_assert!(l <= (EARTH_RADIUS_KM / (EARTH_RADIUS_KM + h)).acos() + 1e-12);
    }

    #[test]
    fn density_factor_exceeds_uniform_below_inclination(
        lat in 0.0..45.0f64, incl in 50.0..90.0f64
    ) {
        // For mid latitudes under a high-inclination shell the density
        // is at least the uniform-sphere value 2/π·1/sin(i) ≥ 2/π.
        let d = density_factor(lat, incl).unwrap();
        prop_assert!(d >= 2.0 / std::f64::consts::PI - 1e-12);
    }

    #[test]
    fn walker_shell_satellite_count(planes in 1u32..40, per in 1u32..40) {
        let s = WalkerShell::new(550.0, 53.0, planes, per, 0);
        prop_assert_eq!(s.satellites().len() as u32, planes * per);
    }
}

mod extended {
    use super::*;
    use leo_orbit::doppler::{doppler_shift_hz, range_rate_km_s};
    use leo_orbit::isl::IslTopology;

    proptest! {
        #[test]
        fn plus_grid_adjacency_is_symmetric(planes in 3u32..20, per in 3u32..20) {
            let t = IslTopology::plus_grid(WalkerShell::new(550.0, 53.0, planes, per, 0));
            let adj = t.adjacency();
            for (u, neighbors) in adj.iter().enumerate() {
                for &v in neighbors {
                    prop_assert!(adj[v].contains(&u), "edge {u}->{v} not symmetric");
                }
            }
            let links = adj.iter().map(Vec::len).sum::<usize>() / 2;
            prop_assert_eq!(links, 2 * (planes * per) as usize);
        }

        #[test]
        fn doppler_is_bounded_by_orbital_speed(lat in -50.0..50.0f64, lng in -180.0..180.0f64,
                                               t in 0.0..20_000.0f64) {
            let o = CircularOrbit::new(550.0, 53.0, 0.0, 0.0);
            let g = LatLng::new(lat, lng);
            let rr = range_rate_km_s(&o, &g, t);
            // Radial speed can't exceed orbital + Earth-rotation speed.
            prop_assert!(rr.abs() < o.speed_km_s() + 0.6, "rr {rr}");
            let shift = doppler_shift_hz(&o, &g, t, 12.0);
            prop_assert!(shift.abs() < 12.0e9 * (o.speed_km_s() + 0.6) / 299_792.458);
        }
    }
}

/// The hoisted ephemeris and the prefiltered kernels against the
/// per-orbit propagator and the reference twins in `naive/`: equal to
/// the last bit on random shells, instants and inputs.
mod hoisted {
    use super::naive::{
        naive_coverage, naive_density, naive_nearest_gateway, naive_path, same_coverage, same_path,
    };
    use super::*;
    use leo_orbit::coverage::{coverage, CoverageConfig};
    use leo_orbit::density::empirical_density_factor;
    use leo_orbit::ephemeris::{WalkerEphemeris, SIN_LAT_MARGIN};
    use leo_orbit::gateway::{conus_gateways, nearest_gateway, GATEWAY_MIN_ELEVATION_DEG};
    use leo_orbit::isl::{user_gateway_path, IslTopology, PathMode};
    use leo_orbit::visibility::CAP_DOT_MARGIN_RAD;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// A float from `range`, or one draw in four an edge value.
    struct Edgy {
        range: Range<f64>,
        edges: &'static [f64],
    }

    impl Strategy for Edgy {
        type Value = f64;

        fn generate(&self, rng: &mut StdRng) -> f64 {
            if rng.gen_range(0..4) == 0 {
                self.edges[rng.gen_range(0..self.edges.len())]
            } else {
                rng.gen_range(self.range.clone())
            }
        }
    }

    /// Small Walker shells over every inclination class: equatorial,
    /// prograde, polar and retrograde.
    struct Shells;

    impl Strategy for Shells {
        type Value = WalkerShell;

        fn generate(&self, rng: &mut StdRng) -> WalkerShell {
            let incl = Edgy {
                range: 0.0..180.0,
                edges: &[0.0, 53.0, 90.0, 97.6, 180.0],
            };
            let planes = rng.gen_range(1..10);
            WalkerShell::new(
                rng.gen_range(300.0..1500.0),
                incl.generate(rng),
                planes,
                rng.gen_range(1..10),
                rng.gen_range(0..planes),
            )
        }
    }

    /// Instants from epoch, and one draw in four far past the
    /// prefilters' angle-addition range, where they fall back to exact
    /// phases.
    struct Instants;

    impl Strategy for Instants {
        type Value = f64;

        fn generate(&self, rng: &mut StdRng) -> f64 {
            if rng.gen_range(0..4) == 0 {
                rng.gen_range(1e8..1e10)
            } else {
                rng.gen_range(0.0..100_000.0)
            }
        }
    }

    /// Ground points including the poles, the ±180° meridian and
    /// latitudes beyond any inclination.
    fn points() -> impl Strategy<Value = Vec<LatLng>> {
        let lat = Edgy {
            range: -90.0..90.0,
            edges: &[90.0, -90.0, 71.3, -85.0, 0.0],
        };
        let lng = Edgy {
            range: -180.0..180.0,
            edges: &[-180.0, 180.0, 179.999_999, -179.999_999],
        };
        proptest::collection::vec((lat, lng).prop_map(|(a, b)| LatLng::new(a, b)), 0..6)
    }

    proptest! {
        #[test]
        fn ephemeris_is_bit_identical_to_each_orbit(s in Shells, t in Instants) {
            let eph = WalkerEphemeris::new(&s);
            let epoch = eph.at(t);
            for (i, sat) in s.satellites().iter().enumerate() {
                let want = eci_to_ecef(sat.orbit.position_eci(t), t);
                let got = epoch.ecef(i);
                prop_assert_eq!(
                    [got.x, got.y, got.z].map(f64::to_bits),
                    [want.x, want.y, want.z].map(f64::to_bits),
                    "sat {} t {}", i, t
                );
                prop_assert_eq!(epoch.subsatellite(i), sat.orbit.subsatellite(t));
            }
        }

        #[test]
        fn density_matches_its_reference_twin(
            s in Shells,
            lat in Edgy { range: -90.0..90.0, edges: &[0.0, 53.0, 90.0, -89.5] },
            band in 0.01..10.0f64,
            samples in 1u32..64,
        ) {
            let fast = empirical_density_factor(&s, lat, band, samples);
            let slow = naive_density(&s, lat, band, samples);
            prop_assert_eq!(fast.to_bits(), slow.to_bits(), "{} vs {}", fast, slow);
        }

        #[test]
        fn coverage_matches_its_reference_twin(
            shells in proptest::collection::vec(Shells, 1..3),
            pts in points(),
            min_elevation_deg in 0.0..60.0f64,
            time_samples in 1u32..24,
            span_s in Instants,
        ) {
            let cfg = CoverageConfig { min_elevation_deg, time_samples, span_s };
            let fast = coverage(&shells, &pts, &cfg);
            let slow = naive_coverage(&shells, &pts, &cfg);
            prop_assert!(same_coverage(&fast, &slow), "{:?} vs {:?}", fast, slow);
        }

        #[test]
        fn coverage_matches_its_twin_at_the_cap_edge(
            s in Shells,
            pick in 0.0..1.0f64,
            bearing in 0.0..360.0f64,
            nudge in -4i32..5,
            min_elevation_deg in 0.0..60.0f64,
        ) {
            // Points on the rim of one satellite's cap at t = 0 (the
            // first time sample), nudged by a few ulp-scale steps, where
            // the exact haversine test flips.
            let i = (pick * s.total() as f64) as usize;
            let ssp = s.satellites()[i].orbit.subsatellite(0.0);
            let lambda = coverage_cap_angle_rad(s.altitude_km, min_elevation_deg);
            let km = lambda * EARTH_RADIUS_KM * (1.0 + f64::from(nudge) * 1e-15);
            let rim = leo_geomath::destination(&ssp, bearing, km);
            let cfg = CoverageConfig { min_elevation_deg, time_samples: 1, span_s: 1.0 };
            let fast = coverage(&[s], &[rim, ssp], &cfg);
            let slow = naive_coverage(&[s], &[rim, ssp], &cfg);
            prop_assert!(same_coverage(&fast, &slow), "{:?} vs {:?}", fast, slow);
        }

        #[test]
        fn coverage_matches_its_twin_at_the_certain_in_view_edge(
            s in Shells,
            pick in 0.0..1.0f64,
            bearing in 0.0..360.0f64,
            nudge in -4i32..5,
            min_elevation_deg in Edgy { range: 0.0..60.0, edges: &[0.0, 89.99, 89.999] },
        ) {
            // Points one margin inside one satellite's cap rim at t = 0,
            // nudged across the dot-product ceiling that counts a pair in
            // view without the exact test, next to points one margin
            // outside the rim (the floor) and on the rim itself. Near
            // 90° of elevation the cap angle is a few margins wide, where
            // the cosine is flat and only the slack keeps the ceiling
            // above the rim.
            let i = (pick * s.total() as f64) as usize;
            let ssp = s.satellites()[i].orbit.subsatellite(0.0);
            let lambda = coverage_cap_angle_rad(s.altitude_km, min_elevation_deg);
            let at = |angle: f64, turn: f64| {
                let angle = angle + f64::from(nudge) * 1e-12;
                leo_geomath::destination(&ssp, bearing + turn, angle * EARTH_RADIUS_KM)
            };
            let pts = [
                at(lambda - CAP_DOT_MARGIN_RAD, 0.0),
                at(lambda + CAP_DOT_MARGIN_RAD, 120.0),
                at(lambda, 240.0),
            ];
            let cfg = CoverageConfig { min_elevation_deg, time_samples: 1, span_s: 1.0 };
            for n in 1..=pts.len() {
                let fast = coverage(&[s], &pts[..n], &cfg);
                let slow = naive_coverage(&[s], &pts[..n], &cfg);
                prop_assert!(same_coverage(&fast, &slow), "{:?} vs {:?}", fast, slow);
            }
        }

        #[test]
        fn coverage_matches_its_twin_on_the_point_caps_rim(
            s in Shells,
            pick in 0.0..1.0f64,
            bearing in 0.0..360.0f64,
            nudge in -4i32..5,
            half_gap in Edgy { range: 0.0..0.05, edges: &[0.0, 1e-9, 1e-7, 1e-5, 1e-4] },
            min_elevation_deg in 0.0..60.0f64,
        ) {
            // Two points on one great circle through a satellite's
            // sub-satellite point at t = 0: the nearer on the
            // satellite's cap rim, the farther `2 · half_gap` beyond it.
            // Their hub lies midway, so the rim of the points' bounding
            // cap widened by the cap angle passes through the satellite,
            // where the one-per-satellite hub test must not reject it.
            let i = (pick * s.total() as f64) as usize;
            let ssp = s.satellites()[i].orbit.subsatellite(0.0);
            let lambda = coverage_cap_angle_rad(s.altitude_km, min_elevation_deg);
            let rim = lambda * (1.0 + f64::from(nudge) * 1e-15);
            let pts = [
                leo_geomath::destination(&ssp, bearing, rim * EARTH_RADIUS_KM),
                leo_geomath::destination(&ssp, bearing, (rim + 2.0 * half_gap) * EARTH_RADIUS_KM),
            ];
            let cfg = CoverageConfig { min_elevation_deg, time_samples: 1, span_s: 1.0 };
            let fast = coverage(&[s], &pts, &cfg);
            let slow = naive_coverage(&[s], &pts, &cfg);
            prop_assert!(same_coverage(&fast, &slow), "{:?} vs {:?}", fast, slow);
        }

        #[test]
        fn coverage_matches_its_twin_for_antipodal_points(
            shells in proptest::collection::vec(Shells, 1..3),
            pick in 0.0..1.0f64,
            bearing in 0.0..360.0f64,
            nudge in -4i32..5,
            extra in points(),
            min_elevation_deg in 0.0..60.0f64,
            time_samples in 1u32..8,
        ) {
            // Antipodal pairs sum to about zero, so the points have no
            // hub and no bounding cap; one pair sits on a satellite's
            // cap rim at t = 0.
            let s = shells[0];
            let i = (pick * s.total() as f64) as usize;
            let ssp = s.satellites()[i].orbit.subsatellite(0.0);
            let lambda = coverage_cap_angle_rad(s.altitude_km, min_elevation_deg);
            let km = lambda * EARTH_RADIUS_KM * (1.0 + f64::from(nudge) * 1e-15);
            let antipode = |p: &LatLng| LatLng::new(-p.lat_deg(), p.lng_deg() + 180.0);
            let mut pts = vec![leo_geomath::destination(&ssp, bearing, km)];
            pts.extend(extra);
            let pts: Vec<LatLng> = pts.iter().flat_map(|p| [*p, antipode(p)]).collect();
            let cfg = CoverageConfig { min_elevation_deg, time_samples, span_s: 5731.0 };
            let fast = coverage(&shells, &pts, &cfg);
            let slow = naive_coverage(&shells, &pts, &cfg);
            prop_assert!(same_coverage(&fast, &slow), "{:?} vs {:?}", fast, slow);
        }

        #[test]
        fn density_matches_its_twin_at_the_certain_band_edge(
            s in Shells,
            pick in 0.0..1.0f64,
            band in 0.01..10.0f64,
            upper in 0u32..2,
            half_margins in -6i32..7,
        ) {
            // A band whose sine bound sits `half_margins` half-margins
            // beyond one satellite's latitude sine at t = 0 (short of it
            // when negative). At +2 the satellite is on the edge of the
            // inner band, which counts it in band without the exact
            // test; at −2 on the edge of the widened band; between the
            // two it takes the exact test.
            let i = (pick * s.total() as f64) as usize;
            let lat = s.satellites()[i].orbit.subsatellite(0.0).lat_deg();
            let step = f64::from(half_margins) * SIN_LAT_MARGIN / 2.0;
            let toward = if upper == 1 { step } else { -step };
            let edge = (lat.to_radians().sin() + toward).clamp(-1.0, 1.0).asin().to_degrees();
            let centre = if upper == 1 { edge - band } else { edge + band };
            for samples in [1, 2] {
                let fast = empirical_density_factor(&s, centre, band, samples);
                let slow = naive_density(&s, centre, band, samples);
                prop_assert_eq!(fast.to_bits(), slow.to_bits(), "{} vs {}", fast, slow);
            }
        }

        #[test]
        fn density_matches_its_twin_at_the_band_edge(
            s in Shells,
            pick in 0.0..1.0f64,
            band in 0.01..10.0f64,
            upper in 0u32..2,
        ) {
            // A band whose edge sits exactly on one satellite's latitude
            // at t = 0 (the first time sample).
            let i = (pick * s.total() as f64) as usize;
            let lat = s.satellites()[i].orbit.subsatellite(0.0).lat_deg();
            let centre = if upper == 1 { lat - band } else { lat + band };
            for samples in [1, 2] {
                let fast = empirical_density_factor(&s, centre, band, samples);
                let slow = naive_density(&s, centre, band, samples);
                prop_assert_eq!(fast.to_bits(), slow.to_bits(), "{} vs {}", fast, slow);
            }
        }

        #[test]
        fn paths_match_their_twin_at_the_elevation_mask(
            planes in 2u32..5,
            per in 2u32..5,
            pick in 0.0..1.0f64,
            bearing in 0.0..360.0f64,
            nudge in -4i32..5,
        ) {
            // A sparse shell and a user on the 25° rim of one
            // satellite's cap, so that satellite is often the only
            // candidate and the exact elevation test decides the path.
            let shell = WalkerShell::new(550.0, 53.0, planes, per, 1);
            let topo = IslTopology::plus_grid(shell);
            let i = (pick * shell.total() as f64) as usize;
            let ssp = shell.satellites()[i].orbit.subsatellite(0.0);
            let lambda = coverage_cap_angle_rad(550.0, 25.0);
            let km = lambda * EARTH_RADIUS_KM * (1.0 + f64::from(nudge) * 1e-15);
            let user = leo_geomath::destination(&ssp, bearing, km);
            let gws = conus_gateways();
            for mode in [PathMode::BentPipe, PathMode::IslRelay] {
                let fast = user_gateway_path(&topo, &gws, &user, 0.0, mode);
                let slow = naive_path(&topo, &gws, &user, 0.0, mode);
                prop_assert!(same_path(&fast, &slow), "{:?}: {:?} vs {:?}", mode, fast, slow);
            }
        }

        #[test]
        fn gateway_search_matches_its_twin_at_the_cap_edge(
            site in 0usize..40,
            bearing in 0.0..360.0f64,
            nudge in -4i32..5,
            alt in 300.0..1500.0f64,
        ) {
            let gws = conus_gateways();
            let lambda = coverage_cap_angle_rad(alt, GATEWAY_MIN_ELEVATION_DEG);
            let km = lambda * EARTH_RADIUS_KM * (1.0 + f64::from(nudge) * 1e-15);
            let ssp = leo_geomath::destination(&gws[site].location, bearing, km);
            let fast = nearest_gateway(&gws[site..=site], &ssp, alt);
            let slow = naive_nearest_gateway(&gws[site..=site], &ssp, alt);
            prop_assert_eq!(
                fast.map(|(g, r)| (g, r.to_bits())),
                slow.map(|(g, r)| (g, r.to_bits()))
            );
        }

        #[test]
        fn paths_match_their_reference_twin(
            planes in 3u32..16,
            per in 3u32..16,
            lat in -60.0..60.0f64,
            lng in -180.0..180.0f64,
            t in Instants,
        ) {
            let topo = IslTopology::plus_grid(WalkerShell::new(550.0, 53.0, planes, per, 1));
            let gws = conus_gateways();
            let user = LatLng::new(lat, lng);
            for mode in [PathMode::BentPipe, PathMode::IslRelay] {
                let fast = user_gateway_path(&topo, &gws, &user, t, mode);
                let slow = naive_path(&topo, &gws, &user, t, mode);
                prop_assert!(same_path(&fast, &slow), "{:?}: {:?} vs {:?}", mode, fast, slow);
            }
        }
    }
}

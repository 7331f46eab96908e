//! Property-based tests for the capacity model's arithmetic.

use leo_capacity::beamspread::{
    beams_required, cells_per_satellite, spread_cell_capacity_gbps, Beamspread,
};
use leo_capacity::oversub::{
    max_locations_servable, required_capacity_gbps, required_oversubscription, Oversubscription,
};
use leo_capacity::SatelliteCapacityModel;
use proptest::prelude::*;

fn oversub() -> impl Strategy<Value = Oversubscription> {
    (1.0..50.0f64).prop_map(|r| Oversubscription::new(r).unwrap())
}

fn spread() -> impl Strategy<Value = Beamspread> {
    (1u32..=20).prop_map(|b| Beamspread::new(b).unwrap())
}

/// The Fig 2 feasibility rule as the coverage sweep applies it.
fn served(m: &SatelliteCapacityModel, locations: u64, o: Oversubscription, b: Beamspread) -> bool {
    locations <= max_locations_servable(spread_cell_capacity_gbps(m, b), o)
}

proptest! {
    #[test]
    fn capacity_location_inverse(locs in 1u64..100_000, rho in oversub()) {
        let cap = required_capacity_gbps(locs, rho);
        prop_assert!(max_locations_servable(cap, rho) >= locs);
    }

    #[test]
    fn required_oversub_inverts_servability(locs in 1u64..50_000, cap in 0.1..100.0f64) {
        let rho = required_oversubscription(locs, cap);
        if let Some(r) = Oversubscription::new(rho.max(1.0) * 1.000_001) {
            prop_assert!(max_locations_servable(cap, r) >= locs);
        }
    }

    #[test]
    fn served_is_monotone_in_oversub(locs in 1u64..10_000, b in spread(),
                                     r1 in 1.0..49.0f64, dr in 0.1..10.0f64) {
        let m = SatelliteCapacityModel::starlink();
        let lo = Oversubscription::new(r1).unwrap();
        let hi = Oversubscription::new(r1 + dr).unwrap();
        // Serving at a low ratio implies serving at a higher one.
        if served(&m, locs, lo, b) {
            prop_assert!(served(&m, locs, hi, b));
        }
    }

    #[test]
    fn served_is_antitone_in_spread(locs in 1u64..10_000, rho in oversub(), b in 1u32..=19) {
        let m = SatelliteCapacityModel::starlink();
        let narrow = Beamspread::new(b).unwrap();
        let wide = Beamspread::new(b + 1).unwrap();
        if served(&m, locs, rho, wide) {
            prop_assert!(served(&m, locs, rho, narrow));
        }
    }

    #[test]
    fn beams_required_is_monotone_and_consistent(locs in 0u64..6_000, rho in oversub()) {
        let m = SatelliteCapacityModel::starlink();
        match beams_required(&m, locs, rho) {
            Some(n) => {
                prop_assert!(n <= 4);
                // n beams suffice; n−1 do not (for n ≥ 1).
                let beam_cap = m.beam_capacity_gbps();
                let demand = locs as f64 * 0.1 / rho.ratio();
                prop_assert!(demand <= n as f64 * beam_cap + 1e-6);
                if n > 1 {
                    prop_assert!(demand > (n - 1) as f64 * beam_cap - 1e-6);
                }
            }
            None => {
                let demand = locs as f64 * 0.1 / rho.ratio();
                prop_assert!(demand > m.max_cell_capacity_gbps() - 1e-6);
            }
        }
    }

    #[test]
    fn cells_per_satellite_formula(peak in 0u32..=4, b in spread()) {
        let m = SatelliteCapacityModel::starlink();
        let got = cells_per_satellite(&m, peak, b);
        prop_assert_eq!(got, (24 - peak) * b.factor() + 1);
    }
}

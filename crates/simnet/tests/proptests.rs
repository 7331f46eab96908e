//! Property-based tests for the flow-level simulator.

use leo_simnet::{max_min_fair, CellSim, SimConfig};
use proptest::prelude::*;

fn caps() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.1..200.0f64, 1..40)
}

proptest! {
    #[test]
    fn fairshare_feasibility_and_conservation(capacity in 0.0..1000.0f64, caps in caps()) {
        let rates = max_min_fair(capacity, &caps);
        prop_assert_eq!(rates.len(), caps.len());
        let total: f64 = rates.iter().sum();
        let cap_total: f64 = caps.iter().sum();
        prop_assert!((total - capacity.min(cap_total)).abs() < 1e-6);
        for (r, c) in rates.iter().zip(caps.iter()) {
            prop_assert!(*r >= 0.0 && *r <= c + 1e-9);
        }
    }

    #[test]
    fn fairshare_is_max_min_optimal(capacity in 1.0..500.0f64, caps in caps()) {
        // Characterization: every flow is either at its cap or at the
        // common share, and uncapped flows all receive the same rate.
        let rates = max_min_fair(capacity, &caps);
        let mut share: Option<f64> = None;
        for (r, c) in rates.iter().zip(caps.iter()) {
            if (r - c).abs() > 1e-9 {
                match share {
                    None => share = Some(*r),
                    Some(s) => prop_assert!((s - r).abs() < 1e-6, "unequal shares {s} vs {r}"),
                }
            }
        }
        // Capped flows never exceed the common share recipients.
        if let Some(s) = share {
            for (r, c) in rates.iter().zip(caps.iter()) {
                if (r - c).abs() <= 1e-9 {
                    prop_assert!(*r <= s + 1e-6);
                }
            }
        }
    }

    #[test]
    fn simulation_respects_plan_rate(oversub in 1.0..40.0f64, seed in 0u64..50) {
        let mut cfg = SimConfig::oversubscribed_cell(0.1, oversub, seed);
        cfg.duration_h = 0.25;
        let records = CellSim::new(cfg.clone()).run();
        for r in &records {
            prop_assert!(r.throughput_mbps() <= cfg.plan_rate_mbps + 1e-6);
            prop_assert!(r.duration_s > 0.0);
            prop_assert!(r.size_bits > 0.0);
            prop_assert!(r.arrival_h >= cfg.start_hour);
            prop_assert!(r.arrival_h <= cfg.start_hour + cfg.duration_h);
        }
    }

    #[test]
    fn simulation_is_deterministic(seed in 0u64..20) {
        let mut cfg = SimConfig::oversubscribed_cell(0.2, 15.0, seed);
        cfg.duration_h = 0.2;
        let a = CellSim::new(cfg.clone()).run();
        let b = CellSim::new(cfg).run();
        prop_assert_eq!(a, b);
    }
}

//! Property-based tests for the flow-level simulator.

use leo_simnet::{CellSim, SimConfig};
use proptest::prelude::*;

proptest! {
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

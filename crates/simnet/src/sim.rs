//! Event-driven processor-sharing simulation of one service cell.
//!
//! Flows arrive as an inhomogeneous Poisson process (intensity driven
//! by the diurnal profile and the subscriber count), carry heavy-tailed
//! sizes, and share the cell's downlink capacity max-min fairly. With a
//! uniform plan rate — the paper's setting, every location buys the
//! same 100 Mbps product — the max-min allocation degenerates to
//! `min(plan, C/n)` for all `n` active flows, which admits the classic
//! exact processor-sharing simulation: track cumulative per-flow
//! *virtual service* `V(t)`; a flow arriving at `V_a` with size `S`
//! completes when `V = V_a + S`. Between events `V` grows at the
//! current common rate, so the engine needs only a heap of completion
//! thresholds — no per-flow bookkeeping on the hot path and no
//! time-stepping error.

use crate::diurnal::DiurnalProfile;
use crate::workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// Configuration of a cell simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cell downlink capacity, Gbps.
    pub capacity_gbps: f64,
    /// Subscriber plan rate, Mbps (the FCC 100 Mbps product).
    pub plan_rate_mbps: f64,
    /// Number of subscribers sharing the cell.
    pub subscribers: u64,
    /// Offered traffic per subscriber at the busy hour, Mbps — the
    /// standard ISP planning figure (2–3 Mbps for residential fixed
    /// broadband).
    pub busy_hour_mbps_per_sub: f64,
    /// Diurnal demand profile.
    pub profile: DiurnalProfile,
    /// Simulation start, hours from midnight.
    pub start_hour: f64,
    /// Simulated span, hours.
    pub duration_h: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// A cell served at `oversub`:1 oversubscription from
    /// `capacity_gbps` of spectrum: the subscriber count is exactly
    /// what that ratio implies.
    pub fn oversubscribed_cell(capacity_gbps: f64, oversub: f64, seed: u64) -> Self {
        let plan = 100.0;
        SimConfig {
            capacity_gbps,
            plan_rate_mbps: plan,
            subscribers: (capacity_gbps * 1000.0 * oversub / plan).floor() as u64,
            busy_hour_mbps_per_sub: 2.5,
            profile: DiurnalProfile::residential(),
            start_hour: 19.0,
            duration_h: 3.0,
            seed,
        }
    }
}

/// One completed flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// Arrival time, hours from midnight.
    pub arrival_h: f64,
    /// Flow size, bits.
    pub size_bits: f64,
    /// Flow duration, seconds.
    pub duration_s: f64,
}

impl FlowRecord {
    /// Average throughput over the flow's lifetime, Mbps.
    pub fn throughput_mbps(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return f64::INFINITY;
        }
        self.size_bits / self.duration_s / 1e6
    }
}

/// The cell simulator.
#[derive(Debug)]
pub struct CellSim {
    cfg: SimConfig,
}

/// Heap entry: completion threshold in virtual-service space.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Completion {
    v_done: f64,
    arrival_s: f64,
    size_bits: f64,
}

impl Eq for Completion {}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on v_done via reversed comparison.
        other
            .v_done
            .partial_cmp(&self.v_done)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl CellSim {
    /// Creates a simulator.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.capacity_gbps > 0.0 && cfg.plan_rate_mbps > 0.0);
        assert!(cfg.duration_h > 0.0);
        CellSim { cfg }
    }

    /// Arrival intensity at `t_s` seconds past the simulation start,
    /// flows per second.
    fn lambda(&self, t_s: f64) -> f64 {
        let hour = self.cfg.start_hour + t_s / 3600.0;
        let offered_bps = self.cfg.subscribers as f64
            * self.cfg.busy_hour_mbps_per_sub
            * 1e6
            * self.cfg.profile.weight_at(hour);
        offered_bps / workload::mean_bits()
    }

    /// Runs the simulation, returning every flow that *completed*
    /// within the span (flows still active at the end are discarded —
    /// a small right-censoring the QoE layer tolerates).
    pub fn run(&self) -> Vec<FlowRecord> {
        let mut records = Vec::new();
        self.for_each_completion(|r| records.push(r));
        records
    }

    /// Runs the simulation, handing each flow that completed within the
    /// span to `sink` in completion order — the flows [`CellSim::run`]
    /// returns, without holding them, so a caller that keeps one number
    /// per flow keeps only that.
    pub fn for_each_completion(&self, mut sink: impl FnMut(FlowRecord)) {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let span_s = cfg.duration_h * 3600.0;
        let cap_bps = cfg.capacity_gbps * 1e9;
        let plan_bps = cfg.plan_rate_mbps * 1e6;
        // Peak arrival intensity for thinning.
        let lambda_max = (0..=(cfg.duration_h.ceil() as u32))
            .map(|h| self.lambda(h as f64 * 3600.0))
            .fold(0.0, f64::max)
            .max(1e-12);

        let mut t = 0.0f64; // seconds
        let mut v = 0.0f64; // cumulative per-flow virtual service, bits
        let mut active: BinaryHeap<Completion> = BinaryHeap::new();

        // Next accepted arrival time, via Poisson thinning.
        let next_arrival = |rng: &mut StdRng, mut from: f64| -> f64 {
            loop {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                from += -u.ln() / lambda_max;
                if from > span_s {
                    return f64::INFINITY;
                }
                if rng.gen_range(0.0..1.0) < self.lambda(from) / lambda_max {
                    return from;
                }
            }
        };
        let mut arrival_t = next_arrival(&mut rng, 0.0);

        loop {
            let n = active.len();
            let rate = if n == 0 {
                0.0
            } else {
                plan_bps.min(cap_bps / n as f64)
            };
            // Time until the earliest completion at the current rate.
            let completion_t = active
                .peek()
                .filter(|_| rate > 0.0)
                .map(|c| t + (c.v_done - v) / rate)
                .unwrap_or(f64::INFINITY);

            if arrival_t.is_infinite() && completion_t.is_infinite() {
                break;
            }
            if arrival_t <= completion_t {
                // Advance virtual time, then admit the flow.
                v += rate * (arrival_t - t);
                t = arrival_t;
                let size = workload::sample(&mut rng);
                active.push(Completion {
                    v_done: v + size,
                    arrival_s: t,
                    size_bits: size,
                });
                arrival_t = next_arrival(&mut rng, t);
            } else {
                if completion_t > span_s {
                    // Remaining flows finish after the horizon; censor.
                    break;
                }
                v += rate * (completion_t - t);
                t = completion_t;
                let done = active.pop().expect("peeked above");
                sink(FlowRecord {
                    arrival_h: cfg.start_hour + done.arrival_s / 3600.0,
                    size_bits: done.size_bits,
                    duration_s: t - done.arrival_s,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(oversub: f64) -> SimConfig {
        let mut cfg = SimConfig::oversubscribed_cell(0.5, oversub, 42);
        cfg.duration_h = 1.0;
        cfg
    }

    #[test]
    fn uncongested_cell_serves_at_plan_rate() {
        // 1:1 oversubscription, load ~2.5% — flows should run at or
        // near the 100 Mbps plan rate.
        let records = CellSim::new(quick_cfg(1.0)).run();
        assert!(records.len() > 20, "only {} flows", records.len());
        let near_plan = records
            .iter()
            .filter(|r| r.throughput_mbps() > 90.0)
            .count() as f64
            / records.len() as f64;
        assert!(near_plan > 0.9, "fraction near plan {near_plan}");
    }

    #[test]
    fn heavily_oversubscribed_cell_degrades() {
        let light = CellSim::new(quick_cfg(5.0)).run();
        let heavy = CellSim::new(quick_cfg(35.0)).run();
        let mean = |rs: &[FlowRecord]| {
            rs.iter().map(FlowRecord::throughput_mbps).sum::<f64>() / rs.len() as f64
        };
        assert!(
            mean(&heavy) < mean(&light) * 0.8,
            "heavy {} vs light {}",
            mean(&heavy),
            mean(&light)
        );
    }

    #[test]
    fn throughput_never_exceeds_plan_rate() {
        let records = CellSim::new(quick_cfg(10.0)).run();
        for r in &records {
            assert!(
                r.throughput_mbps() <= 100.0 + 1e-6,
                "{}",
                r.throughput_mbps()
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = CellSim::new(quick_cfg(10.0)).run();
        let b = CellSim::new(quick_cfg(10.0)).run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn flow_count_tracks_offered_load() {
        // Expected flows ≈ ∫λ dt; check within 3σ-ish.
        let cfg = quick_cfg(20.0);
        let sim = CellSim::new(cfg.clone());
        let records = sim.run();
        // At the busy window the profile ≈ 1; expected count:
        let expect =
            cfg.subscribers as f64 * cfg.busy_hour_mbps_per_sub * 1e6 * 3600.0 * cfg.duration_h
                / workload::mean_bits()
                * 0.97; // profile average over 19:00–20:00
        let got = records.len() as f64;
        assert!(
            (got - expect).abs() / expect < 0.25,
            "flows {got} vs expected {expect}"
        );
    }

    #[test]
    fn empty_when_no_subscribers() {
        let mut cfg = quick_cfg(1.0);
        cfg.subscribers = 0;
        assert!(CellSim::new(cfg).run().is_empty());
    }
}

#[cfg(test)]
mod littles_law {
    use super::*;
    use crate::diurnal::DiurnalProfile;

    /// Little's law (`E[N] = λ·E[T]`) must hold in the steady state of
    /// the processor-sharing engine — a strong end-to-end correctness
    /// check of the event loop, since N is never tracked explicitly.
    #[test]
    fn littles_law_holds_under_flat_load() {
        let mut cfg = SimConfig::oversubscribed_cell(0.5, 20.0, 99);
        cfg.profile = DiurnalProfile::new([1.0; 24]);
        cfg.start_hour = 0.0;
        cfg.duration_h = 6.0;
        let sim = CellSim::new(cfg.clone());
        let records = sim.run();
        let span_s = cfg.duration_h * 3600.0;
        // λ from the realized arrivals; E[T] from realized durations;
        // E[N] from ∑durations / span (time-average occupancy).
        let lambda = records.len() as f64 / span_s;
        let mean_t: f64 = records.iter().map(|r| r.duration_s).sum::<f64>() / records.len() as f64;
        let mean_n: f64 = records.iter().map(|r| r.duration_s).sum::<f64>() / span_s;
        let rel = (mean_n - lambda * mean_t).abs() / mean_n;
        assert!(rel < 1e-9, "identity violated: {rel}");
        // And the occupancy is consistent with offered load: at 20:1
        // on 0.5 Gbps the offered load is 100 subs × 2.5 Mbps = 50% of
        // capacity; flows run near the 100 Mbps cap, so
        // N ≈ load/plan_rate = 2.5 flows on average.
        let offered_bps = cfg.subscribers as f64 * cfg.busy_hour_mbps_per_sub * 1e6;
        let expect_n = offered_bps / (cfg.plan_rate_mbps * 1e6);
        assert!(
            (mean_n - expect_n).abs() / expect_n < 0.25,
            "occupancy {mean_n} vs expected {expect_n}"
        );
    }
}

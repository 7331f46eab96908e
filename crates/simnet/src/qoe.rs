//! Service-quality metrics versus oversubscription (EXT-QOE).
//!
//! The experiment the paper implies but does not run: put a cell at
//! oversubscription ratios between the FCC benchmark (20:1) and the
//! peak-cell requirement (35:1) and measure what subscribers actually
//! experience during the busy hour.

use crate::sim::{CellSim, FlowRecord, SimConfig};

/// Busy-hour service quality at one oversubscription ratio.
#[derive(Debug, Clone)]
pub struct QoeReport {
    /// The oversubscription ratio simulated.
    pub oversub: f64,
    /// Subscribers in the cell.
    pub subscribers: u64,
    /// Completed flows measured.
    pub flows: usize,
    /// Mean flow throughput, Mbps.
    pub mean_mbps: f64,
    /// Median flow throughput, Mbps.
    pub median_mbps: f64,
    /// 10th-percentile flow throughput, Mbps.
    pub p10_mbps: f64,
    /// Fraction of flows that ran at ≥ 95 % of the plan rate — i.e.
    /// subscribers who actually received the broadband they bought.
    pub full_speed_fraction: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Summarizes a flow trace into a [`QoeReport`].
pub fn summarize(oversub: f64, cfg: &SimConfig, records: &[FlowRecord]) -> QoeReport {
    let tputs = records.iter().map(FlowRecord::throughput_mbps).collect();
    summarize_throughputs(oversub, cfg, tputs)
}

/// [`summarize`] from the flows' throughputs alone, Mbps, in
/// completion order.
fn summarize_throughputs(oversub: f64, cfg: &SimConfig, mut tputs: Vec<f64>) -> QoeReport {
    tputs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = tputs.len();
    let mean = if n == 0 {
        0.0
    } else {
        tputs.iter().sum::<f64>() / n as f64
    };
    let full = if n == 0 {
        0.0
    } else {
        tputs
            .iter()
            .filter(|&&t| t >= 0.95 * cfg.plan_rate_mbps)
            .count() as f64
            / n as f64
    };
    QoeReport {
        oversub,
        subscribers: cfg.subscribers,
        flows: n,
        mean_mbps: mean,
        median_mbps: percentile(&tputs, 0.5),
        p10_mbps: percentile(&tputs, 0.1),
        full_speed_fraction: full,
    }
}

/// Runs the busy-hour experiment at each oversubscription ratio over a
/// cell with `capacity_gbps` of downlink. The paper's reference points
/// are {5, 10, 20, 35}.
///
/// Each simulation streams its completions, and only their throughputs
/// are kept: 8 bytes per flow rather than a 24-byte [`FlowRecord`].
pub fn busy_hour_experiment(capacity_gbps: f64, oversubs: &[f64], seed: u64) -> Vec<QoeReport> {
    oversubs
        .iter()
        .map(|&rho| {
            let cfg = SimConfig::oversubscribed_cell(capacity_gbps, rho, seed);
            let mut tputs = Vec::new();
            CellSim::new(cfg.clone()).for_each_completion(|r| tputs.push(r.throughput_mbps()));
            summarize_throughputs(rho, &cfg, tputs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_degrades_monotonically_with_oversubscription() {
        let reports = busy_hour_experiment(0.5, &[5.0, 10.0, 20.0, 35.0], 7);
        assert_eq!(reports.len(), 4);
        for w in reports.windows(2) {
            assert!(
                w[1].median_mbps <= w[0].median_mbps + 5.0,
                "median rose: {} -> {}",
                w[0].median_mbps,
                w[1].median_mbps
            );
            assert!(w[1].full_speed_fraction <= w[0].full_speed_fraction + 0.05);
        }
    }

    #[test]
    fn paper_claim_35_to_1_denies_many_users_full_speed() {
        // F1's qualitative claim: at 35:1, "many users … not receiving
        // 100/20 service".
        let r = &busy_hour_experiment(0.5, &[35.0], 7)[0];
        assert!(
            r.full_speed_fraction < 0.7,
            "at 35:1, {} of flows still ran at full speed",
            r.full_speed_fraction
        );
        assert!(r.mean_mbps < 95.0);
    }

    #[test]
    fn light_oversubscription_is_fine() {
        // Up to the FCC's 20:1 benchmark most flows run at full speed.
        for r in busy_hour_experiment(0.5, &[5.0, 20.0], 7) {
            assert!(
                r.full_speed_fraction > 0.8,
                "at {}:1 only {} at full speed",
                r.oversub,
                r.full_speed_fraction
            );
        }
    }

    #[test]
    fn report_fields_are_consistent() {
        let r = &busy_hour_experiment(0.5, &[20.0], 7)[0];
        assert!(r.p10_mbps <= r.median_mbps);
        assert!(r.median_mbps <= 100.0 + 1e-6);
        assert!(r.flows > 100);
        assert_eq!(r.subscribers, 100); // 0.5 Gbps × 20 / 100 Mbps
    }

    #[test]
    fn streamed_reports_equal_summaries_of_the_full_trace() {
        let oversubs = [5.0, 35.0];
        let reports = busy_hour_experiment(0.5, &oversubs, 7);
        for (r, &rho) in reports.iter().zip(&oversubs) {
            let cfg = SimConfig::oversubscribed_cell(0.5, rho, 7);
            let full = summarize(rho, &cfg, &CellSim::new(cfg.clone()).run());
            assert_eq!(format!("{r:?}"), format!("{full:?}"));
        }
    }

    #[test]
    fn empty_trace_summarizes_to_zeros() {
        let cfg = SimConfig::oversubscribed_cell(0.5, 1.0, 1);
        let r = summarize(1.0, &cfg, &[]);
        assert_eq!(r.flows, 0);
        assert_eq!(r.mean_mbps, 0.0);
        assert_eq!(r.full_speed_fraction, 0.0);
    }
}

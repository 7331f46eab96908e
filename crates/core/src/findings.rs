//! The paper's findings F1–F4, computed end to end from the model.
//!
//! Each finding is a struct of the quantities the paper's finding box
//! quotes, so EXPERIMENTS.md can diff paper-vs-measured line by line.

use crate::{afford, sizing, tail, PaperModel, CURRENT_CONSTELLATION_SIZE};
use leo_capacity::beamspread::Beamspread;
use leo_capacity::oversub::{max_locations_servable, required_oversubscription, Oversubscription};
use leo_capacity::DeploymentPolicy;
use leo_demand::IspPlan;

/// F1: spectrum limits force high oversubscription or shed demand.
#[derive(Debug, Clone, Copy)]
pub struct Finding1 {
    /// Peak-cell location count.
    pub peak_locations: u64,
    /// Peak-cell downlink demand at 100 Mbps/location, Gbps.
    pub peak_demand_gbps: f64,
    /// Oversubscription required to serve the peak cell from the full
    /// cell capacity (the paper's ~35:1).
    pub peak_oversub: f64,
    /// Cells whose demand exceeds the 20:1 capacity.
    pub over_cap_cells: usize,
    /// Locations living in those cells (served at > 20:1 under full
    /// service; 22,428 in the paper).
    pub over_cap_locations: u64,
    /// Locations shed when capping at 20:1 (5,103 in the paper).
    pub unserved_at_cap: u64,
    /// Fraction of locations served at the 20:1 cap (99.89 %).
    pub served_fraction_at_cap: f64,
}

/// Computes F1.
pub fn finding1(model: &PaperModel) -> Finding1 {
    let cap_gbps = model.capacity.max_cell_capacity_gbps();
    let limit = max_locations_servable(cap_gbps, Oversubscription::FCC_CAP);
    let peak = model.dataset.peak_cell();
    let over_cap: Vec<u64> = model
        .dataset
        .cols
        .locations
        .iter()
        .copied()
        .filter(|&l| l > limit)
        .collect();
    let over_cap_locations: u64 = over_cap.iter().sum();
    let unserved_at_cap: u64 = over_cap.iter().map(|l| l - limit).sum();
    let total = model.dataset.total_locations;
    Finding1 {
        peak_locations: peak.locations,
        peak_demand_gbps: peak.locations as f64 * leo_capacity::BROADBAND_DL_MBPS / 1000.0,
        peak_oversub: required_oversubscription(peak.locations, cap_gbps),
        over_cap_cells: over_cap.len(),
        over_cap_locations,
        unserved_at_cap,
        served_fraction_at_cap: 1.0 - unserved_at_cap as f64 / total as f64,
    }
}

/// F2: constellation scale required for full US coverage.
#[derive(Debug, Clone, Copy)]
pub struct Finding2 {
    /// The "current" constellation size the paper quotes (~8,000).
    pub current_size: u64,
    /// Satellites needed at beamspread 2 under the 20:1 cap (the
    /// paper's "over 40,000").
    pub required_b2_capped: u64,
    /// Additional satellites beyond the current constellation
    /// ("more than 32,000").
    pub additional_needed: u64,
}

/// Computes F2.
pub fn finding2(model: &PaperModel) -> Finding2 {
    let required = sizing::constellation_size(
        model,
        DeploymentPolicy::fcc_capped(),
        Beamspread::new(2).expect("nonzero"),
    );
    Finding2 {
        current_size: CURRENT_CONSTELLATION_SIZE,
        required_b2_capped: required,
        additional_needed: required.saturating_sub(CURRENT_CONSTELLATION_SIZE),
    }
}

/// F3: diminishing returns on the demand long tail.
#[derive(Debug, Clone, Copy)]
pub struct Finding3 {
    /// Locations in the evaluated tail (~3,000).
    pub tail_locations: u64,
    /// Marginal satellites required to serve that tail at beamspread 5,
    /// 20:1 (paper: "a couple hundred to a couple thousand").
    pub marginal_satellites: u64,
}

/// Computes F3 at the paper's reference configuration.
pub fn finding3(model: &PaperModel) -> Finding3 {
    let (sats, locs) = tail::marginal_cost_of_tail(
        model,
        Oversubscription::FCC_CAP,
        Beamspread::new(5).expect("nonzero"),
        3_000,
    );
    Finding3 {
        tail_locations: locs,
        marginal_satellites: sats,
    }
}

/// F4: affordability.
#[derive(Debug, Clone, Copy)]
pub struct Finding4 {
    /// Total un(der)served locations.
    pub total_locations: u64,
    /// Locations that cannot afford Starlink Residential ($120/mo).
    pub unaffordable_residential: u64,
    /// Locations that cannot afford it even with Lifeline ($110.75/mo).
    pub unaffordable_with_lifeline: u64,
    /// Fraction of locations for which the comparison cable plans are
    /// affordable (paper: > 99.99 %).
    pub cable_affordable_fraction: f64,
}

/// Computes F4.
pub fn finding4(model: &PaperModel) -> Finding4 {
    let residential = afford::affordability(model, IspPlan::starlink_residential());
    let lifeline = afford::affordability(model, IspPlan::starlink_with_lifeline());
    let spectrum = afford::affordability(model, IspPlan::spectrum_premier());
    Finding4 {
        total_locations: model.dataset.total_locations,
        unaffordable_residential: residential.unaffordable_locations,
        unaffordable_with_lifeline: lifeline.unaffordable_locations,
        cable_affordable_fraction: 1.0 - spectrum.unaffordable_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> &'static PaperModel {
        crate::testutil::model()
    }

    #[test]
    fn f1_matches_paper() {
        let f = finding1(model());
        assert_eq!(f.peak_locations, 5998);
        assert!((f.peak_demand_gbps - 599.8).abs() < 1e-9);
        assert!((f.peak_oversub - 34.62).abs() < 0.1);
        assert_eq!(f.over_cap_cells, 5);
        assert_eq!(f.over_cap_locations, 22_428);
        assert_eq!(f.unserved_at_cap, 5_103);
        // At test scale the served fraction differs from 99.89% only
        // through the smaller total.
        assert!(f.served_fraction_at_cap > 0.95);
    }

    #[test]
    fn f2_matches_paper() {
        let f = finding2(model());
        assert!(f.required_b2_capped > 40_000, "{}", f.required_b2_capped);
        assert!(f.additional_needed > 32_000);
    }

    #[test]
    fn f3_tail_is_expensive() {
        let f = finding3(model());
        assert!(f.tail_locations >= 3_000);
        assert!(
            (100..20_000).contains(&f.marginal_satellites),
            "marginal {}",
            f.marginal_satellites
        );
    }

    #[test]
    fn f4_shapes() {
        let f = finding4(model());
        let frac = f.unaffordable_residential as f64 / f.total_locations as f64;
        assert!((frac - 0.745).abs() < 0.05, "residential fraction {frac}");
        assert!(f.unaffordable_with_lifeline < f.unaffordable_residential);
        assert!(f.cable_affordable_fraction > 0.999);
    }
}

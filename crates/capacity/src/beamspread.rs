//! Beamspread: serving multiple cells with one spot beam.
//!
//! Spreading a beam over `b` cells lets a satellite cover `b×` more
//! cells than it has beams, at the cost of dividing the beam's channel
//! capacity among the spread cells. The paper sweeps beamspread factors
//! 1–15 (Table 2, Figs 2–3).
//!
//! Conventions (DESIGN.md §4):
//!
//! * A cell's deliverable capacity under spread `b` with its full
//!   four-beam complement is `17.325/b` Gbps — each of the four beams
//!   gives the cell a `1/b` share.
//! * A cell is **served** at `(ρ, b)` iff its location count fits within
//!   that capacity at oversubscription `ρ` (Fig 2's model).
//! * The satellite over the peak-demand cell dedicates `n_peak` beams
//!   to it and spreads its remaining `24 − n_peak` beams over `b` cells
//!   each, covering `(24 − n_peak)·b + 1` cells total (Table 2's model;
//!   with `n_peak = 4` this is the paper's `20b + 1`).

use crate::oversub::Oversubscription;
use crate::spectrum::SatelliteCapacityModel;
use crate::BROADBAND_DL_MBPS;

/// A beamspread factor: one beam covers `factor` cells. The paper
/// treats it as an integer ≥ 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Beamspread(u32);

impl Beamspread {
    /// Creates a beamspread factor (≥ 1).
    pub fn new(factor: u32) -> Option<Self> {
        if factor >= 1 {
            Some(Beamspread(factor))
        } else {
            None
        }
    }

    /// No spreading.
    pub const ONE: Beamspread = Beamspread(1);

    /// The factor.
    pub fn factor(&self) -> u32 {
        self.0
    }
}

/// Capacity deliverable to one cell when its serving beams are spread
/// over `spread` cells each, Gbps.
pub fn spread_cell_capacity_gbps(model: &SatelliteCapacityModel, spread: Beamspread) -> f64 {
    model.max_cell_capacity_gbps() / spread.factor() as f64
}

/// Number of dedicated (unspread) beams a cell needs so its demand fits
/// at oversubscription `oversub`: `ceil(demand / ρ / beam_capacity)`.
/// Returns `None` when even the full four-beam complement is
/// insufficient (the cell is unservable at this ratio).
pub fn beams_required(
    model: &SatelliteCapacityModel,
    locations: u64,
    oversub: Oversubscription,
) -> Option<u32> {
    if locations == 0 {
        return Some(0);
    }
    let need = locations as f64 * BROADBAND_DL_MBPS / 1000.0 / oversub.ratio();
    let beams = (need / model.beam_capacity_gbps() - 1e-9).ceil() as u32;
    let beams = beams.max(1);
    if beams <= model.beams_per_full_cell {
        Some(beams)
    } else {
        None
    }
}

/// Number of cells one satellite can keep continuously served when the
/// local peak cell consumes `peak_beams` dedicated beams and every
/// remaining beam is spread over `spread` cells:
/// `(ut_beams − peak_beams)·spread + 1`.
pub fn cells_per_satellite(
    model: &SatelliteCapacityModel,
    peak_beams: u32,
    spread: Beamspread,
) -> u32 {
    let free = model.ut_beams().saturating_sub(peak_beams);
    free * spread.factor() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oversub::max_locations_servable;

    fn model() -> SatelliteCapacityModel {
        SatelliteCapacityModel::starlink()
    }

    /// The Fig 2 feasibility rule as the coverage sweep applies it: a
    /// cell is served when its count is within the servable limit.
    fn served(
        m: &SatelliteCapacityModel,
        locations: u64,
        o: Oversubscription,
        b: Beamspread,
    ) -> bool {
        locations <= max_locations_servable(spread_cell_capacity_gbps(m, b), o)
    }

    #[test]
    fn beamspread_validation() {
        assert!(Beamspread::new(0).is_none());
        assert_eq!(Beamspread::new(5).unwrap().factor(), 5);
    }

    #[test]
    fn spread_divides_capacity() {
        let m = model();
        let full = spread_cell_capacity_gbps(&m, Beamspread::ONE);
        assert!((full - 17.325).abs() < 1e-9);
        let fifth = spread_cell_capacity_gbps(&m, Beamspread::new(5).unwrap());
        assert!((fifth - 17.325 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn fig2_corner_checks() {
        // (b=2, ρ=30): cells up to 2598 locations are served.
        let m = model();
        let rho30 = Oversubscription::new(30.0).unwrap();
        let b2 = Beamspread::new(2).unwrap();
        assert!(served(&m, 2598, rho30, b2));
        assert!(!served(&m, 2600, rho30, b2));
        // (b=14, ρ=5): only tiny cells are served (~61 locations).
        let rho5 = Oversubscription::new(5.0).unwrap();
        let b14 = Beamspread::new(14).unwrap();
        assert!(served(&m, 61, rho5, b14));
        assert!(!served(&m, 63, rho5, b14));
    }

    #[test]
    fn peak_cell_served_only_at_35_to_1_unspread() {
        let m = model();
        let b1 = Beamspread::ONE;
        assert!(served(&m, 5998, Oversubscription::new(35.0).unwrap(), b1));
        assert!(!served(&m, 5998, Oversubscription::new(34.0).unwrap(), b1));
        assert!(!served(&m, 5998, Oversubscription::FCC_CAP, b1));
    }

    #[test]
    fn beams_required_thresholds_at_20_to_1() {
        // Beam capacity 4.33125 Gbps at 20:1 covers 866.25 locations ⇒
        // thresholds at 866/1732/2599/3465.
        let m = model();
        let rho = Oversubscription::FCC_CAP;
        assert_eq!(beams_required(&m, 0, rho), Some(0));
        assert_eq!(beams_required(&m, 1, rho), Some(1));
        assert_eq!(beams_required(&m, 866, rho), Some(1));
        assert_eq!(beams_required(&m, 867, rho), Some(2));
        assert_eq!(beams_required(&m, 1732, rho), Some(2));
        assert_eq!(beams_required(&m, 1733, rho), Some(3));
        assert_eq!(beams_required(&m, 2598, rho), Some(3));
        assert_eq!(beams_required(&m, 2599, rho), Some(4));
        assert_eq!(beams_required(&m, 3465, rho), Some(4));
        assert_eq!(beams_required(&m, 3466, rho), None);
    }

    #[test]
    fn paper_cells_per_satellite_is_20b_plus_1() {
        let m = model();
        for b in [1u32, 2, 5, 10, 15] {
            let c = cells_per_satellite(&m, 4, Beamspread::new(b).unwrap());
            assert_eq!(c, 20 * b + 1);
        }
    }

    #[test]
    fn freeing_peak_beams_grows_cell_budget() {
        let m = model();
        let b = Beamspread::new(10).unwrap();
        let mut prev = 0;
        for peak in (0..=4u32).rev() {
            let c = cells_per_satellite(&m, peak, b);
            assert!(c > prev);
            prev = c;
        }
        assert_eq!(cells_per_satellite(&m, 0, b), 241);
    }

    #[test]
    fn served_monotone_in_oversub_and_antitone_in_spread() {
        let m = model();
        let locs = 1500;
        let mut served_count = 0;
        for rho in 1..=30 {
            let o = Oversubscription::new(rho as f64).unwrap();
            if served(&m, locs, o, Beamspread::ONE) {
                served_count += 1;
                // Once served, stays served at higher ρ (monotonicity
                // check via the running pattern).
            }
        }
        assert!(served_count > 0);
        // Antitone in spread at fixed ρ.
        let o = Oversubscription::FCC_CAP;
        let mut prev = true;
        for b in 1..=15 {
            let s = served(&m, locs, o, Beamspread::new(b).unwrap());
            assert!(prev || !s, "service resumed at larger spread {b}");
            prev = s;
        }
    }
}

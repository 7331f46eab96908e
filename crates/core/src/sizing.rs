//! Constellation sizing from peak demand density (Table 2 / F2).
//!
//! The paper's lower bound (§3.0.2): the satellite over the
//! bandwidth-neediest cell dedicates `n_peak` beams to it (4 in both
//! headline scenarios) and spreads its remaining `24 − n_peak` beams
//! over `b` cells each, so one satellite keeps `(24 − n_peak)·b + 1`
//! cells covered. Full coverage then requires one satellite per that
//! many cells *at the peak cell's location*; the latitude-density model
//! of `leo-orbit` converts that local requirement into a total
//! constellation size:
//!
//! ```text
//! N(b) = ⌈ A_earth / ( d(φ_peak, 53°) · ((24 − n_peak)·b + 1) · A_cell ) ⌉
//! ```
//!
//! Scenario selection of the peak cell:
//!
//! * **full service** — the global maximum-demand cell (5,998
//!   locations at 37.0° N in the calibrated dataset);
//! * **20:1 cap** — the largest cell the deployment *fully serves*
//!   (3,460 locations at 36.43° N), since cells above the cap are
//!   served only partially and the constellation is provisioned for
//!   the demand it commits to. The capped peak sits at a latitude with
//!   ≈1.6 % less satellite density, which is why Table 2's capped
//!   column is slightly **larger** — matching the paper.

use crate::{PaperModel, SIZING_INCLINATION_DEG};
use leo_capacity::beamspread::{beams_required, cells_per_satellite, Beamspread};
use leo_capacity::oversub::{max_locations_servable, Oversubscription};
use leo_capacity::scenario::DeploymentPolicy;
use leo_demand::CellDemand;
use leo_hexgrid::STARLINK_CELL_AREA_KM2;
use leo_orbit::{constellation_size_for_factor, density_factor};

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingRow {
    /// Beamspread scaling factor.
    pub beamspread: u32,
    /// Constellation size under the full-service deployment.
    pub full_service: u64,
    /// Constellation size under the 20:1 oversubscription cap.
    pub capped: u64,
}

/// Constellation size for an explicit peak cell and beam assignment.
///
/// Returns `None` if the peak cell's latitude is never overflown by the
/// sizing inclination (cannot happen for CONUS under 53° shells).
pub fn constellation_size_at(
    model: &PaperModel,
    peak_lat_deg: f64,
    peak_beams: u32,
    spread: Beamspread,
) -> Option<u64> {
    let d = density_factor(peak_lat_deg, SIZING_INCLINATION_DEG)?;
    Some(constellation_size_at_factor(model, d, peak_beams, spread))
}

/// [`constellation_size_at`] for a peak cell whose sizing-inclination
/// [`density_factor`] `d` is already known, so a caller sizing one cell
/// under several beamspreads evaluates `d` once.
pub(crate) fn constellation_size_at_factor(
    model: &PaperModel,
    d: f64,
    peak_beams: u32,
    spread: Beamspread,
) -> u64 {
    let cells = cells_per_satellite(&model.capacity, peak_beams, spread);
    let required_density = 1.0 / (cells as f64 * STARLINK_CELL_AREA_KM2);
    constellation_size_for_factor(required_density, d).ceil() as u64
}

/// The binding (peak) cell of a deployment policy: the cell whose
/// *served* demand is largest.
pub fn binding_cell(model: &PaperModel, policy: DeploymentPolicy) -> CellDemand {
    match policy {
        DeploymentPolicy::FullService => model.dataset.peak_cell(),
        DeploymentPolicy::OversubCap(cap) => {
            let limit = max_locations_servable(model.capacity.max_cell_capacity_gbps(), cap);
            model
                .dataset
                .peak_cell_at_most(limit)
                .unwrap_or_else(|| model.dataset.peak_cell())
        }
    }
}

/// Constellation size for a deployment policy and beamspread factor.
pub fn constellation_size(model: &PaperModel, policy: DeploymentPolicy, spread: Beamspread) -> u64 {
    let peak = binding_cell(model, policy);
    // The peak cell's beam complement: enough beams for its served
    // demand at the FCC benchmark (or the policy cap), topping out at 4.
    let rho = match policy {
        DeploymentPolicy::FullService => Oversubscription::FCC_CAP,
        DeploymentPolicy::OversubCap(cap) => cap,
    };
    let beams = beams_required(&model.capacity, peak.locations, rho)
        .unwrap_or(model.capacity.beams_per_full_cell);
    constellation_size_at(model, peak.center.lat_deg(), beams, spread)
        .expect("CONUS latitudes are overflown by 53-degree shells")
}

/// Computes Table 2 for the paper's beamspread factors {1, 2, 5, 10, 15}.
pub fn table2(model: &PaperModel) -> Vec<SizingRow> {
    [1u32, 2, 5, 10, 15]
        .iter()
        .map(|&b| {
            let spread = Beamspread::new(b).expect("nonzero");
            SizingRow {
                beamspread: b,
                full_service: constellation_size(model, DeploymentPolicy::full_service(), spread),
                capped: constellation_size(model, DeploymentPolicy::fcc_capped(), spread),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> &'static PaperModel {
        crate::testutil::model()
    }

    #[test]
    fn table2_matches_paper_within_one_percent() {
        // Paper values: full service {79287, 40611, 16486, 8284, 5532},
        // capped {80567, 41261, 16750, 8417, 5621}.
        let rows = table2(model());
        let paper_full = [79_287u64, 40_611, 16_486, 8_284, 5_532];
        let paper_capped = [80_567u64, 41_261, 16_750, 8_417, 5_621];
        for ((row, &pf), &pc) in rows.iter().zip(&paper_full).zip(&paper_capped) {
            let rel_f = (row.full_service as f64 - pf as f64).abs() / pf as f64;
            let rel_c = (row.capped as f64 - pc as f64).abs() / pc as f64;
            assert!(
                rel_f < 0.01,
                "b={} full {} vs paper {pf}",
                row.beamspread,
                row.full_service
            );
            assert!(
                rel_c < 0.01,
                "b={} capped {} vs paper {pc}",
                row.beamspread,
                row.capped
            );
        }
    }

    #[test]
    fn capped_scenario_needs_slightly_more_satellites() {
        for row in table2(model()) {
            assert!(
                row.capped > row.full_service,
                "b={}: capped {} vs full {}",
                row.beamspread,
                row.capped,
                row.full_service
            );
            let rel = row.capped as f64 / row.full_service as f64;
            assert!((rel - 1.016).abs() < 0.01, "ratio {rel}");
        }
    }

    #[test]
    fn size_decreases_with_beamspread() {
        let rows = table2(model());
        for w in rows.windows(2) {
            assert!(w[0].full_service > w[1].full_service);
            assert!(w[0].capped > w[1].capped);
        }
    }

    #[test]
    fn requirement_varies_mildly_with_oversub() {
        // ρ changes which cell binds and its beam count — the effect is
        // second-order relative to beamspread (the binding cell keeps
        // its 4 beams across the upper ρ range).
        let m = model();
        let spread = Beamspread::new(5).unwrap();
        let row: Vec<u64> = [15.0, 20.0, 25.0, 30.0, 35.0]
            .into_iter()
            .map(|r| {
                let cap = DeploymentPolicy::OversubCap(Oversubscription::new(r).unwrap());
                constellation_size(m, cap, spread)
            })
            .collect();
        let min = *row.iter().min().unwrap() as f64;
        let max = *row.iter().max().unwrap() as f64;
        assert!(max / min < 1.35, "min {min} max {max}");
    }

    #[test]
    fn paper_finding2_shape() {
        // F2: serving all US cells within acceptable oversubscription
        // (beamspread < 2) needs > 40,000 satellites — more than
        // 32,000 beyond the current ~8,000.
        let m = model();
        let b2 = constellation_size(
            m,
            DeploymentPolicy::fcc_capped(),
            Beamspread::new(2).unwrap(),
        );
        assert!(b2 > 40_000, "b=2 capped {b2}");
        assert!(b2 - crate::CURRENT_CONSTELLATION_SIZE > 32_000);
    }

    #[test]
    fn binding_cells_are_the_anchors() {
        let m = model();
        let full = binding_cell(m, DeploymentPolicy::full_service());
        assert_eq!(full.locations, 5998);
        let capped = binding_cell(m, DeploymentPolicy::fcc_capped());
        assert_eq!(capped.locations, 3460);
        assert!(capped.center.lat_deg() < full.center.lat_deg());
    }

    #[test]
    fn fewer_peak_beams_shrink_the_constellation() {
        let m = model();
        let spread = Beamspread::new(5).unwrap();
        let mut prev = u64::MAX;
        for beams in [4u32, 3, 2, 1] {
            let n = constellation_size_at(m, 37.0, beams, spread).unwrap();
            assert!(n < prev, "beams {beams}: {n}");
            prev = n;
        }
    }

    #[test]
    fn polar_latitude_is_rejected() {
        let m = model();
        assert!(constellation_size_at(m, 80.0, 4, Beamspread::ONE).is_none());
    }
}

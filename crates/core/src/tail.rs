//! Figure 3: diminishing returns of serving the demand long tail.
//!
//! For a fixed oversubscription ratio and beamspread factor, the
//! constellation size is the maximum over **peak-class cells** of the
//! per-cell lower bound
//!
//! ```text
//! bound(c) = A_earth / ( d(φ_c) · ((24 − n_c)·b + 1) · A_cell )
//! ```
//!
//! where `n_c` is the dedicated beams the cell's *served* demand needs.
//! Following the paper's "generous assumption that no other cell around
//! the bandwidth-neediest cell requires more than one spot beam", only
//! cells needing `n_c ≥ 2` act as peaks; single-beam cells are ordinary
//! spread-served neighbours and impose no bound of their own.
//!
//! Walking down the tail — declining to serve the currently binding
//! cell — produces the monotone stepped curve of Fig 3: a large drop
//! whenever the maximum beam class falls (4→3→2), small latitude drift
//! within a class. F3's headline is the very first step: shedding the
//! largest servable cell (~3,460 locations at 36.43° N) alone saves a
//! couple hundred satellites at high beamspread and over a thousand at
//! beamspread 1.

use crate::{sizing, PaperModel};
use leo_capacity::beamspread::{beams_required, Beamspread};
use leo_capacity::oversub::{max_locations_servable, Oversubscription};
use leo_parallel::par_map;

/// One point of the Fig 3 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailPoint {
    /// Locations left unserved (partial-service excess plus all
    /// locations of dropped cells).
    pub unserved: u64,
    /// Constellation size required to serve the rest.
    pub constellation: u64,
}

/// A Fig 3 curve for one `(beamspread, oversubscription)` pair.
#[derive(Debug, Clone)]
pub struct TailCurve {
    /// Beamspread factor.
    pub beamspread: u32,
    /// Oversubscription ratio.
    pub oversub: f64,
    /// Curve points, in increasing `unserved` order; the constellation
    /// column is non-increasing.
    pub points: Vec<TailPoint>,
}

/// Computes the tail curve: starting from serving every servable
/// location, shed the binding cells one at a time until at least
/// `max_unserved` locations are unserved (or the multi-beam peak class
/// is exhausted).
pub fn tail_curve(
    model: &PaperModel,
    oversub: Oversubscription,
    spread: Beamspread,
    max_unserved: u64,
) -> TailCurve {
    let limit = max_locations_servable(model.capacity.max_cell_capacity_gbps(), oversub);

    // Candidate peak cells: served demand needs ≥ 2 dedicated beams.
    // Each imposes a static bound (constellation needed while it is
    // served). Per-cell bounds are independent, so the scan fans out.
    let cols = &model.dataset.cols;
    let mut candidates: Vec<(u64, u64)> = par_map(&cols.locations, |i, &locations| {
        let served = locations.min(limit);
        let beams = beams_required(&model.capacity, served, oversub)
            .expect("served demand fits by construction");
        if beams < 2 {
            return None;
        }
        let bound = sizing::constellation_size_at(model, cols.lat_deg[i], beams, spread)
            .expect("CONUS latitude");
        Some((bound, served))
    })
    .into_iter()
    .flatten()
    .collect();
    // Partial-service excess is unserved from the start — one
    // branch-free fold over the contiguous counts column.
    let baseline = cols.unserved_above(limit);

    // Binding-first order; dropping the argmax cell each step keeps
    // the curve monotone by construction.
    candidates.sort_unstable_by(|a, b| b.cmp(a));

    let mut points = Vec::new();
    let mut unserved = baseline;
    for (k, &(bound, served)) in candidates.iter().enumerate() {
        points.push(TailPoint {
            unserved,
            constellation: bound,
        });
        if unserved >= max_unserved || k + 1 == candidates.len() {
            break;
        }
        unserved += served;
    }
    TailCurve {
        beamspread: spread.factor(),
        oversub: oversub.ratio(),
        points,
    }
}

/// The paper's Fig 3 curve family: beamspreads {1, 2, 5, 10, 15} at
/// 20:1 plus beamspread 5 at 15:1. The six curves are independent and
/// computed in parallel.
pub fn figure3(model: &PaperModel, max_unserved: u64) -> Vec<TailCurve> {
    let _span = leo_obs::span!("fig3.curves");
    let specs: [(f64, u32); 6] = [
        (20.0, 1),
        (20.0, 2),
        (20.0, 5),
        (20.0, 10),
        (20.0, 15),
        (15.0, 5),
    ];
    par_map(&specs, |_, &(rho, b)| {
        tail_curve(
            model,
            Oversubscription::new(rho).expect("valid"),
            Beamspread::new(b).expect("nonzero"),
            max_unserved,
        )
    })
}

/// Marginal cost of the last `tail_locations` servable locations: the
/// extra satellites needed to serve them versus stopping short (F3's
/// headline). Returns `(satellites, exact_locations)` where
/// `exact_locations` is the smallest shed amount ≥ `tail_locations`
/// reachable by whole cells.
pub fn marginal_cost_of_tail(
    model: &PaperModel,
    oversub: Oversubscription,
    spread: Beamspread,
    tail_locations: u64,
) -> (u64, u64) {
    let curve = tail_curve(model, oversub, spread, u64::MAX);
    let full = curve.points.first().map(|p| p.constellation).unwrap_or(0);
    let base_unserved = curve.points.first().map(|p| p.unserved).unwrap_or(0);
    for p in &curve.points {
        if p.unserved - base_unserved >= tail_locations {
            return (full - p.constellation, p.unserved - base_unserved);
        }
    }
    (0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> &'static PaperModel {
        crate::testutil::model()
    }

    #[test]
    fn curve_is_monotone() {
        let m = model();
        let c = tail_curve(
            m,
            Oversubscription::FCC_CAP,
            Beamspread::new(5).unwrap(),
            50_000,
        );
        assert!(c.points.len() > 3);
        for w in c.points.windows(2) {
            assert!(w[0].unserved <= w[1].unserved);
            assert!(w[0].constellation >= w[1].constellation);
        }
    }

    #[test]
    fn baseline_unserved_matches_anchor_excess() {
        // At 20:1 the partial-service excess is the 5,103 locations the
        // anchors hold beyond 3,465 each.
        let m = model();
        let c = tail_curve(m, Oversubscription::FCC_CAP, Beamspread::ONE, 10_000);
        assert_eq!(c.points[0].unserved, 5_103);
    }

    #[test]
    fn first_point_matches_table2() {
        let m = model();
        for b in [1u32, 2, 5] {
            let spread = Beamspread::new(b).unwrap();
            let c = tail_curve(m, Oversubscription::FCC_CAP, spread, 1_000);
            let t2 =
                sizing::constellation_size(m, leo_capacity::DeploymentPolicy::fcc_capped(), spread);
            assert_eq!(c.points[0].constellation, t2, "b={b}");
        }
    }

    #[test]
    fn f3_first_step_is_the_capped_anchor() {
        // Shedding the binding cell (3,460 locations at 36.43° N) drops
        // the bound to the 37.0° N peak cell's — a couple hundred
        // satellites at beamspread 5, over a thousand at beamspread 1.
        let m = model();
        let c5 = tail_curve(
            m,
            Oversubscription::FCC_CAP,
            Beamspread::new(5).unwrap(),
            u64::MAX,
        );
        let step5 = c5.points[0].constellation - c5.points[1].constellation;
        assert!((150..500).contains(&step5), "b=5 first step {step5}");
        assert_eq!(c5.points[1].unserved - c5.points[0].unserved, 3_460);
        let c1 = tail_curve(m, Oversubscription::FCC_CAP, Beamspread::ONE, u64::MAX);
        let step1 = c1.points[0].constellation - c1.points[1].constellation;
        assert!((800..2_500).contains(&step1), "b=1 first step {step1}");
    }

    #[test]
    fn beam_class_steps_exist() {
        // Once the six 4-beam cells are shed, the bound falls to the
        // 3-beam class: a ≥4% drop at beamspread 10.
        let m = model();
        let c = tail_curve(
            m,
            Oversubscription::FCC_CAP,
            Beamspread::new(10).unwrap(),
            u64::MAX,
        );
        let first = c.points.first().unwrap().constellation;
        let last = c.points.last().unwrap().constellation;
        assert!(
            (first as f64 - last as f64) / first as f64 > 0.04,
            "first {first} last {last}"
        );
    }

    #[test]
    fn tighter_oversub_needs_more_satellites() {
        let m = model();
        let spread = Beamspread::new(5).unwrap();
        let c20 = tail_curve(m, Oversubscription::FCC_CAP, spread, 1).points[0].constellation;
        let c15 =
            tail_curve(m, Oversubscription::new(15.0).unwrap(), spread, 1).points[0].constellation;
        assert!(c15 >= c20, "15:1 {c15} vs 20:1 {c20}");
    }

    #[test]
    fn figure3_family_has_six_curves() {
        let m = model();
        let f = figure3(m, 30_000);
        assert_eq!(f.len(), 6);
        // Curves ordered by beamspread are ordered by constellation.
        let starts: Vec<u64> = f.iter().map(|c| c.points[0].constellation).collect();
        assert!(starts[0] > starts[1] && starts[1] > starts[2]);
    }

    #[test]
    fn marginal_tail_cost_is_substantial() {
        // F3: the last ~3,000 locations cost hundreds of satellites at
        // beamspread 5 (and >1,000 at beamspread 1).
        let m = model();
        let (sats, locs) = marginal_cost_of_tail(
            m,
            Oversubscription::FCC_CAP,
            Beamspread::new(5).unwrap(),
            3_000,
        );
        assert!(locs >= 3_000);
        assert!(sats > 100, "marginal satellites {sats}");
    }
}

//! The certified demand order (DESIGN.md §18) against its reference
//! twin. `rank_candidates` must return exactly the order of sorting the
//! exact scores. The paper seeds check the whole pipeline, but their
//! exact scores sit far further apart than the approximation's error,
//! so `certify_order` itself is checked on constructed near-ties.

mod naive;

use leo_demand::dataset::{certify_order, polyfill_on_pool, rank_candidates};
use leo_demand::field::SCORE_EPS;
use leo_demand::geography::conus_polygon;
use leo_hexgrid::{CellId, GeoHexGrid};
use leo_parallel::with_threads;
use proptest::prelude::*;

#[test]
fn the_row_fan_out_matches_the_single_loop_scan() {
    let poly = conus_polygon();
    let reference = naive::polyfill(&poly);
    assert!(reference.len() > 31_000, "{} cells", reference.len());
    let grid = GeoHexGrid::starlink();
    for threads in [1, 3] {
        let rows = with_threads(threads, || polyfill_on_pool(&grid, &poly));
        assert!(naive::same_cells(&rows, &reference), "threads {threads}");
    }
}

#[test]
fn rank_candidates_matches_the_exact_twin_on_fixed_seeds() {
    let (grid, bbox, cells, candidates) = naive::paper_candidates();
    assert!(candidates.len() > 30_000, "{} candidates", candidates.len());
    for seed in [7, 2, 2024] {
        let fast = rank_candidates(seed, &bbox, &cells, &candidates);
        let slow = naive::naive_rank(seed, &bbox, &grid, &cells, &candidates);
        assert!(naive::same_ranking(&cells, &fast, &slow), "seed {seed}");
    }
}

#[test]
fn approximate_scores_are_within_eps_on_the_paper_candidates() {
    let (grid, bbox, cells, candidates) = naive::paper_candidates();
    let field = naive::field(7, &bbox);
    let mut worst = 0.0f64;
    for &pos in &candidates {
        let id = cells[pos as usize].0;
        let c = grid.cell_center(id);
        let approx = naive::score(7, id, &c, field.approx_value(c.to_unit_vec()));
        let exact = naive::score(7, id, &c, field.value(&c));
        worst = worst.max((approx - exact).abs());
    }
    assert!(
        worst < SCORE_EPS,
        "max |approx − exact| {worst:e} ≥ ε {SCORE_EPS:e}"
    );
}

/// A dyadic ε, so every constructed score, gap and perturbation below
/// is exact in `f64` and `|approx − exact| ≤ ε` holds to the bit.
const EPS: f64 = 1.0 / (1u64 << 30) as f64;

/// Sorts by `(score desc, id asc)`, the order both sides use.
fn sort_desc(items: &mut [(f64, CellId, f64)]) {
    items.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
}

/// Orders `(id, exact, approx)` triples by approximate score, certifies
/// the order and returns the ids with the number of exact evaluations.
fn certified(cells: &[(u64, f64, f64)]) -> (Vec<CellId>, u64) {
    let mut items: Vec<(f64, CellId, f64)> = cells
        .iter()
        .map(|&(id, exact, approx)| (approx, CellId::from_u64(id).unwrap(), exact))
        .collect();
    sort_desc(&mut items);
    let mut calls = 0;
    let n = certify_order(&mut items, EPS, |_, &exact| {
        calls += 1;
        exact
    });
    assert_eq!(n, calls);
    (items.iter().map(|i| i.1).collect(), n)
}

/// The ids sorted by `(exact desc, id asc)`.
fn exact_order(cells: &[(u64, f64, f64)]) -> Vec<CellId> {
    let mut items: Vec<(f64, CellId, f64)> = cells
        .iter()
        .map(|&(id, exact, _)| (exact, CellId::from_u64(id).unwrap(), exact))
        .collect();
    sort_desc(&mut items);
    items.iter().map(|i| i.1).collect()
}

#[test]
fn certify_order_resolves_the_boundary_cases() {
    // Exact gap ε/2 reversed by ±ε noise: an approximate gap of 1.5ε.
    let x = 1.0;
    let reversed = [(1, x, x + EPS), (2, x + EPS / 2.0, x - EPS / 2.0)];
    assert_eq!(certified(&reversed), (exact_order(&reversed), 2));
    // An exact tie pulled apart to an approximate gap of exactly 2ε:
    // the lower id must still come first.
    let tie = [(9, x, x + EPS), (3, x, x - EPS)];
    assert_eq!(certified(&tie), (exact_order(&tie), 2));
    // A gap just over 2ε is forced: nothing is re-scored.
    let apart = [(9, x, x + EPS), (3, x - 2.0 * EPS, x - EPS - EPS / 4.0)];
    assert_eq!(certified(&apart), (exact_order(&apart), 0));
    assert_eq!(certified(&[]), (vec![], 0));
    assert_eq!(certified(&[(5, x, x)]), (exact_order(&[(5, x, x)]), 0));
}

// Exact scores descend by gaps drawn from {0, ε/2, ε, 2ε, 3ε}, ids
// are shuffled, and each approximate score is the exact one moved by
// -ε, -ε/2, 0, ε/2 or ε. The certified order must equal the exact
// order, ties broken by id.
proptest! {
    #[test]
    fn certify_order_equals_the_exact_order_on_near_ties(
        steps in proptest::collection::vec((0usize..5, 0usize..5), 1..64),
        seed in 0..u64::MAX,
    ) {
        let gaps = [0.0, EPS / 2.0, EPS, 2.0 * EPS, 3.0 * EPS];
        let noise = [-EPS, -EPS / 2.0, 0.0, EPS / 2.0, EPS];
        let mut ids: Vec<u64> = (1..=steps.len() as u64).collect();
        // Fisher–Yates driven by a 64-bit LCG seeded from `seed`.
        let mut s = seed | 1;
        for i in (1..ids.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ids.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut exact = 1.0;
        let cells: Vec<(u64, f64, f64)> = steps
            .iter()
            .zip(&ids)
            .map(|(&(g, e), &id)| {
                exact -= gaps[g];
                (id, exact, exact + noise[e])
            })
            .collect();
        let (order, rescored) = certified(&cells);
        prop_assert_eq!(order, exact_order(&cells));
        prop_assert!(rescored as usize <= cells.len());
    }
}

//! The one-pass strict bound against its per-spread reference twin, on
//! the reduced model and the full paper-scale one.

mod naive;

use starlink_divide::{strict, PaperModel};

fn assert_matches_twin(model: &PaperModel) {
    let fast = strict::strict_table(model);
    let slow = naive::naive_strict_table(model);
    assert_eq!(fast.len(), 5);
    assert!(naive::same_table(&fast, &slow), "{fast:?}\n!=\n{slow:?}");
}

#[test]
fn one_pass_matches_per_spread_loop_on_the_small_model() {
    assert_matches_twin(&PaperModel::test_scale());
}

#[test]
fn one_pass_matches_per_spread_loop_on_the_paper_model() {
    assert_matches_twin(&PaperModel::paper_scale());
}

//! Subsidy-program sizing: what would it cost to make service
//! affordable? (EXT-SUBSIDY)
//!
//! Finding 4 shows 74.5 % of un(der)served locations cannot afford
//! Starlink's Residential plan under the 2 % rule, and that the only
//! existing subsidy (Lifeline, $9.25/mo) barely moves the needle. The
//! natural policy question the paper stops short of: how large a
//! subsidy program *would* close the gap? For each location the
//! required monthly subsidy is
//!
//! ```text
//! s = max(0, price − threshold · income / 12)
//! ```
//!
//! and the program cost is the location-weighted sum. Comparing plans
//! shows the affordability problem is mostly a *price* problem: a $40
//! cable-priced plan needs (nearly) no subsidy at all.

use crate::PaperModel;
use leo_demand::{IspPlan, AFFORDABILITY_THRESHOLD};

/// Sizing of a subsidy program for one plan.
#[derive(Debug, Clone)]
pub struct SubsidyProgram {
    /// The plan subsidized.
    pub plan: IspPlan,
    /// Locations needing any subsidy.
    pub recipients: u64,
    /// Mean monthly subsidy among recipients, USD.
    pub mean_monthly_usd: f64,
    /// Largest per-location monthly subsidy, USD.
    pub max_monthly_usd: f64,
    /// Total program cost per year, USD.
    pub annual_cost_usd: f64,
}

/// Sizes the subsidy program that brings `plan` under the 2 % rule for
/// every un(der)served location.
pub fn size_program(model: &PaperModel, plan: IspPlan) -> SubsidyProgram {
    let mut recipients = 0u64;
    let mut total_monthly = 0.0f64;
    let mut max_monthly = 0.0f64;
    for county in &model.dataset.counties {
        if county.locations == 0 {
            continue;
        }
        let affordable_price = AFFORDABILITY_THRESHOLD * county.median_income_usd / 12.0;
        let subsidy = (plan.monthly_usd - affordable_price).max(0.0);
        if subsidy > 0.0 {
            recipients += county.locations;
            total_monthly += subsidy * county.locations as f64;
            max_monthly = max_monthly.max(subsidy);
        }
    }
    SubsidyProgram {
        plan,
        recipients,
        mean_monthly_usd: if recipients > 0 {
            total_monthly / recipients as f64
        } else {
            0.0
        },
        max_monthly_usd: max_monthly,
        annual_cost_usd: total_monthly * 12.0,
    }
}

/// Programs for the Figure 4 plan catalog.
pub fn program_table(model: &PaperModel) -> Vec<SubsidyProgram> {
    IspPlan::figure4_catalog()
        .into_iter()
        .map(|p| size_program(model, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> &'static PaperModel {
        crate::testutil::model()
    }

    #[test]
    fn recipients_match_finding4() {
        let m = model();
        let prog = size_program(m, IspPlan::starlink_residential());
        let f4 = crate::findings::finding4(m);
        assert_eq!(prog.recipients, f4.unaffordable_residential);
    }

    #[test]
    fn cheaper_plans_need_smaller_programs() {
        let table = program_table(model());
        for w in table.windows(2) {
            assert!(w[0].annual_cost_usd <= w[1].annual_cost_usd);
            assert!(w[0].recipients <= w[1].recipients);
        }
        // The $40 plan needs essentially nothing; the $120 plan needs
        // a real program.
        assert_eq!(table[0].recipients, 0, "{:?}", table[0]);
        assert!(table[3].annual_cost_usd > 1e6);
    }

    #[test]
    fn subsidy_bounds_are_sane() {
        let prog = size_program(model(), IspPlan::starlink_residential());
        // Nobody needs more than the full price; the mean is positive
        // and below the max.
        assert!(prog.max_monthly_usd <= 120.0);
        assert!(prog.mean_monthly_usd > 0.0);
        assert!(prog.mean_monthly_usd <= prog.max_monthly_usd);
        // Income floor $26.5k ⇒ max subsidy 120 − 0.02·26500/12 ≈ $75.8.
        assert!(prog.max_monthly_usd < 80.0, "{}", prog.max_monthly_usd);
    }

    #[test]
    fn lifeline_is_an_order_of_magnitude_short() {
        // The mean required subsidy for the Residential plan dwarfs the
        // $9.25 Lifeline benefit — F4's "even with Lifeline" in
        // program-design terms.
        let prog = size_program(model(), IspPlan::starlink_residential());
        assert!(
            prog.mean_monthly_usd > 2.0 * leo_demand::plans::LIFELINE_SUBSIDY_USD,
            "mean {}",
            prog.mean_monthly_usd
        );
    }
}

//! Integration checks for the experiment harnesses: figure sweeps, the
//! tail walk, affordability CDFs, the QoE simulator, and the orbital
//! validation — run over the shared end-to-end model.

mod common;

use common::model;
use starlink_divide_repro::capacity::beamspread::Beamspread;
use starlink_divide_repro::capacity::oversub::Oversubscription;
use starlink_divide_repro::demand::IspPlan;
use starlink_divide_repro::model::{afford, coverage_sweep, tail};
use starlink_divide_repro::orbit;
use starlink_divide_repro::simnet;

#[test]
fn figure2_grid_is_complete_and_monotone() {
    let s = coverage_sweep::sweep(model());
    assert_eq!(s.beamspreads.len(), 15);
    assert_eq!(s.oversubs.len(), 30);
    for row in &s.fraction {
        assert_eq!(row.len(), 30);
        for &f in row {
            assert!((0.0..=1.0).contains(&f));
        }
        for w in row.windows(2) {
            assert!(w[1] >= w[0], "not monotone in oversubscription");
        }
    }
}

#[test]
fn figure2_matches_paper_annotations() {
    let s = coverage_sweep::sweep(model());
    // Fig 2 colorbar extremes: ~0.36 at (b=14, ρ=5); near-1 at the
    // FCC line (ρ=20) for beamspread 1.
    let bl = s.at(14, 5).unwrap();
    assert!((bl - 0.36).abs() < 0.05, "bottom-left {bl}");
    let fcc = s.at(1, 20).unwrap();
    assert!(fcc > 0.98, "(1,20) {fcc}");
}

#[test]
fn figure3_curves_hit_table2_and_step_down() {
    let m = model();
    let curves = tail::figure3(m, 50_000);
    assert_eq!(curves.len(), 6);
    for c in &curves {
        assert!(
            c.points.len() >= 2,
            "b={} has {} points",
            c.beamspread,
            c.points.len()
        );
        for w in c.points.windows(2) {
            assert!(w[0].constellation >= w[1].constellation);
            assert!(w[0].unserved <= w[1].unserved);
        }
    }
    // The 20:1 curves start at the Table 2 capped values (±1%).
    let expect = [
        (1u32, 80_567u64),
        (2, 41_261),
        (5, 16_750),
        (10, 8_417),
        (15, 5_621),
    ];
    for (c, &(b, n)) in curves.iter().zip(&expect) {
        assert_eq!(c.beamspread, b);
        let rel = (c.points[0].constellation as f64 - n as f64).abs() / n as f64;
        assert!(rel < 0.01, "b={b}: {} vs {n}", c.points[0].constellation);
    }
}

#[test]
fn figure3_first_step_spans_hundreds_to_a_thousand_satellites() {
    // F3's quantitative claim across beamspreads.
    let m = model();
    let step = |b: u32| {
        let c = tail::tail_curve(
            m,
            Oversubscription::FCC_CAP,
            Beamspread::new(b).unwrap(),
            u64::MAX,
        );
        c.points[0].constellation - c.points[1].constellation
    };
    assert!((800..2_500).contains(&step(1)), "b=1 step {}", step(1));
    assert!((150..500).contains(&step(5)), "b=5 step {}", step(5));
    assert!((40..200).contains(&step(15)), "b=15 step {}", step(15));
}

#[test]
fn figure4_cdfs_are_consistent_across_plans() {
    let results = afford::figure4(model());
    assert_eq!(results.len(), 4);
    // Cheaper plans dominate: at every income the share priced out is
    // no larger.
    for w in results.windows(2) {
        assert!(w[0].plan.monthly_usd <= w[1].plan.monthly_usd);
        assert!(w[0].unaffordable_locations <= w[1].unaffordable_locations);
    }
    // The Lifeline arithmetic: the subsidized threshold is $66,450.
    let lifeline = &results[2];
    assert!((lifeline.plan.min_affordable_income_usd() - 66_450.0).abs() < 1e-6);
}

#[test]
fn affordability_totals_match_the_dataset() {
    let m = model();
    for r in afford::figure4(m) {
        assert_eq!(r.total_locations, m.dataset.total_locations);
        assert!(r.unaffordable_locations <= r.total_locations);
        assert_eq!(r.cdf.last().unwrap().1, r.total_locations);
    }
}

#[test]
fn qoe_simulation_validates_f1_service_quality_claim() {
    let reports = simnet::busy_hour_experiment(0.5, &[20.0, 35.0], 11);
    let at20 = &reports[0];
    let at35 = &reports[1];
    // At the FCC benchmark most flows run at full speed; at the peak
    // cell's 35:1 ratio a large share do not.
    assert!(at20.full_speed_fraction > 0.8, "20:1 {:?}", at20);
    assert!(at35.full_speed_fraction < 0.7, "35:1 {:?}", at35);
    assert!(at35.median_mbps < at20.median_mbps);
}

#[test]
fn orbit_density_model_agrees_with_propagation() {
    // The constellation sizing rests on d(φ); validate it against the
    // actual Walker shell used for sizing, at the binding latitudes.
    let shell = orbit::WalkerShell::new(550.0, 53.0, 24, 16, 5);
    for lat in [36.43, 37.0] {
        let analytic = orbit::density_factor(lat, 53.0).unwrap();
        let empirical = orbit::density::empirical_density_factor(&shell, lat, 1.5, 199);
        let rel = (empirical - analytic).abs() / analytic;
        assert!(rel < 0.05, "lat {lat}: {empirical} vs {analytic}");
    }
}

#[test]
fn current_constellation_covers_the_peak_cell_location() {
    // "Anyone, anywhere": the ~8,000-satellite constellation always has
    // satellites above the peak-demand cell.
    let shells = orbit::WalkerShell::starlink_current_2025();
    let peak = model().dataset.peak_cell().center;
    let stats = orbit::coverage::coverage(
        &shells,
        &[peak],
        &orbit::coverage::CoverageConfig::default(),
    );
    assert!(stats[0].min_in_view >= 1);
    assert_eq!(stats[0].availability, 1.0);
}

#[test]
fn reports_render_every_artifact_without_panicking() {
    // Smoke-test the full reporting path the CLI uses.
    use starlink_divide_repro::report::{Heatmap, LineChart, Series};
    let m = model();
    let s = coverage_sweep::sweep(m);
    let h = Heatmap {
        title: "t".into(),
        x_label: "x".into(),
        y_label: "y".into(),
        xs: s.oversubs.clone(),
        ys: s.beamspreads.clone(),
        values: s.fraction.clone(),
    };
    assert!(h.render(700.0, 400.0).contains("</svg>"));
    let mut chart = LineChart::new("fig3", "unserved", "sats");
    for c in tail::figure3(m, 30_000) {
        chart.push(Series::steps(
            format!("b={}", c.beamspread),
            c.points
                .iter()
                .map(|p| (p.unserved as f64, p.constellation as f64))
                .collect(),
        ));
    }
    assert!(chart.render(700.0, 400.0).contains("</svg>"));
}

#[test]
fn lifeline_subsidy_value_is_applied_exactly() {
    let with = IspPlan::starlink_with_lifeline();
    let without = IspPlan::starlink_residential();
    assert!(
        (without.monthly_usd
            - with.monthly_usd
            - starlink_divide_repro::demand::plans::LIFELINE_SUBSIDY_USD)
            .abs()
            < 1e-9
    );
}

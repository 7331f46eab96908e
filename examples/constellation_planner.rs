//! Constellation planner: a downstream-user scenario.
//!
//! You are a constellation operator with a launch budget. Given a
//! maximum fleet size, what is the best (beamspread, oversubscription)
//! operating point, what fraction of US un(der)served cells does it
//! serve, and how many locations are left behind?
//!
//! ```sh
//! cargo run --release --example constellation_planner -- 8000
//! ```

use starlink_divide_repro::capacity::beamspread::Beamspread;
use starlink_divide_repro::capacity::oversub::{max_locations_servable, Oversubscription};
use starlink_divide_repro::model::{coverage_sweep, sizing, PaperModel};
use starlink_divide_repro::report::TextTable;

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8_000);
    println!("planning for a fleet budget of {budget} satellites\n");
    let model = PaperModel::test_scale();
    let counts = model.dataset.sorted_counts();
    let total: u64 = counts.iter().sum();

    let mut table = TextTable::new(
        format!("operating points within a {budget}-satellite budget"),
        &[
            "beamspread",
            "oversub",
            "satellites",
            "cells served",
            "locations served",
        ],
    );
    let mut best: Option<(f64, u32, u32)> = None;
    for b in 1..=15u32 {
        let spread = Beamspread::new(b).unwrap();
        for rho in (5..=35).step_by(5) {
            let oversub = Oversubscription::new(rho as f64).unwrap();
            // Satellites needed to serve everything servable at this point.
            let policy = starlink_divide_repro::capacity::DeploymentPolicy::OversubCap(oversub);
            let n = sizing::constellation_size(&model, policy, spread);
            if n > budget {
                continue;
            }
            let frac = coverage_sweep::fraction_served(&model, counts, oversub, spread);
            // Locations served: every cell within the spread capacity,
            // plus partial service up to the limit elsewhere.
            let cell_limit = max_locations_servable(
                starlink_divide_repro::capacity::beamspread::spread_cell_capacity_gbps(
                    &model.capacity,
                    spread,
                ),
                oversub,
            );
            let served: u64 = counts.iter().map(|&c| c.min(cell_limit)).sum();
            table.row(&[
                b.to_string(),
                format!("{rho}:1"),
                n.to_string(),
                format!("{:.1}%", 100.0 * frac),
                format!("{:.1}%", 100.0 * served as f64 / total as f64),
            ]);
            if best.map(|(f, _, _)| frac > f).unwrap_or(true) {
                best = Some((frac, b, rho));
            }
        }
    }
    print!("{}", table.render());
    match best {
        Some((frac, b, rho)) => println!(
            "\nbest within budget: beamspread {b}, oversubscription {rho}:1 -> {:.1}% of cells",
            100.0 * frac
        ),
        None => println!(
            "\nno operating point fits {budget} satellites — even the highest beamspread \
             needs more (see Table 2); the budget only buys partial coverage"
        ),
    }
}

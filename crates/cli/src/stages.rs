//! The stages behind `divide`'s commands (DESIGN.md §13). A stage reads
//! [`Ctx`] and fills an [`Output`]; it never prints or writes a file:
//! `main` prints and stages the files, in [`STAGES`] order, inside the
//! stage's span, and commits them all after the last stage.
#![deny(clippy::print_stdout)]

use leo_alloc::Lane::{self, Main, Side};
use leo_report::{CsvWriter, Heatmap, LineChart, PointMap, Series, TextTable};
use starlink_divide::{
    afford, coverage_sweep, demand_stats, findings, sensitivity, sizing, strict, tail, PaperModel,
};
use std::fmt::Write as _;

/// What a stage reads: the model, plus the cache and config Fig 2's
/// sweep uses (a cold sweep stages its snapshot into the run's commit).
pub struct Ctx<'a> {
    pub model: &'a PaperModel,
    pub cache: Option<&'a leo_cache::DatasetCache>,
    pub cfg: &'a leo_demand::SynthConfig,
}

/// A stage's console text and its (name, contents) files, in write order.
#[derive(Default)]
pub struct Output {
    pub text: String,
    pub files: Vec<(&'static str, String)>,
}

impl Output {
    /// Appends one line of console text.
    fn say(&mut self, line: std::fmt::Arguments) {
        let _ = writeln!(self.text, "{line}");
    }
}

/// A pipeline stage's body.
pub type StageFn = fn(&Ctx, &mut Output);

/// One row of [`STAGES`]: a command's name, the lane that computes its
/// body when `all` runs both lanes (DESIGN.md §13), its body. Either lane
/// may compute any row, since both read the same [`Ctx`]; the output is
/// printed and written on the main lane either way, in [`STAGES`] order.
pub type Stage = (&'static str, Lane, StageFn);

/// Every pipeline stage, in `all` order. The up-front command check,
/// single-stage dispatch and `all` all read this one table.
pub const STAGES: &[Stage] = &[
    ("table1", Main, |c, o| table1(c.model, o)),
    ("table2", Main, |c, o| table2(c.model, o)),
    ("fig1", Main, |c, o| fig1(c.model, o)),
    ("fig2", Main, fig2),
    ("fig3", Main, |c, o| fig3(c.model, o)),
    ("fig4", Main, |c, o| fig4(c.model, o)),
    ("findings", Main, |c, o| findings_cmd(c.model, o)),
    ("qoe", Side, |_, o| qoe(o)),
    ("orbit-validate", Side, |_, o| orbit_validate(o)),
    ("strict", Main, |c, o| strict_cmd(c.model, o)),
    ("sensitivity", Main, |c, o| sensitivity_cmd(c.model, o)),
    ("latency", Side, |_, o| latency(o)),
    ("uplink", Main, |c, o| uplink(c.model, o)),
    ("cost", Main, |c, o| cost_cmd(c.model, o)),
    ("timeline", Main, |c, o| timeline_cmd(c.model, o)),
    ("export", Main, |c, o| export(c.model, o)),
];

fn strict_cmd(model: &PaperModel, o: &mut Output) {
    let rows = strict::strict_table(model);
    let mut t = TextTable::new(
        "EXT-STRICT: paper lower bound vs strict all-cells bound (20:1 cap)",
        &[
            "beamspread",
            "paper bound",
            "strict bound",
            "underestimate",
            "binding lat",
            "beams",
        ],
    );
    let mut csv = CsvWriter::new();
    csv.record(&[
        "beamspread",
        "paper",
        "strict",
        "binding_lat",
        "binding_beams",
    ]);
    for r in &rows {
        t.row(&[
            r.beamspread.to_string(),
            r.paper_bound.to_string(),
            r.strict_bound.to_string(),
            format!("{:.1}%", 100.0 * r.underestimate_fraction()),
            format!("{:.2}", r.binding_lat_deg),
            r.binding_beams.to_string(),
        ]);
        csv.record_display(&[
            r.beamspread as f64,
            r.paper_bound as f64,
            r.strict_bound as f64,
            r.binding_lat_deg,
            r.binding_beams as f64,
        ]);
    }
    o.text.push_str(&t.render());
    o.files.push(("strict_bound.csv", csv.into_string()));
}

fn sensitivity_cmd(model: &PaperModel, o: &mut Output) {
    let effs = sensitivity::efficiency_sweep(model, &[3.0, 3.5, 4.0, 4.5, 5.0, 5.5]);
    let mut t = TextTable::new(
        "ABL-EFF: spectral-efficiency ablation",
        &[
            "bps/Hz",
            "cell Gbps",
            "peak oversub",
            "shed at 20:1",
            "b=2 capped",
        ],
    );
    let mut csv = CsvWriter::new();
    csv.record(&[
        "bps_hz",
        "cell_gbps",
        "peak_oversub",
        "unserved_at_cap",
        "b2_capped",
    ]);
    for r in &effs {
        t.row(&[
            format!("{:.1}", r.bps_hz),
            format!("{:.2}", r.cell_capacity_gbps),
            format!("{:.1}:1", r.peak_oversub),
            r.unserved_at_cap.to_string(),
            r.b2_capped.to_string(),
        ]);
        csv.record_display(&[
            r.bps_hz,
            r.cell_capacity_gbps,
            r.peak_oversub,
            r.unserved_at_cap as f64,
            r.b2_capped as f64,
        ]);
    }
    o.text.push_str(&t.render());
    o.files.push(("ablation_efficiency.csv", csv.into_string()));

    let sizes = sensitivity::cell_size_sweep(model, &[4, 5, 6]);
    let mut t2 = TextTable::new(
        "ABL-CELL: service-cell resolution ablation (b=2, 20:1)",
        &["resolution", "cell km^2", "satellites"],
    );
    for r in &sizes {
        t2.row(&[
            r.resolution.to_string(),
            format!("{:.1}", r.cell_area_km2),
            r.b2_capped.to_string(),
        ]);
    }
    o.text.push_str(&t2.render());

    let ths = sensitivity::threshold_sweep(model, &[0.01, 0.02, 0.03, 0.05]);
    let mut t3 = TextTable::new(
        "ABL-AFF: affordability-threshold ablation (Starlink Residential)",
        &["threshold", "unaffordable", "fraction"],
    );
    for r in &ths {
        t3.row(&[
            format!("{:.0}%", 100.0 * r.threshold),
            r.unaffordable.to_string(),
            format!("{:.1}%", 100.0 * r.fraction),
        ]);
    }
    o.text.push_str(&t3.render());

    let programs = starlink_divide::subsidy::program_table(model);
    let mut t4 = TextTable::new(
        "EXT-SUBSIDY: subsidy program to make each plan affordable everywhere",
        &[
            "plan",
            "$/month",
            "recipients",
            "mean $/mo",
            "max $/mo",
            "program $/yr",
        ],
    );
    for p in &programs {
        t4.row(&[
            p.plan.name.to_string(),
            format!("{:.2}", p.plan.monthly_usd),
            p.recipients.to_string(),
            format!("{:.2}", p.mean_monthly_usd),
            format!("{:.2}", p.max_monthly_usd),
            format!("{:.1}M", p.annual_cost_usd / 1e6),
        ]);
    }
    o.text.push_str(&t4.render());
}

fn latency(o: &mut Output) {
    use leo_orbit::gateway::conus_gateways;
    use leo_orbit::isl::{user_gateway_path, IslTopology, PathMode};
    use leo_orbit::WalkerShell;

    let topo = IslTopology::plus_grid(WalkerShell::starlink_gen1_shell1());
    let gws = conus_gateways();
    let users = [
        ("rural Montana", leo_geomath::LatLng::new(47.0, -109.0)),
        (
            "peak-demand cell (SE Missouri)",
            leo_geomath::LatLng::new(37.0, -89.5),
        ),
        ("Appalachia", leo_geomath::LatLng::new(37.5, -81.5)),
        (
            "offshore Atlantic (600 km)",
            leo_geomath::LatLng::new(38.0, -60.0),
        ),
        (
            "mid-Atlantic (2,800 km)",
            leo_geomath::LatLng::new(35.0, -38.0),
        ),
    ];
    let mut t = TextTable::new(
        "EXT-LAT: one-way user->gateway latency, bent pipe vs ISL relay (Gen1 shell)",
        &["user", "bent-pipe ms", "ISL ms", "ISL hops"],
    );
    let mut csv = CsvWriter::new();
    csv.record(&["user", "bent_pipe_ms", "isl_ms", "isl_hops"]);
    for (name, u) in &users {
        // Average over several epochs to smooth constellation phase.
        let mut bp_acc = Vec::new();
        let mut isl_acc = Vec::new();
        let mut hop_acc = Vec::new();
        for k in 0..8 {
            let t_s = k as f64 * 731.0;
            if let Some(p) = user_gateway_path(&topo, &gws, u, t_s, PathMode::BentPipe) {
                bp_acc.push(p.latency_ms);
            }
            if let Some(p) = user_gateway_path(&topo, &gws, u, t_s, PathMode::IslRelay) {
                isl_acc.push(p.latency_ms);
                hop_acc.push(p.isl_hops as f64);
            }
        }
        let mean = |v: &Vec<f64>| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let fmt = |x: f64, n: usize, total: usize| {
            if x.is_nan() {
                "unreachable".to_string()
            } else if n < total {
                format!("{x:.1} ({n}/{total} epochs)")
            } else {
                format!("{x:.1}")
            }
        };
        t.row(&[
            name.to_string(),
            fmt(mean(&bp_acc), bp_acc.len(), 8),
            fmt(mean(&isl_acc), isl_acc.len(), 8),
            format!("{:.1}", mean(&hop_acc)),
        ]);
        csv.record(&[
            name.to_string(),
            format!("{:.2}", mean(&bp_acc)),
            format!("{:.2}", mean(&isl_acc)),
            format!("{:.2}", mean(&hop_acc)),
        ]);
    }
    o.text.push_str(&t.render());
    o.files.push(("latency_paths.csv", csv.into_string()));
}

fn cost_cmd(model: &PaperModel, o: &mut Output) {
    use leo_capacity::beamspread::Beamspread;
    use leo_capacity::Oversubscription;
    use starlink_divide::cost::{
        average_cost_per_location_year, marginal_cost_curve, FleetCostModel,
    };
    let fleet = FleetCostModel::starlink_estimate();
    let rho = Oversubscription::FCC_CAP;
    let mut t = TextTable::new(
        "EXT-COST: annualized marginal cost of the demand tail ($1.5M/sat, 5-yr life)",
        &[
            "beamspread",
            "segment locs",
            "marginal sats",
            "$/location/yr",
            "fleet avg $/loc/yr",
        ],
    );
    let mut csv = CsvWriter::new();
    csv.record(&[
        "beamspread",
        "segment",
        "locations",
        "satellites",
        "usd_per_location_year",
    ]);
    for b in [1u32, 5, 15] {
        let spread = Beamspread::new(b).expect("nonzero");
        let avg = average_cost_per_location_year(model, &fleet, rho, spread);
        for (i, seg) in marginal_cost_curve(model, &fleet, rho, spread, 3)
            .iter()
            .enumerate()
        {
            t.row(&[
                b.to_string(),
                seg.locations.to_string(),
                seg.satellites.to_string(),
                format!("{:.0}", seg.usd_per_location_year),
                if i == 0 {
                    format!("{avg:.0}")
                } else {
                    String::new()
                },
            ]);
            csv.record_display(&[
                b as f64,
                i as f64,
                seg.locations as f64,
                seg.satellites as f64,
                seg.usd_per_location_year,
            ]);
        }
    }
    o.text.push_str(&t.render());
    o.text += "(a $120/month subscription pays $1,440/year)\n";
    o.files.push(("cost_marginal.csv", csv.into_string()));
}

fn timeline_cmd(model: &PaperModel, o: &mut Output) {
    use starlink_divide::deployment::{timeline, LaunchModel};
    let launch = LaunchModel::current_estimate();
    let mut t = TextTable::new(
        format!(
            "EXT-TIME: years to reach each requirement at {:.0} sats/yr, {:.0}-yr life              (steady-state ceiling {:.0})",
            launch.sats_per_year,
            launch.lifetime_years,
            launch.steady_state_fleet()
        ),
        &["beamspread", "required (20:1)", "years to reach"],
    );
    for row in timeline(model, &launch) {
        t.row(&[
            row.beamspread.to_string(),
            row.required.to_string(),
            match row.years {
                Some(0.0) => "already met".to_string(),
                Some(y) => format!("{y:.1}"),
                None => "never (above ceiling)".to_string(),
            },
        ]);
    }
    o.text.push_str(&t.render());
    let four_x = LaunchModel {
        sats_per_year: 8_000.0,
        ..launch
    };
    let b2 = timeline(model, &four_x)
        .into_iter()
        .find(|r| r.beamspread == 2)
        .expect("b=2 present");
    o.say(format_args!(
        "(at 4x cadence — 8,000/yr — the b=2 requirement takes {})",
        b2.years
            .map(|y| format!("{y:.1} years"))
            .unwrap_or_else(|| "forever".into())
    ));
}

fn uplink(model: &PaperModel, o: &mut Output) {
    use leo_capacity::uplink::{binding_direction, PolarizationReuse, UplinkModel};
    let peak = model.dataset.peak_cell().locations;
    let mut t = TextTable::new(
        "EXT-UL: does the uplink bind? (20 Mbps/location requirement)",
        &[
            "polarization",
            "UL Gbps/cell",
            "peak UL oversub",
            "UL locs at 20:1",
            "binding direction",
        ],
    );
    for reuse in [PolarizationReuse::Single, PolarizationReuse::Dual] {
        let ul = UplinkModel::starlink(&model.capacity, reuse);
        t.row(&[
            format!("{reuse:?}"),
            format!("{:.2}", ul.max_cell_capacity_gbps()),
            format!("{:.1}:1", ul.required_oversubscription(peak)),
            ul.max_locations_servable(20.0).to_string(),
            format!("{:?}", binding_direction(&model.capacity, &ul, peak)),
        ]);
    }
    o.text.push_str(&t.render());
    o.say(format_args!(
        "(downlink peak requirement: {:.1}:1 — the paper's F1)",
        leo_capacity::required_oversubscription(peak, model.capacity.max_cell_capacity_gbps())
    ));
}

fn export(model: &PaperModel, o: &mut Output) {
    let cells = leo_demand::export::cells_to_csv(&model.dataset);
    o.files.push(("dataset_cells.csv", cells));
    let counties = leo_demand::export::counties_to_csv(&model.dataset);
    o.files.push(("dataset_counties.csv", counties));
}

fn table1(model: &PaperModel, o: &mut Output) {
    let m = &model.capacity;
    let mut bands = TextTable::new(
        "Table 1a: Starlink downlink spectrum (Schedule S)",
        &["band (GHz)", "width (MHz)", "beams", "usage"],
    );
    for b in m.bands() {
        bands.row(&[
            format!("{:.1}-{:.2}", b.lo_ghz, b.hi_ghz),
            format!("{:.0}", b.width_mhz()),
            b.beams.to_string(),
            format!("{:?}", b.usage),
        ]);
    }
    o.text.push_str(&bands.render());

    let peak = model.dataset.peak_cell();
    let mut t = TextTable::new(
        "Table 1b: Single-satellite capacity model",
        &["parameter", "value"],
    );
    t.row(&[
        "UT downlink spectrum".into(),
        format!("{:.0} MHz", m.ut_downlink_mhz()),
    ]);
    t.row(&[
        "Spectral efficiency".into(),
        format!("{:.1} bps/Hz", m.spectral_efficiency_bps_hz),
    ]);
    t.row(&[
        "Max per-cell capacity".into(),
        format!("{:.3} Gbps", m.max_cell_capacity_gbps()),
    ]);
    t.row(&[
        "UT beams / total beams".into(),
        format!("{} / {}", m.ut_beams(), m.total_beams()),
    ]);
    t.row(&["Peak cell users".into(), peak.locations.to_string()]);
    t.row(&[
        "FCC throughput requirement".into(),
        "100/20 Mbps (DL/UL)".into(),
    ]);
    t.row(&[
        "Peak cell DL demand".into(),
        format!("{:.1} Gbps", peak.locations as f64 * 0.1),
    ]);
    t.row(&[
        "Max DL oversubscription".into(),
        format!(
            "{:.1}:1",
            leo_capacity::required_oversubscription(peak.locations, m.max_cell_capacity_gbps())
        ),
    ]);
    o.text.push_str(&t.render());
}

fn table2(model: &PaperModel, o: &mut Output) {
    let rows = sizing::table2(model);
    let mut t = TextTable::new(
        "Table 2: Predicted constellation size vs beamspread",
        &["beamspread", "full service", "max 20:1 oversub"],
    );
    let mut csv = CsvWriter::new();
    csv.record(&["beamspread", "full_service", "capped_20_1"]);
    for r in &rows {
        t.row(&[
            r.beamspread.to_string(),
            r.full_service.to_string(),
            r.capped.to_string(),
        ]);
        csv.record_display(&[r.beamspread as u64, r.full_service, r.capped]);
    }
    o.text.push_str(&t.render());
    o.files.push(("table2.csv", csv.into_string()));
}

fn fig1(model: &PaperModel, o: &mut Output) {
    let stats = demand_stats::demand_stats(model);
    let mut t = TextTable::new(
        "Figure 1: distribution of un(der)served locations per cell",
        &["statistic", "value"],
    );
    t.row(&["demand cells".into(), stats.demand_cells.to_string()]);
    t.row(&["US cells".into(), stats.us_cells.to_string()]);
    t.row(&["total locations".into(), stats.total_locations.to_string()]);
    t.row(&["p50".into(), stats.p50.to_string()]);
    t.row(&["p90".into(), stats.p90.to_string()]);
    t.row(&["p99".into(), stats.p99.to_string()]);
    t.row(&["max".into(), stats.max.to_string()]);
    o.text.push_str(&t.render());

    let cdf = demand_stats::cdf_series(model, 400);
    let mut csv = CsvWriter::new();
    csv.record(&["locations_per_cell", "cumulative_probability"]);
    for &(x, p) in &cdf {
        csv.record_display(&[x as f64, p]);
    }
    o.files.push(("fig1_cdf.csv", csv.into_string()));

    let mut chart = LineChart::new(
        "Fig 1: CDF of US un(der)served locations per service cell",
        "# of locations per cell",
        "cumulative probability",
    );
    chart.push(Series::line(
        "locations/cell",
        cdf.iter().map(|&(x, p)| (x as f64, p)).collect(),
    ));
    o.files.push(("fig1_cdf.svg", chart.render(720.0, 440.0)));

    let map = PointMap {
        title: "Fig 1: un(der)served locations per Starlink service cell".into(),
        points: demand_stats::map_series(model),
    };
    o.files.push(("fig1_map.svg", map.render(900.0, 560.0)));
}

fn fig2(c: &Ctx, o: &mut Output) {
    // The sweep rows are derived purely from the dataset + capacity
    // model, so they snapshot under a key chained off the dataset's.
    let s = match c.cache {
        Some(cache) => cache.sweep(c.cfg, c.model),
        None => coverage_sweep::sweep(c.model),
    };
    let mut csv = CsvWriter::new();
    csv.record(&["beamspread", "oversubscription", "fraction_served"]);
    for (bi, &b) in s.beamspreads.iter().enumerate() {
        for (ri, &r) in s.oversubs.iter().enumerate() {
            csv.record_display(&[b as f64, r as f64, s.fraction[bi][ri]]);
        }
    }
    o.files.push(("fig2_sweep.csv", csv.into_string()));
    let h = Heatmap {
        title: "Fig 2: fraction of US cells served".into(),
        x_label: "oversubscription factor".into(),
        y_label: "beamspread factor".into(),
        xs: s.oversubs.clone(),
        ys: s.beamspreads.clone(),
        values: s.fraction.clone(),
    };
    o.files.push(("fig2_heatmap.svg", h.render(760.0, 460.0)));
    o.say(format_args!(
        "Figure 2: fraction served at (b=1, rho=20): {:.4}; at (b=14, rho=5): {:.4}",
        s.at(1, 20).unwrap_or(f64::NAN),
        s.at(14, 5).unwrap_or(f64::NAN)
    ));
}

fn fig3(model: &PaperModel, o: &mut Output) {
    let curves = tail::figure3(model, 70_000);
    let mut csv = CsvWriter::new();
    csv.record(&[
        "beamspread",
        "oversubscription",
        "locations_unserved",
        "constellation_size",
    ]);
    let mut chart = LineChart::new(
        "Fig 3: constellation size vs locations left unserved",
        "locations left unserved by Starlink",
        "size of constellation (satellites)",
    );
    chart.reverse_x = true;
    for c in &curves {
        for p in &c.points {
            csv.record_display(&[
                c.beamspread as f64,
                c.oversub,
                p.unserved as f64,
                p.constellation as f64,
            ]);
        }
        chart.push(Series::steps(
            format!("b={}, oversub {:.0}:1", c.beamspread, c.oversub),
            c.points
                .iter()
                .map(|p| (p.unserved as f64, p.constellation as f64))
                .collect(),
        ));
    }
    o.files.push(("fig3_tail.csv", csv.into_string()));
    o.files.push(("fig3_tail.svg", chart.render(820.0, 480.0)));
    for c in &curves {
        o.say(format_args!(
            "Figure 3: b={:>2} rho={:>2.0}: serve-all={} satellites, first step saves {}",
            c.beamspread,
            c.oversub,
            c.points.first().map(|p| p.constellation).unwrap_or(0),
            c.points
                .first()
                .zip(c.points.get(1))
                .map(|(a, b)| a.constellation - b.constellation)
                .unwrap_or(0),
        ));
    }
}

fn fig4(model: &PaperModel, o: &mut Output) {
    let results = afford::figure4(model);
    let mut t = TextTable::new(
        "Figure 4 / F4: locations unable to afford service (2% rule)",
        &["plan", "$/month", "unaffordable", "fraction"],
    );
    let mut csv = CsvWriter::new();
    csv.record(&[
        "plan",
        "monthly_usd",
        "income_proportion",
        "cumulative_locations",
    ]);
    let mut chart = LineChart::new(
        "Fig 4: un(der)served locations unable to afford service",
        "proportion of median income",
        "locations unable to afford (count)",
    );
    for r in &results {
        let price = format!("{:.2}", r.plan.monthly_usd);
        t.row(&[
            r.plan.name.to_string(),
            price.clone(),
            r.unaffordable_locations.to_string(),
            format!("{:.1}%", 100.0 * r.unaffordable_fraction()),
        ]);
        // Complementary-CDF style series as in the paper: number of
        // locations for which the plan costs MORE than x of income.
        let total = r.total_locations;
        let mut pts: Vec<(f64, f64)> = r
            .cdf
            .iter()
            .map(|&(p, cum)| (p, (total - cum) as f64))
            .collect();
        pts.insert(0, (0.0, total as f64));
        chart.push(Series::steps(r.plan.name, pts));
        // The CDF has thousands of points per plan; stream each record
        // into the writer, the proportion through the exact fixed writer.
        for &(p, cum) in &r.cdf {
            csv.record_with(|row| {
                row.field(r.plan.name).field(&price).fixed(p, 5).field(cum);
            });
        }
    }
    o.text.push_str(&t.render());
    o.files.push(("fig4_affordability.csv", csv.into_string()));
    let svg = chart.render(820.0, 480.0);
    o.files.push(("fig4_affordability.svg", svg));
}

fn findings_cmd(model: &PaperModel, o: &mut Output) {
    let f1 = findings::finding1(model);
    let f2 = findings::finding2(model);
    let f3 = findings::finding3(model);
    let f4 = findings::finding4(model);
    o.say(format_args!(
        "F1: peak cell has {} locations demanding {:.1} Gbps -> {:.1}:1 oversubscription;",
        f1.peak_locations, f1.peak_demand_gbps, f1.peak_oversub
    ));
    o.say(format_args!(
        "    {} cells ({} locations) exceed the 20:1 capacity; capping at 20:1 sheds {}",
        f1.over_cap_cells, f1.over_cap_locations, f1.unserved_at_cap
    ));
    o.say(format_args!(
        "    locations and serves {:.2}% of the total.",
        100.0 * f1.served_fraction_at_cap
    ));
    o.say(format_args!(
        "F2: serving all cells at <=20:1 with beamspread 2 needs {} satellites",
        f2.required_b2_capped
    ));
    o.say(format_args!(
        "    ({} more than the current ~{}).",
        f2.additional_needed, f2.current_size
    ));
    o.say(format_args!(
        "F3: the final {} locations cost {} additional satellites (b=5, 20:1).",
        f3.tail_locations, f3.marginal_satellites
    ));
    o.say(format_args!(
        "F4: {} of {} locations cannot afford Starlink Residential;",
        f4.unaffordable_residential, f4.total_locations
    ));
    o.say(format_args!(
        "    {} cannot even with Lifeline; cable plans are affordable at {:.2}% of locations.",
        f4.unaffordable_with_lifeline,
        100.0 * f4.cable_affordable_fraction
    ));
}

fn qoe(o: &mut Output) {
    let oversubs = [5.0, 10.0, 20.0, 35.0];
    let reports = leo_simnet::busy_hour_experiment(1.0, &oversubs, 7);
    let mut t = TextTable::new(
        "EXT-QOE: busy-hour service quality vs oversubscription (1 Gbps beam share)",
        &[
            "oversub",
            "subs",
            "flows",
            "mean Mbps",
            "median Mbps",
            "p10 Mbps",
            "full-speed %",
        ],
    );
    let mut csv = CsvWriter::new();
    csv.record(&[
        "oversub",
        "subscribers",
        "flows",
        "mean_mbps",
        "median_mbps",
        "p10_mbps",
        "full_speed_fraction",
    ]);
    for r in &reports {
        t.row(&[
            format!("{:.0}:1", r.oversub),
            r.subscribers.to_string(),
            r.flows.to_string(),
            format!("{:.1}", r.mean_mbps),
            format!("{:.1}", r.median_mbps),
            format!("{:.1}", r.p10_mbps),
            format!("{:.1}%", 100.0 * r.full_speed_fraction),
        ]);
        csv.record_display(&[
            r.oversub,
            r.subscribers as f64,
            r.flows as f64,
            r.mean_mbps,
            r.median_mbps,
            r.p10_mbps,
            r.full_speed_fraction,
        ]);
    }
    o.text.push_str(&t.render());
    o.files.push(("qoe_oversub.csv", csv.into_string()));
}

fn orbit_validate(o: &mut Output) {
    use leo_orbit::coverage::{coverage, expected_in_view, CoverageConfig};
    use leo_orbit::WalkerShell;

    let mut t = TextTable::new(
        "EXT-COV: analytic density factor vs Monte-Carlo (53 deg, 550 km shell)",
        &["latitude", "analytic d", "empirical d", "rel err"],
    );
    let shell = WalkerShell::new(550.0, 53.0, 36, 20, 11);
    let mut csv = CsvWriter::new();
    csv.record(&["latitude", "analytic", "empirical"]);
    for lat in [0.0f64, 10.0, 20.0, 30.0, 37.0, 45.0, 50.0] {
        let analytic = leo_orbit::density_factor(lat, 53.0).unwrap();
        let empirical = leo_orbit::density::empirical_density_factor(&shell, lat, 2.0, 257);
        t.row(&[
            format!("{lat:.0}"),
            format!("{analytic:.4}"),
            format!("{empirical:.4}"),
            format!("{:.2}%", 100.0 * (empirical - analytic).abs() / analytic),
        ]);
        csv.record_display(&[lat, analytic, empirical]);
    }
    o.text.push_str(&t.render());
    o.files.push(("orbit_density.csv", csv.into_string()));

    let shells = WalkerShell::starlink_current_2025();
    let points = [
        leo_geomath::LatLng::new(39.5, -98.35),
        leo_geomath::LatLng::new(25.8, -80.2),
        leo_geomath::LatLng::new(47.6, -122.3),
        leo_geomath::LatLng::new(37.0, -89.5),
    ];
    let stats = coverage(&shells, &points, &CoverageConfig::default());
    let mut t2 = TextTable::new(
        "EXT-COV: coverage of the ~8000-satellite constellation (min elev 25 deg)",
        &[
            "point",
            "min in view",
            "mean in view",
            "analytic mean",
            "availability",
        ],
    );
    for (p, s) in points.iter().zip(&stats) {
        t2.row(&[
            format!("{p}"),
            s.min_in_view.to_string(),
            format!("{:.1}", s.mean_in_view),
            format!("{:.1}", expected_in_view(&shells, p.lat_deg(), 25.0)),
            format!("{:.0}%", 100.0 * s.availability),
        ]);
    }
    o.text.push_str(&t2.render());
}

#[cfg(test)]
mod tests {
    use super::{Ctx, Output, STAGES};
    use leo_demand::SynthConfig;
    use starlink_divide::PaperModel;
    use std::path::Path;

    /// Runs every stage in process, with no cache and no disk: each
    /// file name is written by one stage only, the names are exactly
    /// the committed results/ artifacts plus the two large ones pinned
    /// by digest, and every file and every console text ends in a
    /// newline.
    #[test]
    fn stages_write_each_artifact_once_and_end_every_output_in_a_newline() {
        let model = PaperModel::test_scale();
        let cfg = SynthConfig::small();
        let ctx = Ctx {
            model: &model,
            cache: None,
            cfg: &cfg,
        };
        let mut names = Vec::new();
        for (stage, _, run) in STAGES {
            let mut o = Output::default();
            run(&ctx, &mut o);
            assert!(
                o.text.is_empty() || o.text.ends_with('\n'),
                "{stage}: console text does not end in a newline"
            );
            for (name, body) in &o.files {
                assert!(
                    body.ends_with('\n'),
                    "{stage}: {name} does not end in a newline"
                );
                assert!(!names.contains(name), "{stage}: {name} is written twice");
                names.push(*name);
            }
        }
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let digests = std::fs::read_to_string(results.join("large_artifacts.sha256"))
            .expect("results/large_artifacts.sha256");
        let mut expected: Vec<String> = digests
            .lines()
            .filter_map(|line| line.split_whitespace().nth(1))
            .map(String::from)
            .collect();
        for entry in std::fs::read_dir(&results).expect("results/") {
            let name = entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned();
            let artifact = name.ends_with(".csv") || name.ends_with(".svg");
            if artifact && !expected.contains(&name) {
                expected.push(name);
            }
        }
        expected.sort();
        names.sort_unstable();
        assert_eq!(names, expected);
        assert_eq!(names.len(), 18, "16 committed artifacts and 2 large ones");
    }
}

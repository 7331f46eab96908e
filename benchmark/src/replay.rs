//! In-process replay of `divide --scale paper all` and `divide --scale
//! paper fig2`, for the traced pass of the CLI workloads.
//!
//! Each stage calls the same public functions with the same arguments
//! as `crates/cli/src/main.rs` and writes its artifacts through
//! `leo_fault::safe_io::write_atomic`, so the artifacts must equal the
//! committed `results/` byte for byte; the workloads check that. What
//! the CLI prints to stdout is rendered into a string and dropped. The
//! CLI's bookkeeping (manifest, checkpoint, ledger, metrics registry)
//! is not replayed: its cost is what `cli.unattributed_s` reports.

use crate::layers;
use crate::trace::{count, span};
use leo_cache::{
    dataset_key, decode_dataset, decode_sweep, encode_dataset, encode_sweep, sweep_key,
    SnapshotStore, DATASET_KIND, FIG2_KIND, SCHEMA_VERSION,
};
use leo_demand::{BroadbandDataset, SynthConfig};
use leo_geomath::LatLng;
use leo_report::{CsvWriter, Heatmap, LineChart, PointMap, Series, TextTable};
use leo_simnet::QoeReport;
use starlink_divide::coverage_sweep::{self, CoverageSweep};
use starlink_divide::{
    afford, demand_stats, findings, sensitivity, sizing, strict, tail, PaperModel,
};
use std::fmt::Write as _;
use std::path::Path;

/// The CLI command replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Every stage of the paper.
    All,
    /// The Fig 2 sweep alone.
    Fig2,
}

/// Where a stage's output goes: artifacts into `out`, stdout text into
/// a sink that is dropped at the end.
struct Out<'a> {
    dir: &'a Path,
    stdout: String,
}

impl Out<'_> {
    /// Text the CLI prints from its own formatting code.
    fn say(&mut self, line: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.stdout, "{line}");
    }

    /// A rendered table the CLI prints.
    fn table(&mut self, rendered: &str) {
        count("report.bytes", rendered.len() as f64);
        self.stdout.push_str(rendered);
    }

    /// An artifact rendered by `leo-report`.
    fn artifact(&mut self, name: &str, content: &str) -> Result<(), String> {
        count("report.bytes", content.len() as f64);
        self.write(name, content)
    }

    /// `divide`'s `write`: atomic tmp+rename with bounded retry.
    fn write(&mut self, name: &str, content: &str) -> Result<(), String> {
        let path = self.dir.join(name);
        count("io.bytes_written", content.len() as f64);
        span("io.write_atomic", || {
            leo_fault::safe_io::write_atomic(&path, content.as_bytes())
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Replays `command` at paper scale with its snapshot cache in
/// `cache_dir` and its artifacts in `out`.
pub fn run(command: Command, cache_dir: &Path, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let cfg = SynthConfig::paper();
    let store = SnapshotStore::new(cache_dir);
    let ds = load_or_generate(&store, &cfg);
    let model = span("core.model", || PaperModel::new(ds));
    let mut o = Out {
        dir: out,
        stdout: String::new(),
    };
    match command {
        Command::Fig2 => fig2(&model, &mut o, &store, &cfg)?,
        Command::All => {
            table1(&model, &mut o);
            table2(&model, &mut o)?;
            fig1(&model, &mut o)?;
            fig2(&model, &mut o, &store, &cfg)?;
            fig3(&model, &mut o)?;
            fig4(&model, &mut o)?;
            findings_cmd(&model, &mut o);
            qoe(&mut o)?;
            orbit_validate(&mut o)?;
            strict_cmd(&model, &mut o)?;
            sensitivity_cmd(&model, &mut o)?;
            latency(&mut o)?;
            uplink(&model, &mut o);
            cost_cmd(&model, &mut o)?;
            timeline_cmd(&model, &mut o);
            export(&model, &mut o)?;
        }
    }
    std::hint::black_box(o.stdout);
    Ok(())
}

/// `DatasetCache::load_or_generate`, one traced layer call at a time.
fn load_or_generate(store: &SnapshotStore, cfg: &SynthConfig) -> BroadbandDataset {
    let key = dataset_key(cfg);
    count("cache.loads", 1.0);
    if let Some(loaded) = span("cache.load_payload", || {
        store.load_payload(DATASET_KIND, key, SCHEMA_VERSION)
    }) {
        count("cache.hits", 1.0);
        count("cache.bytes_read", loaded.payload().len() as f64);
        if let Ok(ds) = span("cache.decode_dataset", || decode_dataset(loaded.payload())) {
            return ds;
        }
    }
    let ds = span("demand.generate", || BroadbandDataset::generate(cfg));
    count("demand.generate.locations", ds.total_locations as f64);
    count("demand.generate.cells", ds.cells.len() as f64);
    let payload = span("cache.encode_dataset", || encode_dataset(&ds));
    count("cache.bytes_written", payload.len() as f64);
    span("cache.save", || {
        store.save(DATASET_KIND, key, SCHEMA_VERSION, &payload)
    });
    ds
}

/// `DatasetCache::sweep`, one traced layer call at a time.
fn cached_sweep(store: &SnapshotStore, cfg: &SynthConfig, model: &PaperModel) -> CoverageSweep {
    let key = sweep_key(cfg, model);
    count("cache.loads", 1.0);
    if let Some(loaded) = span("cache.load_payload", || {
        store.load_payload(FIG2_KIND, key, SCHEMA_VERSION)
    }) {
        count("cache.hits", 1.0);
        count("cache.bytes_read", loaded.payload().len() as f64);
        if let Ok(s) = span("cache.decode_sweep", || decode_sweep(loaded.payload())) {
            return s;
        }
    }
    let s = span("core.sweep", || coverage_sweep::sweep(model));
    let payload = span("cache.encode_sweep", || encode_sweep(&s));
    count("cache.bytes_written", payload.len() as f64);
    span("cache.save", || {
        store.save(FIG2_KIND, key, SCHEMA_VERSION, &payload)
    });
    s
}

fn table1(model: &PaperModel, o: &mut Out) {
    let rendered = span("report.render", || {
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
        bands.render() + &t.render()
    });
    o.table(&rendered);
}

fn table2(model: &PaperModel, o: &mut Out) -> Result<(), String> {
    let rows = span("core.sizing", || sizing::table2(model));
    let (table, csv) = span("report.render", || {
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
        (t.render(), csv)
    });
    o.table(&table);
    o.artifact("table2.csv", csv.finish())
}

fn fig1(model: &PaperModel, o: &mut Out) -> Result<(), String> {
    let (stats, cdf, points) = span("core.demand_stats", || {
        (
            demand_stats::demand_stats(model),
            demand_stats::cdf_series(model, 400),
            demand_stats::map_series(model),
        )
    });
    let (table, csv, cdf_svg, map_svg) = span("report.render", || {
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
        let mut csv = CsvWriter::new();
        csv.record(&["locations_per_cell", "cumulative_probability"]);
        for &(x, p) in &cdf {
            csv.record_display(&[x as f64, p]);
        }
        let mut chart = LineChart::new(
            "Fig 1: CDF of US un(der)served locations per service cell",
            "# of locations per cell",
            "cumulative probability",
        );
        chart.push(Series::line(
            "locations/cell",
            cdf.iter().map(|&(x, p)| (x as f64, p)).collect(),
        ));
        let map = PointMap {
            title: "Fig 1: un(der)served locations per Starlink service cell".into(),
            points,
        };
        (
            t.render(),
            csv,
            chart.render(720.0, 440.0),
            map.render(900.0, 560.0),
        )
    });
    o.table(&table);
    o.artifact("fig1_cdf.csv", csv.finish())?;
    o.artifact("fig1_cdf.svg", &cdf_svg)?;
    o.artifact("fig1_map.svg", &map_svg)
}

fn fig2(
    model: &PaperModel,
    o: &mut Out,
    store: &SnapshotStore,
    cfg: &SynthConfig,
) -> Result<(), String> {
    let s = cached_sweep(store, cfg, model);
    let (csv, svg) = span("report.render", || {
        let mut csv = CsvWriter::new();
        csv.record(&["beamspread", "oversubscription", "fraction_served"]);
        for (bi, &b) in s.beamspreads.iter().enumerate() {
            for (ri, &r) in s.oversubs.iter().enumerate() {
                csv.record_display(&[b as f64, r as f64, s.fraction[bi][ri]]);
            }
        }
        let h = Heatmap {
            title: "Fig 2: fraction of US cells served".into(),
            x_label: "oversubscription factor".into(),
            y_label: "beamspread factor".into(),
            xs: s.oversubs.clone(),
            ys: s.beamspreads.clone(),
            values: s.fraction.clone(),
        };
        (csv, h.render(760.0, 460.0))
    });
    o.artifact("fig2_sweep.csv", csv.finish())?;
    o.artifact("fig2_heatmap.svg", &svg)?;
    o.say(format_args!(
        "Figure 2: fraction served at (b=1, rho=20): {:.4}; at (b=14, rho=5): {:.4}",
        s.at(1, 20).unwrap_or(f64::NAN),
        s.at(14, 5).unwrap_or(f64::NAN)
    ));
    Ok(())
}

fn fig3(model: &PaperModel, o: &mut Out) -> Result<(), String> {
    let curves = span("core.tail", || tail::figure3(model, 70_000));
    let (csv, svg) = span("report.render", || {
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
        (csv, chart.render(820.0, 480.0))
    });
    o.artifact("fig3_tail.csv", csv.finish())?;
    o.artifact("fig3_tail.svg", &svg)?;
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
    Ok(())
}

fn fig4(model: &PaperModel, o: &mut Out) -> Result<(), String> {
    let results = span("core.afford", || afford::figure4(model));
    let (table, csv, svg) = span("report.render", || {
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
            t.row(&[
                r.plan.name.to_string(),
                format!("{:.2}", r.plan.monthly_usd),
                r.unaffordable_locations.to_string(),
                format!("{:.1}%", 100.0 * r.unaffordable_fraction()),
            ]);
            let total = r.total_locations;
            let mut pts: Vec<(f64, f64)> = r
                .cdf
                .iter()
                .map(|&(p, cum)| (p, (total - cum) as f64))
                .collect();
            pts.insert(0, (0.0, total as f64));
            chart.push(Series::steps(r.plan.name, pts));
            for &(p, cum) in &r.cdf {
                csv.record_with(|row| {
                    row.field(r.plan.name)
                        .field(format_args!("{:.2}", r.plan.monthly_usd))
                        .field(format_args!("{p:.5}"))
                        .field(cum);
                });
            }
        }
        (t.render(), csv, chart.render(820.0, 480.0))
    });
    o.table(&table);
    o.artifact("fig4_affordability.csv", csv.finish())?;
    o.artifact("fig4_affordability.svg", &svg)
}

fn findings_cmd(model: &PaperModel, o: &mut Out) {
    let (f1, f2, f3, f4) = span("core.findings", || {
        (
            findings::finding1(model),
            findings::finding2(model),
            findings::finding3(model),
            findings::finding4(model),
        )
    });
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

/// The CLI's `qoe_oversub.csv` rendering of busy-hour reports.
pub fn qoe_csv(reports: &[QoeReport]) -> CsvWriter {
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
    for r in reports {
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
    csv
}

fn qoe(o: &mut Out) -> Result<(), String> {
    let oversubs = [5.0, 10.0, 20.0, 35.0];
    let reports = layers::busy_hour(1.0, &oversubs, 7);
    let (table, csv) = span("report.render", || {
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
        }
        (t.render(), qoe_csv(&reports))
    });
    o.table(&table);
    o.artifact("qoe_oversub.csv", csv.finish())
}

fn orbit_validate(o: &mut Out) -> Result<(), String> {
    use leo_orbit::coverage::{expected_in_view, CoverageConfig};
    use leo_orbit::WalkerShell;

    let shell = WalkerShell::new(550.0, 53.0, 36, 20, 11);
    let lats = [0.0f64, 10.0, 20.0, 30.0, 37.0, 45.0, 50.0];
    let rows: Vec<(f64, f64, f64)> = lats
        .iter()
        .map(|&lat| {
            let analytic = leo_orbit::density_factor(lat, 53.0).expect("below the inclination");
            (lat, analytic, layers::density(&shell, lat, 2.0, 257))
        })
        .collect();
    let (table, csv) = span("report.render", || {
        let mut t = TextTable::new(
            "EXT-COV: analytic density factor vs Monte-Carlo (53 deg, 550 km shell)",
            &["latitude", "analytic d", "empirical d", "rel err"],
        );
        let mut csv = CsvWriter::new();
        csv.record(&["latitude", "analytic", "empirical"]);
        for &(lat, analytic, empirical) in &rows {
            t.row(&[
                format!("{lat:.0}"),
                format!("{analytic:.4}"),
                format!("{empirical:.4}"),
                format!("{:.2}%", 100.0 * (empirical - analytic).abs() / analytic),
            ]);
            csv.record_display(&[lat, analytic, empirical]);
        }
        (t.render(), csv)
    });
    o.table(&table);
    o.artifact("orbit_density.csv", csv.finish())?;

    let shells = WalkerShell::starlink_current_2025();
    let points = [
        LatLng::new(39.5, -98.35),
        LatLng::new(25.8, -80.2),
        LatLng::new(47.6, -122.3),
        LatLng::new(37.0, -89.5),
    ];
    let stats = layers::coverage(&shells, &points, &CoverageConfig::default());
    let table = span("report.render", || {
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
        t2.render()
    });
    o.table(&table);
    Ok(())
}

fn strict_cmd(model: &PaperModel, o: &mut Out) -> Result<(), String> {
    let rows = span("core.strict", || strict::strict_table(model));
    let (table, csv) = span("report.render", || {
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
        (t.render(), csv)
    });
    o.table(&table);
    o.artifact("strict_bound.csv", csv.finish())
}

fn sensitivity_cmd(model: &PaperModel, o: &mut Out) -> Result<(), String> {
    let (effs, sizes, ths, programs) = span("core.sensitivity", || {
        (
            sensitivity::efficiency_sweep(model, &[3.0, 3.5, 4.0, 4.5, 5.0, 5.5]),
            sensitivity::cell_size_sweep(model, &[4, 5, 6]),
            sensitivity::threshold_sweep(model, &[0.01, 0.02, 0.03, 0.05]),
            starlink_divide::subsidy::program_table(model),
        )
    });
    let (tables, csv) = span("report.render", || {
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
        (t.render() + &t2.render() + &t3.render() + &t4.render(), csv)
    });
    o.table(&tables);
    o.artifact("ablation_efficiency.csv", csv.finish())
}

fn latency(o: &mut Out) -> Result<(), String> {
    use leo_orbit::gateway::conus_gateways;
    use leo_orbit::isl::{IslTopology, PathMode};
    use leo_orbit::WalkerShell;

    let topo = span("orbit.isl_topology", || {
        IslTopology::plus_grid(WalkerShell::starlink_gen1_shell1())
    });
    let gws = conus_gateways();
    let users = [
        ("rural Montana", LatLng::new(47.0, -109.0)),
        ("peak-demand cell (SE Missouri)", LatLng::new(37.0, -89.5)),
        ("Appalachia", LatLng::new(37.5, -81.5)),
        ("offshore Atlantic (600 km)", LatLng::new(38.0, -60.0)),
        ("mid-Atlantic (2,800 km)", LatLng::new(35.0, -38.0)),
    ];
    // Per user: bent-pipe latencies, ISL latencies, ISL hop counts.
    let mut per_user = Vec::with_capacity(users.len());
    for (_, u) in &users {
        let (mut bp, mut isl, mut hops) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..8 {
            let t_s = k as f64 * 731.0;
            if let Some(p) = layers::path(&topo, &gws, u, t_s, PathMode::BentPipe) {
                bp.push(p.latency_ms);
            }
            if let Some(p) = layers::path(&topo, &gws, u, t_s, PathMode::IslRelay) {
                isl.push(p.latency_ms);
                hops.push(p.isl_hops as f64);
            }
        }
        per_user.push((bp, isl, hops));
    }
    let (table, csv) = span("report.render", || {
        let mut t = TextTable::new(
            "EXT-LAT: one-way user->gateway latency, bent pipe vs ISL relay (Gen1 shell)",
            &["user", "bent-pipe ms", "ISL ms", "ISL hops"],
        );
        let mut csv = CsvWriter::new();
        csv.record(&["user", "bent_pipe_ms", "isl_ms", "isl_hops"]);
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
        for ((name, _), (bp, isl, hops)) in users.iter().zip(&per_user) {
            t.row(&[
                name.to_string(),
                fmt(mean(bp), bp.len(), 8),
                fmt(mean(isl), isl.len(), 8),
                format!("{:.1}", mean(hops)),
            ]);
            csv.record(&[
                name.to_string(),
                format!("{:.2}", mean(bp)),
                format!("{:.2}", mean(isl)),
                format!("{:.2}", mean(hops)),
            ]);
        }
        (t.render(), csv)
    });
    o.table(&table);
    o.artifact("latency_paths.csv", csv.finish())
}

fn uplink(model: &PaperModel, o: &mut Out) {
    use leo_capacity::uplink::{binding_direction, PolarizationReuse, UplinkModel};
    let peak = model.dataset.peak_cell().locations;
    let (rows, downlink) = span("capacity.uplink", || {
        let rows: Vec<_> = [PolarizationReuse::Single, PolarizationReuse::Dual]
            .into_iter()
            .map(|reuse| {
                let ul = UplinkModel::starlink(&model.capacity, reuse);
                (
                    reuse,
                    ul.max_cell_capacity_gbps(),
                    ul.required_oversubscription(peak),
                    ul.max_locations_servable(20.0),
                    binding_direction(&model.capacity, &ul, peak),
                )
            })
            .collect();
        let downlink =
            leo_capacity::required_oversubscription(peak, model.capacity.max_cell_capacity_gbps());
        (rows, downlink)
    });
    let table = span("report.render", || {
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
        for (reuse, gbps, oversub, locs, binding) in &rows {
            t.row(&[
                format!("{reuse:?}"),
                format!("{gbps:.2}"),
                format!("{oversub:.1}:1"),
                locs.to_string(),
                format!("{binding:?}"),
            ]);
        }
        t.render()
    });
    o.table(&table);
    o.say(format_args!(
        "(downlink peak requirement: {downlink:.1}:1 — the paper's F1)"
    ));
}

fn cost_cmd(model: &PaperModel, o: &mut Out) -> Result<(), String> {
    use leo_capacity::beamspread::Beamspread;
    use leo_capacity::Oversubscription;
    use starlink_divide::cost::{
        average_cost_per_location_year, marginal_cost_curve, FleetCostModel,
    };
    let fleet = FleetCostModel::starlink_estimate();
    let rho = Oversubscription::FCC_CAP;
    let curves = span("core.cost", || {
        [1u32, 5, 15]
            .into_iter()
            .map(|b| {
                let spread = Beamspread::new(b).expect("nonzero");
                (
                    b,
                    average_cost_per_location_year(model, &fleet, rho, spread),
                    marginal_cost_curve(model, &fleet, rho, spread, 3),
                )
            })
            .collect::<Vec<_>>()
    });
    let (table, csv) = span("report.render", || {
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
        for (b, avg, segs) in &curves {
            for (i, seg) in segs.iter().enumerate() {
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
                    *b as f64,
                    i as f64,
                    seg.locations as f64,
                    seg.satellites as f64,
                    seg.usd_per_location_year,
                ]);
            }
        }
        (t.render(), csv)
    });
    o.table(&table);
    o.say(format_args!("(a $120/month subscription pays $1,440/year)"));
    o.artifact("cost_marginal.csv", csv.finish())
}

fn timeline_cmd(model: &PaperModel, o: &mut Out) {
    use starlink_divide::deployment::{timeline, LaunchModel};
    let launch = LaunchModel::current_estimate();
    let four_x = LaunchModel {
        sats_per_year: 8_000.0,
        ..launch
    };
    let (rows, b2) = span("core.timeline", || {
        let rows = timeline(model, &launch);
        let b2 = timeline(model, &four_x)
            .into_iter()
            .find(|r| r.beamspread == 2)
            .expect("b=2 present");
        (rows, b2)
    });
    let table = span("report.render", || {
        let mut t = TextTable::new(
            format!(
                "EXT-TIME: years to reach each requirement at {:.0} sats/yr, {:.0}-yr life              (steady-state ceiling {:.0})",
                launch.sats_per_year,
                launch.lifetime_years,
                launch.steady_state_fleet()
            ),
            &["beamspread", "required (20:1)", "years to reach"],
        );
        for row in &rows {
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
        t.render()
    });
    o.table(&table);
    o.say(format_args!(
        "(at 4x cadence — 8,000/yr — the b=2 requirement takes {})",
        b2.years
            .map(|y| format!("{y:.1} years"))
            .unwrap_or_else(|| "forever".into())
    ));
}

fn export(model: &PaperModel, o: &mut Out) -> Result<(), String> {
    for (name, to_csv) in [
        (
            "dataset_cells.csv",
            leo_demand::export::cells_to_csv as fn(&BroadbandDataset) -> String,
        ),
        ("dataset_counties.csv", leo_demand::export::counties_to_csv),
    ] {
        let csv = span("demand.export", || to_csv(&model.dataset));
        count("demand.export.bytes", csv.len() as f64);
        o.write(name, &csv)?;
    }
    Ok(())
}

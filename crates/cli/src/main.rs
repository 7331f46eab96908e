//! `divide` — renders every table and figure of the paper. The
//! synthetic dataset is generated once and snapshotted to a
//! content-addressed cache (see `leo-cache`); later runs with the same
//! configuration load the snapshot instead of regenerating, with
//! byte-identical artifacts either way. `divide --help` (the `HELP`
//! text) is the one list of every option and command.
//!
//! Text renders to stdout; CSV and SVG artifacts land in the output
//! directory (default `results/`), along with a `run_manifest.json`
//! reproducibility record (command line, seed, per-stage wall-clock,
//! span tree, metrics — see DESIGN.md §8); the run-ledger line is that
//! manifest without its span tree. Progress goes to stderr
//! through the leveled `leo-obs` logger (`--quiet`, `-v`); none of
//! the instrumentation ever changes artifact bytes.

mod compare;
mod history_cmd;
mod report_cmd;

use leo_cache::DatasetCache;
use leo_demand::{BroadbandDataset, SynthConfig};
use leo_obs::manifest::{self, RunInfo};
use leo_report::{CsvWriter, Heatmap, LineChart, PointMap, Series, TextTable};
use starlink_divide::{
    afford, coverage_sweep, demand_stats, findings, sensitivity, sizing, strict, tail, PaperModel,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The tracking allocator wrapping `std::alloc::System`. Tracking is
/// off until `main` turns it on (observability enabled and
/// `DIVIDE_ALLOC` not off), so the disabled path costs one relaxed
/// load per allocation.
#[global_allocator]
static ALLOC: leo_alloc::TrackingAlloc = leo_alloc::TrackingAlloc::new();

/// Adapts `leo_alloc` counters to the `leo-obs` hook shape.
fn alloc_reading() -> leo_obs::resource::AllocReading {
    let s = leo_alloc::stats();
    leo_obs::resource::AllocReading {
        alloc_calls: s.alloc_calls,
        dealloc_calls: s.dealloc_calls,
        allocated_bytes: s.allocated_bytes,
        current_bytes: s.current_bytes,
        peak_bytes: s.peak_bytes,
    }
}

/// The full option and command list, kept in one place so `--help` and
/// genuine usage errors can never drift apart. A unit test pins its
/// command list to [`STAGES`], since an earlier revision omitted
/// `timeline`.
const HELP: &str = "\
usage: divide [--scale small|paper] [--out DIR] [--threads N] <command>

options:
  --scale small|paper  dataset scale (default: paper)
  --out DIR            artifact output directory (default: results/)
  --threads N          worker-pool size (default: available
                       parallelism): N-1 persistent workers are
                       spawned once and reused by every fan-out;
                       output is identical for every N
  --cache DIR          dataset snapshot cache directory (default:
                       <out>/.divide-cache); artifacts are
                       byte-identical warm or cold
  --no-cache           always regenerate; read and write no snapshots
  --ledger FILE        run ledger: every run appends a line to FILE,
                       history reads it (default: runs.jsonl in the
                       cache directory; none with --no-cache)
  --trace[=FILE]       record a timeline and write a Chrome trace
                       (default <out>/trace.json, Perfetto-loadable)
                       plus folded flamegraph stacks (trace.folded);
                       never changes artifact bytes
  --fault-plan SPEC    inject seeded deterministic faults at named
                       sites (robustness testing); SPEC grammar:
                       seed=N;site:p=F|nth=N[,mode=err|panic|delay]
                       [,delay_ms=N]  sites: io.write io.rename
                       io.fsync cache.decode ledger.append pool.chunk
                       stage.<name>
  --quiet, -q          only warnings and errors on stderr
  -v, --verbose        debug-level progress on stderr
  -h, --help           print this help and exit

report/history options (one gate: the candidate against the median
of the earlier values, which for report is the baseline record):
  --baseline FILE      report: 'before' run manifest or
                       BENCH_tier1.json (required)
  --candidate FILE     report: 'after' record of the same kind
                       (required)
  --max-regress-pct P  fail when a metric is worse than its baseline by
                       more than P% (20)
  --min-wall-ms MS     time metrics below MS in both runs never gate (5)

environment (a switch is off when empty, 0, off or false, in any case):
  DIVIDE_OBS           switch: off disables spans, metrics and --trace
  DIVIDE_ALLOC         switch: off disables allocation tracking (heap
                       telemetry in manifest, ledger, and trace)
  DIVIDE_PAR_THRESHOLD_NS
                       worker-pool serial threshold: fan-outs whose
                       chunks are estimated to take fewer nanoseconds
                       run serially; 0 sends every fan-out to the pool
                       (default: 100000; anything but a whole number
                       is a usage error)

exit codes:
  0    success (observability may be degraded; see the manifest's
       'degraded' section)
  1    runtime failure: I/O error after retries, stage abort or
       panic
  2    usage error
  3    perf regression detected by report/history
  130  interrupted by SIGINT/SIGTERM (registered temp files cleaned)

commands:
  table1          single-satellite capacity model
  table2          constellation sizes vs beamspread
  fig1            demand distribution (CDF + map)
  fig2            fraction of cells served heatmap
  fig3            constellation size vs locations unserved
  fig4            affordability CDFs
  findings        findings F1-F4
  qoe             busy-hour QoE vs oversubscription (extension)
  orbit-validate  Walker density/coverage validation (extension)
  strict          strict all-cells sizing bound (extension)
  sensitivity     ablations: efficiency, cell size, threshold, subsidy
  latency         user->gateway latency, bent pipe vs ISL (extension)
  uplink          uplink binding-direction check (extension)
  cost            marginal dollars per tail location (extension)
  timeline        launch-cadence deployment timeline (extension)
  export          dataset CSV export
  all             everything above
  report          diff two run manifests / bench files; exit 3 on
                  perf regression (see report/history options)
  history         per-stage wall/memory trend table over the run
                  ledger; exit 3 when the newest run regresses vs the
                  median of up to 10 prior runs (see report/history
                  options)";

/// Prints the help to stdout and exits 0 (`-h`/`--help`).
fn help() -> ! {
    println!("{HELP}");
    std::process::exit(0);
}

/// Reports a genuine usage error on stderr and exits 2.
fn usage(problem: &str) -> ! {
    eprintln!("divide: {problem}");
    eprintln!("{HELP}");
    std::process::exit(2);
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    let mut scale = "paper".to_string();
    let mut out = PathBuf::from("results");
    let mut threads: Option<usize> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut no_cache = false;
    // None = no tracing; Some(None) = trace to <out>/trace.json;
    // Some(Some(p)) = trace to p.
    let mut trace: Option<Option<PathBuf>> = None;
    let mut fault_spec: Option<String> = None;
    let mut gate = compare::Gate {
        max_regress_pct: 20.0,
        min_wall_ms: 5.0,
    };
    let mut baseline: Option<PathBuf> = None;
    let mut candidate: Option<PathBuf> = None;
    let mut ledger_flag: Option<PathBuf> = None;
    let mut command = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .unwrap_or_else(|| usage("--scale needs a value"))
            }
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| usage("--out needs a value")))
            }
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => threads = Some(n),
                    _ => usage("--threads expects a positive integer"),
                }
            }
            "--cache" => {
                cache_dir = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--cache needs a value")),
                ))
            }
            "--no-cache" => no_cache = true,
            "--trace" => trace = Some(None),
            "--fault-plan" => {
                fault_spec = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--fault-plan needs a value")),
                )
            }
            "--baseline" => {
                baseline = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--baseline needs a value")),
                ))
            }
            "--candidate" => {
                candidate = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--candidate needs a value")),
                ))
            }
            "--max-regress-pct" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--max-regress-pct needs a value"));
                match v.parse::<f64>() {
                    Ok(p) if p.is_finite() && p >= 0.0 => gate.max_regress_pct = p,
                    _ => usage("--max-regress-pct expects a non-negative number"),
                }
            }
            "--min-wall-ms" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--min-wall-ms needs a value"));
                match v.parse::<f64>() {
                    Ok(ms) if ms.is_finite() && ms >= 0.0 => gate.min_wall_ms = ms,
                    _ => usage("--min-wall-ms expects a non-negative number"),
                }
            }
            "--ledger" => {
                ledger_flag = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--ledger needs a value")),
                ))
            }
            "--quiet" | "-q" => leo_obs::log::set_level(leo_obs::log::Level::Warn),
            "-v" | "--verbose" => leo_obs::log::set_level(leo_obs::log::Level::Debug),
            "-h" | "--help" => help(),
            flag if flag.starts_with("--trace=") => {
                let path = &flag["--trace=".len()..];
                if path.is_empty() {
                    usage("--trace= needs a file path");
                }
                trace = Some(Some(PathBuf::from(path)));
            }
            cmd if command.is_none() && !cmd.starts_with('-') => command = Some(cmd.to_string()),
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }
    let command = command.unwrap_or_else(|| usage("no command given"));
    if !matches!(scale.as_str(), "small" | "paper") {
        usage(&format!(
            "unknown scale {scale:?} (expected small or paper)"
        ));
    }
    // Reject unknown commands *before* the expensive dataset build.
    let known = STAGES.iter().any(|(name, _)| *name == command);
    if !known && !matches!(command.as_str(), "all" | "report" | "history") {
        usage(&format!("unknown command {command:?}"));
    }
    // A serial threshold the pool cannot read is a usage error, like
    // --threads 0, not a silent fallback to the default.
    if let Err(e) = leo_parallel::env_serial_threshold() {
        usage(&e);
    }
    // `report` only reads two JSON records — no dataset, no output
    // directory, no instrumentation of its own.
    if command == "report" {
        let baseline = baseline.unwrap_or_else(|| usage("report needs --baseline FILE"));
        let candidate = candidate.unwrap_or_else(|| usage("report needs --candidate FILE"));
        std::process::exit(report_cmd::run(&baseline, &candidate, &gate));
    }
    // `history` likewise: it only reads the ledger. The ledger path
    // resolves as for a normal run with the same flags, so `divide all`
    // and `divide history` line up without repeating the path.
    if command == "history" {
        let cache = resolve_cache_dir(no_cache, &cache_dir, &out);
        let Some(path) = resolve_ledger(ledger_flag, cache.as_deref()) else {
            usage("history needs --ledger FILE with --no-cache");
        };
        std::process::exit(history_cmd::run(&path, &gate));
    }
    // Fault injection (--fault-plan). An unparsable plan is a usage
    // error (exit 2) — silently running *without* the faults a chaos
    // harness asked for would make every "survived the plan" result
    // meaningless.
    if let Some(spec) = fault_spec {
        match leo_fault::FaultPlan::parse(&spec) {
            Ok(plan) => {
                leo_obs::log_info!("fault plan active: {plan}");
                leo_fault::set_plan(Some(plan));
                // With faults active, injected panics are an expected
                // outcome: report them as one typed line instead of the
                // default "thread panicked at ..." + backtrace, so a
                // chaos harness can assert clean typed failures.
                // Plan-less runs keep the default hook (and its
                // backtraces) for genuine bugs.
                std::panic::set_hook(Box::new(|info| {
                    let msg = info
                        .payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| info.payload().downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "stage aborted".to_string());
                    eprintln!("divide: fatal: {msg}");
                }));
            }
            Err(e) => usage(&format!("invalid fault plan: {e}")),
        }
    }
    // Clean up registered temp files and exit 130 on SIGINT/SIGTERM.
    leo_fault::signal::install();
    // Explicit flag wins; otherwise leo-parallel falls back to
    // available parallelism.
    leo_parallel::set_global_threads(threads);
    // The manifest and trace must describe this invocation only.
    leo_obs::reset();
    // Allocation tracking piggybacks on observability: when spans are
    // collected (and DIVIDE_ALLOC doesn't opt out), turn the tracking
    // allocator on and register it as the leo-obs resource hook — the
    // hook is the single switch every consumer (manifest, ledger,
    // trace memory lane) keys off.
    if leo_obs::enabled() && !leo_obs::switched_off("DIVIDE_ALLOC") {
        leo_alloc::set_tracking(true);
        leo_obs::resource::set_alloc_hook(Some(leo_obs::resource::AllocHook {
            read: alloc_reading,
            rebase_span_peak: leo_alloc::rebase_span_peak,
            span_peak: leo_alloc::span_peak_bytes,
        }));
    }
    // Spawn the persistent worker pool up front (after the metrics
    // reset, so `parallel.pool_spawned_threads` lands in the manifest)
    // so the first paper-scale fan-out doesn't pay thread creation.
    leo_parallel::pool::prewarm(leo_parallel::effective_threads());
    if trace.is_some() {
        if leo_obs::enabled() {
            leo_obs::trace::start();
        } else {
            leo_obs::log_warn!("--trace ignored: observability is off (DIVIDE_OBS)");
            trace = None;
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        leo_obs::log_error!("cannot create output directory {}: {e}", out.display());
        std::process::exit(1);
    }
    // Remove *.tmp.<pid> staging files orphaned by a previous crashed
    // or killed run (only provably-dead owners; see safe_io).
    let swept = leo_fault::safe_io::sweep_orphan_tmp(&out);

    let resolved_cache = resolve_cache_dir(no_cache, &cache_dir, &out);
    let swept = swept
        + resolved_cache
            .as_deref()
            .map(leo_fault::safe_io::sweep_orphan_tmp)
            .unwrap_or(0);
    if swept > 0 {
        leo_obs::log_info!("removed {swept} orphaned .tmp file(s) from a previous run");
    }
    let ledger_path = resolve_ledger(ledger_flag, resolved_cache.as_deref());
    let cache = resolved_cache.map(DatasetCache::new);

    let cfg = if scale == "paper" {
        SynthConfig::paper()
    } else {
        SynthConfig::small()
    };
    let seed = cfg.seed;
    match &cache {
        Some(c) => leo_obs::log_info!(
            "preparing {scale}-scale dataset (cache at {})...",
            c.store().dir().display()
        ),
        None => leo_obs::log_info!("generating {scale}-scale dataset (cache disabled)..."),
    }
    // The dataset build runs outside stage() but fans out on the
    // worker pool, so an injected pool.chunk panic would otherwise
    // unwind straight through main (exit 101, untyped).
    let model = {
        let _stage = leo_obs::span!("stage.dataset");
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ds = match &cache {
                Some(c) => c.load_or_generate(&cfg),
                None => BroadbandDataset::generate(&cfg),
            };
            PaperModel::new(ds)
        }));
        match built {
            Ok(model) => model,
            Err(_) => {
                leo_obs::log_error!("dataset build aborted; no artifacts written");
                std::process::exit(1);
            }
        }
    };
    leo_obs::log_info!(
        "dataset: {} locations in {} demand cells ({} US cells)",
        model.dataset.total_locations,
        model.dataset.cells.len(),
        model.dataset.us_cell_count
    );

    let ctx = Ctx {
        model: &model,
        out: &out,
        cache: cache.as_ref(),
        cfg: &cfg,
    };
    for (name, run) in STAGES {
        if command == "all" || command == *name {
            stage(name, || run(&ctx));
        }
    }

    let info = RunInfo {
        command,
        scale,
        seed,
        threads: leo_parallel::effective_threads(),
        argv,
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    // The trace export runs before the manifest so its failure (counted
    // via leo_fault::degrade) lands in the manifest's `degraded`
    // section. No observability writer can fail the run: the artifacts
    // themselves already landed, and a dead ledger/trace/manifest file
    // degrades bookkeeping, not results.
    if let Some(dest) = trace {
        let chrome = dest.unwrap_or_else(|| out.join("trace.json"));
        let folded = chrome.with_extension("folded");
        let lanes = leo_obs::trace::snapshot();
        for (path, result) in [
            (&chrome, leo_trace::export::write_chrome(&chrome, &lanes)),
            (&folded, leo_trace::export::write_folded(&folded, &lanes)),
        ] {
            match result {
                Ok(()) => leo_obs::log_info!("wrote {}", path.display()),
                Err(e) => {
                    leo_obs::log_warn!("cannot write {}: {e}", path.display());
                    leo_fault::degrade("trace", &e.to_string());
                }
            }
        }
    }
    let mut run_manifest = manifest::run_manifest(&info, wall_ms);
    // The ledger line is a projection of the manifest. A failed append
    // rebuilds the manifest so the failure lands in its `degraded`
    // section and `degraded.ledger` counter.
    if leo_obs::enabled() {
        if let Some(path) = &ledger_path {
            let ts = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let line = leo_obs::ledger::project(&run_manifest, ts);
            match leo_obs::ledger::append(path, &line) {
                Ok(()) => leo_obs::log_info!("appended run to {}", path.display()),
                Err(e) => {
                    leo_obs::log_warn!("cannot append to {}: {e}", path.display());
                    leo_fault::degrade("ledger", &e.to_string());
                    run_manifest = manifest::run_manifest(&info, wall_ms);
                }
            }
        }
    }
    let manifest_path = out.join("run_manifest.json");
    match manifest::write_json(&manifest_path, &run_manifest) {
        Ok(()) => leo_obs::log_info!("wrote {}", manifest_path.display()),
        Err(e) => leo_obs::log_warn!("cannot write {}: {e}", manifest_path.display()),
    }
}

/// Snapshot cache resolution: --no-cache wins, then --cache, then
/// <out>/.divide-cache.
fn resolve_cache_dir(no_cache: bool, cache_dir: &Option<PathBuf>, out: &Path) -> Option<PathBuf> {
    if no_cache {
        return None;
    }
    Some(
        cache_dir
            .clone()
            .unwrap_or_else(|| out.join(".divide-cache")),
    )
}

/// Run-ledger resolution: --ledger wins, then runs.jsonl beside the
/// dataset snapshots in the cache directory. `None` means "no ledger"
/// — nothing is appended and `history` has nothing to read.
fn resolve_ledger(explicit: Option<PathBuf>, cache_dir: Option<&Path>) -> Option<PathBuf> {
    explicit.or_else(|| cache_dir.map(|d| d.join("runs.jsonl")))
}

/// What a pipeline stage reads: the model, the artifact directory, and
/// the snapshot cache and config (Fig 2 snapshots its sweep rows).
struct Ctx<'a> {
    model: &'a PaperModel,
    out: &'a Path,
    cache: Option<&'a DatasetCache>,
    cfg: &'a SynthConfig,
}

/// A pipeline stage's body.
type StageFn = fn(&Ctx);

/// Every pipeline stage, in `all` order. The up-front command check,
/// single-stage dispatch and `all` all read this one table.
const STAGES: &[(&str, StageFn)] = &[
    ("table1", |c| table1(c.model)),
    ("table2", |c| table2(c.model, c.out)),
    ("fig1", |c| fig1(c.model, c.out)),
    ("fig2", |c| fig2(c.model, c.out, c.cache, c.cfg)),
    ("fig3", |c| fig3(c.model, c.out)),
    ("fig4", |c| fig4(c.model, c.out)),
    ("findings", |c| findings_cmd(c.model)),
    ("qoe", |c| qoe(c.out)),
    ("orbit-validate", |c| orbit_validate(c.out)),
    ("strict", |c| strict_cmd(c.model, c.out)),
    ("sensitivity", |c| sensitivity_cmd(c.model, c.out)),
    ("latency", |c| latency(c.out)),
    ("uplink", |c| uplink(c.model)),
    ("cost", |c| cost_cmd(c.model, c.out)),
    ("timeline", |c| timeline_cmd(c.model)),
    ("export", |c| export(c.model, c.out)),
];

/// Runs one pipeline stage under a `stage.<name>` span; the manifest's
/// per-stage wall-clock table is derived from exactly these spans.
///
/// Robustness wrapping: an active fault plan may inject a
/// `stage.<name>` fault (delay, typed error, or panic), and any panic
/// that escapes the stage body — injected or genuine — becomes a typed
/// exit 1 instead of unwinding through main. An interrupted run is
/// recovered by rerunning it: every artifact lands atomically, so the
/// rerun overwrites whole files only.
fn stage(name: &str, f: impl FnOnce()) {
    let _span = leo_obs::span::enter(&format!("stage.{name}"));
    leo_obs::log_debug!("stage {name}");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if leo_fault::active() {
            if let Some(fault) = leo_fault::should_fire(&format!("stage.{name}")) {
                if let Some(e) = fault.apply_io() {
                    return Err(e);
                }
            }
        }
        f();
        Ok(())
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            leo_obs::log_error!("stage {name} aborted: {e}");
            std::process::exit(1);
        }
        Err(_) => {
            // The panic hook already reported the payload.
            leo_obs::log_error!("stage {name} aborted by panic");
            std::process::exit(1);
        }
    }
}

fn strict_cmd(model: &PaperModel, out: &Path) {
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
    print!("{}", t.render());
    write(out, "strict_bound.csv", csv.finish());
}

fn sensitivity_cmd(model: &PaperModel, out: &Path) {
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
    print!("{}", t.render());
    write(out, "ablation_efficiency.csv", csv.finish());

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
    print!("{}", t2.render());

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
    print!("{}", t3.render());

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
    print!("{}", t4.render());
}

fn latency(out: &Path) {
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
    print!("{}", t.render());
    write(out, "latency_paths.csv", csv.finish());
}

fn cost_cmd(model: &PaperModel, out: &Path) {
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
    print!("{}", t.render());
    println!("(a $120/month subscription pays $1,440/year)");
    write(out, "cost_marginal.csv", csv.finish());
}

fn timeline_cmd(model: &PaperModel) {
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
    print!("{}", t.render());
    let four_x = LaunchModel {
        sats_per_year: 8_000.0,
        ..launch
    };
    let b2 = timeline(model, &four_x)
        .into_iter()
        .find(|r| r.beamspread == 2)
        .expect("b=2 present");
    println!(
        "(at 4x cadence — 8,000/yr — the b=2 requirement takes {})",
        b2.years
            .map(|y| format!("{y:.1} years"))
            .unwrap_or_else(|| "forever".into())
    );
}

fn uplink(model: &PaperModel) {
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
    print!("{}", t.render());
    println!(
        "(downlink peak requirement: {:.1}:1 — the paper's F1)",
        leo_capacity::required_oversubscription(peak, model.capacity.max_cell_capacity_gbps())
    );
}

fn export(model: &PaperModel, out: &Path) {
    write(
        out,
        "dataset_cells.csv",
        &leo_demand::export::cells_to_csv(&model.dataset),
    );
    write(
        out,
        "dataset_counties.csv",
        &leo_demand::export::counties_to_csv(&model.dataset),
    );
}

fn write(out: &Path, name: &str, content: &str) {
    let path = out.join(name);
    // Atomic tmp+rename with bounded retry: a crash or injected fault
    // mid-write can never leave a torn artifact under the final name.
    if let Err(e) = leo_fault::safe_io::write_atomic(&path, content.as_bytes()) {
        leo_obs::log_error!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    // Artifact writes join the uniform io.* metric family the snapshot
    // store feeds, so the manifest accounts for all file traffic.
    leo_obs::metrics::counter_add("io.write_calls", 1);
    leo_obs::metrics::counter_add("io.bytes_written", content.len() as u64);
    leo_obs::log_info!("wrote {}", path.display());
}

fn table1(model: &PaperModel) {
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
    print!("{}", bands.render());

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
    print!("{}", t.render());
}

fn table2(model: &PaperModel, out: &Path) {
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
    print!("{}", t.render());
    write(out, "table2.csv", csv.finish());
}

fn fig1(model: &PaperModel, out: &Path) {
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
    print!("{}", t.render());

    let cdf = demand_stats::cdf_series(model, 400);
    let mut csv = CsvWriter::new();
    csv.record(&["locations_per_cell", "cumulative_probability"]);
    for &(x, p) in &cdf {
        csv.record_display(&[x as f64, p]);
    }
    write(out, "fig1_cdf.csv", csv.finish());

    let mut chart = LineChart::new(
        "Fig 1: CDF of US un(der)served locations per service cell",
        "# of locations per cell",
        "cumulative probability",
    );
    chart.push(Series::line(
        "locations/cell",
        cdf.iter().map(|&(x, p)| (x as f64, p)).collect(),
    ));
    write(out, "fig1_cdf.svg", &chart.render(720.0, 440.0));

    let map = PointMap {
        title: "Fig 1: un(der)served locations per Starlink service cell".into(),
        points: demand_stats::map_series(model),
    };
    write(out, "fig1_map.svg", &map.render(900.0, 560.0));
}

fn fig2(model: &PaperModel, out: &Path, cache: Option<&DatasetCache>, cfg: &SynthConfig) {
    // The sweep rows are derived purely from the dataset + capacity
    // model, so they snapshot under a key chained off the dataset's.
    let s = match cache {
        Some(c) => c.sweep(cfg, model),
        None => coverage_sweep::sweep(model),
    };
    let mut csv = CsvWriter::new();
    csv.record(&["beamspread", "oversubscription", "fraction_served"]);
    for (bi, &b) in s.beamspreads.iter().enumerate() {
        for (ri, &r) in s.oversubs.iter().enumerate() {
            csv.record_display(&[b as f64, r as f64, s.fraction[bi][ri]]);
        }
    }
    write(out, "fig2_sweep.csv", csv.finish());
    let h = Heatmap {
        title: "Fig 2: fraction of US cells served".into(),
        x_label: "oversubscription factor".into(),
        y_label: "beamspread factor".into(),
        xs: s.oversubs.clone(),
        ys: s.beamspreads.clone(),
        values: s.fraction.clone(),
    };
    write(out, "fig2_heatmap.svg", &h.render(760.0, 460.0));
    println!(
        "Figure 2: fraction served at (b=1, rho=20): {:.4}; at (b=14, rho=5): {:.4}",
        s.at(1, 20).unwrap_or(f64::NAN),
        s.at(14, 5).unwrap_or(f64::NAN)
    );
}

fn fig3(model: &PaperModel, out: &Path) {
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
    write(out, "fig3_tail.csv", csv.finish());
    write(out, "fig3_tail.svg", &chart.render(820.0, 480.0));
    for c in &curves {
        println!(
            "Figure 3: b={:>2} rho={:>2.0}: serve-all={} satellites, first step saves {}",
            c.beamspread,
            c.oversub,
            c.points.first().map(|p| p.constellation).unwrap_or(0),
            c.points
                .first()
                .zip(c.points.get(1))
                .map(|(a, b)| a.constellation - b.constellation)
                .unwrap_or(0),
        );
    }
}

fn fig4(model: &PaperModel, out: &Path) {
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
    print!("{}", t.render());
    write(out, "fig4_affordability.csv", csv.finish());
    write(out, "fig4_affordability.svg", &chart.render(820.0, 480.0));
}

fn findings_cmd(model: &PaperModel) {
    let f1 = findings::finding1(model);
    let f2 = findings::finding2(model);
    let f3 = findings::finding3(model);
    let f4 = findings::finding4(model);
    println!(
        "F1: peak cell has {} locations demanding {:.1} Gbps -> {:.1}:1 oversubscription;",
        f1.peak_locations, f1.peak_demand_gbps, f1.peak_oversub
    );
    println!(
        "    {} cells ({} locations) exceed the 20:1 capacity; capping at 20:1 sheds {}",
        f1.over_cap_cells, f1.over_cap_locations, f1.unserved_at_cap
    );
    println!(
        "    locations and serves {:.2}% of the total.",
        100.0 * f1.served_fraction_at_cap
    );
    println!(
        "F2: serving all cells at <=20:1 with beamspread 2 needs {} satellites",
        f2.required_b2_capped
    );
    println!(
        "    ({} more than the current ~{}).",
        f2.additional_needed, f2.current_size
    );
    println!(
        "F3: the final {} locations cost {} additional satellites (b=5, 20:1).",
        f3.tail_locations, f3.marginal_satellites
    );
    println!(
        "F4: {} of {} locations cannot afford Starlink Residential;",
        f4.unaffordable_residential, f4.total_locations
    );
    println!(
        "    {} cannot even with Lifeline; cable plans are affordable at {:.2}% of locations.",
        f4.unaffordable_with_lifeline,
        100.0 * f4.cable_affordable_fraction
    );
}

fn qoe(out: &Path) {
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
    print!("{}", t.render());
    write(out, "qoe_oversub.csv", csv.finish());
}

fn orbit_validate(out: &Path) {
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
    print!("{}", t.render());
    write(out, "orbit_density.csv", csv.finish());

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
    print!("{}", t2.render());
}

#[cfg(test)]
mod tests {
    use super::{HELP, STAGES};

    #[test]
    fn help_lists_every_command() {
        let (_, commands) = HELP
            .split_once("\ncommands:\n")
            .expect("a commands section");
        let listed: Vec<&str> = commands
            .lines()
            .filter_map(|line| line.strip_prefix("  ")?.split_whitespace().next())
            .collect();
        let every = STAGES.iter().map(|(name, _)| *name);
        for name in every.chain(["all", "report", "history"]) {
            assert!(listed.contains(&name), "--help omits {name}: {listed:?}");
        }
    }
}

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
mod stages;

use leo_alloc::Lane;
use leo_cache::DatasetCache;
use leo_demand::{BroadbandDataset, SynthConfig};
use leo_fault::safe_io::Batch;
use leo_obs::manifest::{self, RunInfo};
use stages::{Ctx, Output, Stage, STAGES};
use starlink_divide::PaperModel;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

/// The tracking allocator wrapping `std::alloc::System`. It counts
/// every allocation of the process; `main` registers it as the
/// `leo-obs` allocator hook.
#[global_allocator]
static ALLOC: leo_alloc::TrackingAlloc = leo_alloc::TrackingAlloc::new();

/// Adapts `leo_alloc`'s process totals to the `leo-obs` hook shape.
fn alloc_reading() -> leo_obs::resource::AllocReading {
    reading(leo_alloc::stats())
}

/// Adapts the calling thread's `leo_alloc` lane to the hook shape.
fn lane_reading() -> leo_obs::resource::AllocReading {
    reading(leo_alloc::lane_stats())
}

fn reading(s: leo_alloc::AllocStats) -> leo_obs::resource::AllocReading {
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
                       spawned once and reused by every fan-out; at
                       N >= 2, all computes qoe, orbit-validate and
                       latency on the last worker beside the other
                       stages; output is identical for every N
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
                       stage.<name> (dataset or a command)
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
    let known = STAGES.iter().any(|(name, _, _)| *name == command);
    if !known && !matches!(command.as_str(), "all" | "report" | "history") {
        usage(&format!("unknown command {command:?}"));
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
                // Likewise for a stage fault that could never fire.
                let known = |n: &str| n == "dataset" || STAGES.iter().any(|(s, _, _)| *s == n);
                for site in plan.rules.iter().map(|r| &r.site) {
                    if site.strip_prefix("stage.").is_some_and(|n| !known(n)) {
                        usage(&format!("invalid fault plan: {site} names no stage"));
                    }
                }
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
    // Register the tracking allocator as the leo-obs resource hook,
    // which every memory field (manifest, ledger, trace memory lane)
    // reads.
    leo_obs::resource::set_alloc_hook(Some(leo_obs::resource::AllocHook {
        read: alloc_reading,
        read_lane: lane_reading,
        rebase_span_peak: leo_alloc::rebase_span_peak,
        span_peak: leo_alloc::span_peak_bytes,
    }));
    // Spawn the persistent worker pool up front (after the metrics
    // reset, so `parallel.pool_spawned_threads` lands in the manifest)
    // so the first paper-scale fan-out doesn't pay thread creation.
    leo_parallel::pool::prewarm(leo_parallel::effective_threads());
    if trace.is_some() {
        leo_obs::trace::start();
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
    // Every artifact of the run is staged into `batch` and every new
    // snapshot into the cache's own batch; both land in the commit after
    // the last stage, the snapshots best-effort (DESIGN.md §13).
    let batch = Batch::new();
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
    // The dataset build is a stage too, so a pool.chunk panic exits typed.
    let model = settle(
        "dataset",
        caught("stage.dataset", || {
            injected("dataset")?;
            Ok(match &cache {
                Some(c) => PaperModel::new(c.load_or_generate(&cfg)),
                None => PaperModel::new(BroadbandDataset::generate(&cfg)),
            })
        }),
    );
    leo_obs::log_info!(
        "dataset: {} locations in {} demand cells ({} US cells)",
        model.dataset.total_locations,
        model.dataset.cells.len(),
        model.dataset.us_cell_count
    );

    let ctx = Ctx {
        model: &model,
        cache: cache.as_ref(),
        cfg: &cfg,
    };
    let selected: Vec<&Stage> = STAGES
        .iter()
        .filter(|(name, _, _)| command == "all" || command == *name)
        .collect();
    run_stages(&ctx, &out, &batch, &selected, &mut std::io::stdout());
    commit(batch, cache);

    let ran = std::iter::once("dataset").chain(selected.iter().map(|(name, _, _)| *name));
    let info = RunInfo {
        command,
        scale,
        seed,
        threads: leo_parallel::effective_threads(),
        argv,
        stages: ran.map(String::from).collect(),
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    // The trace export runs before the manifest so its failure (counted
    // via leo_fault::degrade) lands in the manifest's `degraded`
    // section. No observability writer can fail the run: the artifacts
    // themselves were committed, and a dead ledger/trace/manifest file
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

/// A stage's outcome, kept until its turn: its value, or why it
/// aborted.
type Ran<T> = Result<T, Abort>;

/// Why a stage, or the commit, aborted.
enum Abort {
    /// An injected `stage.<name>` error, or the commit's I/O error.
    Err(std::io::Error),
    /// A panic, injected or genuine; the panic hook already reported
    /// its payload.
    Panic,
}

/// Runs the selected command stages (DESIGN.md §13), printing their text
/// to `console` and staging their files into `batch`. When both lanes
/// have a body to compute, the side lane computes the bodies of the
/// [`Lane::Side`] stages, in [`STAGES`] order, on the worker pool's last
/// worker (`leo_parallel::beside`), while the main lane computes the
/// others on the caller with one thread fewer. Otherwise every body
/// runs on the main lane at full width. Either way the main lane prints
/// and stages each output at its turn, in [`STAGES`] order: while a
/// side stage's turn waits on its body, the main lane computes its next
/// bodies ahead and holds their outputs.
///
/// A failed stage ends the run at its turn, after every earlier stage's
/// output and before any of its own or a later stage's. The side lane
/// sends each result as soon as it is computed and stops once it has
/// sent a failure; the main lane stops computing at its own first
/// failure. So the main lane meets any side failure before it could
/// wait for a result the side lane will not send.
fn run_stages(ctx: &Ctx, out: &Path, batch: &Batch, selected: &[&Stage], console: &mut dyn Write) {
    let split =
        selected.iter().any(|s| s.1 == Lane::Side) && selected.iter().any(|s| s.1 == Lane::Main);
    let on_side = |stage: &Stage| split && stage.1 == Lane::Side;
    let (to_main, from_side) = mpsc::channel();
    let side_lane = move || {
        leo_alloc::with_lane(Lane::Side, || {
            for stage in selected.iter().filter(|s| on_side(s)) {
                let ran = body(ctx, stage);
                let failed = ran.is_err();
                if to_main.send(ran).is_err() || failed {
                    return;
                }
            }
        })
    };
    let mut main_lane = || {
        let mut bodies = selected.iter().filter(|s| !on_side(s));
        let mut held = VecDeque::new();
        let mut failed = false;
        for stage @ (name, _, _) in selected {
            let ran = loop {
                let ready = if on_side(stage) {
                    from_side.try_recv().ok()
                } else {
                    held.pop_front()
                };
                if let Some(ran) = ready {
                    break ran;
                }
                // Not ready: compute the next main body ahead, or, with
                // none left to compute, wait for the side lane.
                match bodies.next().filter(|_| !failed) {
                    Some(next) => {
                        let ran = body(ctx, next);
                        failed = ran.is_err();
                        held.push_back(ran);
                    }
                    None => {
                        break from_side
                            .recv()
                            .expect("the side lane reports each stage up to its first failure")
                    }
                }
            };
            emit(name, out, batch, console, settle(name, ran));
        }
    };
    if split {
        leo_parallel::beside(side_lane, main_lane);
    } else {
        main_lane();
    }
}

/// Computes one command stage's output under its span and catch.
fn body(ctx: &Ctx, (name, _, run): &Stage) -> Ran<Output> {
    caught(&format!("stage.{name}"), || {
        injected(name)?;
        let mut o = Output::default();
        run(ctx, &mut o);
        Ok(o)
    })
}

/// Runs one part of the run under the top-level span `span`: a part of
/// stage `<name>` — the dataset build, a command's body, or the print
/// and staging of its output — under `stage.<name>`, from which the
/// manifest's per-stage wall-clock table is derived, or the commit
/// under `commit`. This is the CLI's only `catch_unwind`: a panic that
/// escapes — injected or genuine — becomes an [`Abort`] instead of
/// unwinding through its lane.
fn caught<T>(span: &str, f: impl FnOnce() -> Ran<T>) -> Ran<T> {
    let _span = leo_obs::span::enter(span);
    leo_obs::log_debug!("{span}");
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or(Err(Abort::Panic))
}

/// Fires any `stage.<name>` fault of an active plan before a body runs:
/// a delay sleeps here, a typed error returns, a panic unwinds into the
/// body's catch.
fn injected(name: &str) -> Ran<()> {
    if leo_fault::active() {
        let fault = leo_fault::should_fire(&format!("stage.{name}"));
        if let Some(e) = fault.and_then(|f| f.apply_io()) {
            return Err(Abort::Err(e));
        }
    }
    Ok(())
}

/// Reports stage `name`'s outcome on the main lane at its turn: its
/// value, or a typed exit 1. A run that ends before its commit leaves
/// `--out` and the cache as they were; rerunning it redoes the run.
fn settle<T>(name: &str, ran: Ran<T>) -> T {
    match ran {
        Ok(value) => value,
        Err(Abort::Err(e)) => fail(&format!("stage {name} aborted: {e}")),
        Err(Abort::Panic) => fail(&format!("stage {name} aborted by panic")),
    }
}

/// Ends the run with exit 1 after removing every file it staged.
/// `process::exit` runs no destructors, so the batch cannot remove them
/// itself, but the signal handler's slot table lists each staged path.
fn fail(why: &str) -> ! {
    leo_obs::log_error!("{why}");
    leo_fault::signal::remove_registered();
    std::process::exit(1);
}

/// Writes a stage's text to `console`, then stages its files in the
/// order pushed, under the stage's span and catch: a failed console
/// write or a panic mid-write still ends as a typed exit 1, and the
/// stage's record counts its I/O.
fn emit(name: &str, out: &Path, batch: &Batch, console: &mut dyn Write, o: Output) {
    let staged = caught(&format!("stage.{name}"), || {
        console.write_all(o.text.as_bytes()).map_err(Abort::Err)?;
        for (file, content) in &o.files {
            stage(out, batch, file, content);
        }
        Ok(())
    });
    settle(name, staged);
}

fn stage(out: &Path, batch: &Batch, name: &str, content: &str) {
    let path = out.join(name);
    // Staged under a temp name with bounded retry; nothing lands under
    // the final name before the commit.
    if let Err(e) = batch.stage(&path, content.as_bytes()) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
    // Artifact writes join the uniform io.* metric family the snapshot
    // store feeds, so the manifest accounts for all file traffic.
    leo_obs::metrics::counter_add("io.write_calls", 1);
    leo_obs::metrics::counter_add("io.bytes_written", content.len() as u64);
    leo_obs::log_info!("staged {}", path.display());
}

/// Makes the run's staged files durable, then visible, under the
/// top-level `commit` span and the CLI's catch: first the artifacts
/// (`Batch::commit`), then the cache's new snapshots
/// (`DatasetCache::commit`). It is no stage, so the manifest's stage
/// list stays `dataset` followed by [`STAGES`]. An artifact failure
/// exits 1 and drops the snapshots unlanded; a failed fsync fails before
/// any rename, so `--out` and the cache stay as they were. A snapshot
/// failure warns and degrades `cache`: the artifacts have landed, and
/// the next run regenerates what the cache lacks.
fn commit(artifacts: Batch, cache: Option<DatasetCache>) {
    let committed = caught("commit", || {
        let files = artifacts.commit().map_err(Abort::Err)?;
        let snaps = cache
            .map_or(Ok(0), DatasetCache::commit)
            .unwrap_or_else(|e| {
                leo_obs::log_warn!("cache: cannot write {e}");
                leo_fault::degrade("cache", &e.to_string());
                0
            });
        Ok((files, snaps))
    });
    match committed {
        Ok((files, snaps)) => leo_obs::log_info!("committed {files} files and {snaps} snapshots"),
        Err(Abort::Err(e)) => fail(&format!("cannot write {e}")),
        Err(Abort::Panic) => fail("commit aborted by panic"),
    }
}

#[cfg(test)]
mod tests {
    use super::{commit, run_stages, HELP, STAGES};
    use crate::stages::{Ctx, Stage};
    use leo_alloc::Lane::{self, Main, Side};
    use leo_demand::SynthConfig;
    use leo_fault::safe_io::Batch;
    use starlink_divide::PaperModel;
    use std::collections::BTreeMap;

    #[test]
    fn help_lists_every_command() {
        let (_, commands) = HELP
            .split_once("\ncommands:\n")
            .expect("a commands section");
        let listed: Vec<&str> = commands
            .lines()
            .filter_map(|line| line.strip_prefix("  ")?.split_whitespace().next())
            .collect();
        let every = STAGES.iter().map(|(name, _, _)| *name);
        for name in every.chain(["all", "report", "history"]) {
            assert!(listed.contains(&name), "--help omits {name}: {listed:?}");
        }
    }

    /// The `--threads` paragraph says which stages `all` computes beside
    /// the others: it names a row of [`STAGES`] exactly when the row's
    /// lane is [`Side`].
    #[test]
    fn help_names_exactly_the_side_lane_stages() {
        let (_, rest) = HELP
            .split_once("\n  --threads N")
            .expect("a --threads option");
        let (paragraph, _) = rest.split_once("\n  --").expect("an option after it");
        let words: Vec<&str> = paragraph
            .split(|c: char| !(c.is_alphanumeric() || c == '-'))
            .collect();
        for (name, lane, _) in STAGES {
            assert_eq!(
                words.contains(name),
                *lane == Side,
                "--threads help must name {name} exactly when its lane is Side: {paragraph:?}"
            );
        }
    }

    /// A run's console text and every file it committed, by name.
    type Produced = (String, BTreeMap<String, Vec<u8>>);

    /// Runs `stages` through `run_stages` at `threads`, in a private
    /// observability scope, staging into a fresh directory and
    /// committing.
    fn run_all(ctx: &Ctx, stages: &[Stage], threads: usize, label: &str) -> Produced {
        let dir = std::env::temp_dir().join(format!(
            "divide_lanes_{label}_{threads}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let scope = leo_obs::scope::ObsScope::new();
        let _in_scope = scope.enter();
        let selected: Vec<&Stage> = stages.iter().collect();
        let mut console = Vec::new();
        leo_parallel::with_threads(threads, || {
            let batch = Batch::new();
            run_stages(ctx, &dir, &batch, &selected, &mut console);
            commit(batch, None);
        });
        let mut files = BTreeMap::new();
        for entry in std::fs::read_dir(&dir).expect("read the run's directory") {
            let path = entry.expect("entry").path();
            let name = path.file_name().expect("a file name").to_string_lossy();
            files.insert(name.into_owned(), std::fs::read(&path).expect("read"));
        }
        let _ = std::fs::remove_dir_all(&dir);
        (
            String::from_utf8(console).expect("UTF-8 console text"),
            files,
        )
    }

    /// `STAGES` with each row's lane replaced by `lane(row index)`.
    fn relaned(lane: impl Fn(usize) -> Lane) -> Vec<Stage> {
        let rows = STAGES.iter().enumerate();
        rows.map(|(i, &(name, _, run))| (name, lane(i), run))
            .collect()
    }

    /// SplitMix64: a seeded bit source, so each assignment repeats.
    fn mix(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Any lane column prints and writes what one lane does: the
    /// committed table and four seeded random assignments, each at 1, 2
    /// and 4 threads, must equal an all-main run at 1 thread, console
    /// text and every file byte for byte.
    #[test]
    fn every_lane_assignment_prints_and_writes_what_one_lane_does() {
        let model = PaperModel::test_scale();
        let cfg = SynthConfig::small();
        let ctx = Ctx {
            model: &model,
            cache: None,
            cfg: &cfg,
        };
        let want = run_all(&ctx, &relaned(|_| Main), 1, "main");
        assert_eq!(want.1.len(), 18, "{:?}", want.1.keys());
        let mut assignments = vec![("committed".to_string(), STAGES.to_vec())];
        for seed in 1..=4u64 {
            let bits = mix(seed);
            let lanes = relaned(|i| if bits >> i & 1 == 1 { Side } else { Main });
            let sides = lanes.iter().filter(|s| s.1 == Side).count();
            assert!(
                0 < sides && sides < lanes.len(),
                "seed {seed} fills one lane"
            );
            assignments.push((format!("seed{seed}"), lanes));
        }
        for (label, lanes) in &assignments {
            let side: Vec<&str> = lanes.iter().filter(|s| s.1 == Side).map(|s| s.0).collect();
            for threads in [1, 2, 4] {
                let got = run_all(&ctx, lanes, threads, label);
                assert!(
                    got == want,
                    "{label} (side lane: {side:?}) at {threads} threads differs from one lane"
                );
            }
        }
    }
}

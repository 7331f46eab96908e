//! Outside-in benchmark of the starlink-divide reproduction.
//!
//! ```text
//! divide-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds `divide` and this
//! binary into the same target directory and starts it from the
//! repository root. One run sets the workload up five times, then runs
//! it closed loop (one client) for `--seconds` and prints the
//! end-to-end metrics; with `--trace 1` it instead splits the time
//! between an untraced loop and a traced pass and prints the per-layer
//! metrics. End-to-end times are scaled to a reference host speed by a
//! probe timed after every iteration (`probe.rs`). The last line of
//! standard output is the result as JSON. Any wrong output fails the
//! run (exit 1).

mod inputs;
mod layers;
mod metrics;
mod probe;
mod replay;
mod stats;
mod sys;
mod trace;
mod workloads;

use metrics::{CliSummary, LoopSummary, END_TO_END, PER_LAYER, ROOT_SPAN};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Sample, Workload};

const USAGE: &str = "usage: divide-benchmark --workload all-warm|fig2-cold|orbit-survey|qoe-sweep \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Set-up passes per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Pairs of untraced and traced replays in the traced pass.
const TRACED_PAIRS: u64 = 20;
/// Fewest traced pairs, however long they take.
const MIN_TRACED_PAIRS: u64 = 3;
/// Iterations and traced pairs in `--smoke` mode.
const SMOKE_ITERATIONS: u64 = 3;
/// Where results, traces and scratch directories go.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        smoke: false,
    };
    let mut args = args;
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    Ok(o)
}

fn main() {
    // Hermetic: neither this process nor the CLI it spawns may pick up
    // the program's environment switches.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DIVIDE_") {
            std::env::remove_var(key);
        }
    }
    let opts = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("divide-benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&opts) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("divide-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark and prints its result; `Ok(false)` when an
/// output was wrong.
fn run(o: &Opts) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    let divide = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("divide");
    let out = Path::new(OUT_DIR);
    let tmp = out.join(format!("tmp-{}-{}", o.workload, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let env = workloads::Env {
        divide,
        threads,
        seed: o.seed,
        tmp: tmp.clone(),
        results: PathBuf::from("results"),
    };
    let result = workloads::make(&o.workload, env).and_then(|mut w| {
        // The CLI replay runs on as many threads as the CLI. The
        // in-process workloads run on one: a fan-out over two threads
        // waits for the slower vCPU, which the single-threaded probe
        // cannot see, so their scaled times would keep the host's noise.
        let pool = if w.is_cli() { threads } else { 1 };
        leo_parallel::set_global_threads(Some(pool));
        leo_parallel::pool::prewarm(pool);
        measure(o, w.as_mut(), out)
    });
    let _ = std::fs::remove_dir_all(&tmp);
    result
}

/// One traced-pass pair: the same replay untraced and traced, in
/// alternating order. Returns traced/untraced − 1.
fn traced_pair(w: &mut dyn Workload, k: u64) -> Result<f64, String> {
    let order = if k.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    };
    let mut secs = [0.0; 2];
    let mut digests = [0; 2];
    for traced in order {
        trace::set_iteration(k);
        trace::set_enabled(traced);
        let started = Instant::now();
        let digest = if traced {
            trace::span(ROOT_SPAN, || w.replay(k))
        } else {
            w.replay(k)
        };
        secs[usize::from(traced)] = started.elapsed().as_secs_f64();
        trace::set_enabled(false);
        digests[usize::from(traced)] = digest?;
    }
    if digests[0] != digests[1] {
        return Err(format!("replay {k}: traced output differs from untraced"));
    }
    Ok(secs[1] / secs[0] - 1.0)
}

fn measure(o: &Opts, w: &mut dyn Workload, out: &Path) -> Result<bool, String> {
    let mut probe = probe::Probe::new();
    let repeats = if o.smoke || o.trace { 1 } else { SETUP_REPEATS };
    // Set-up runs once per process, while the loop's probes come
    // later, so each pass is scaled by probes taken right after it.
    let mut setup_s = Vec::with_capacity(repeats);
    let mut setup_scaled_s = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let started = Instant::now();
        w.setup().map_err(|e| format!("set-up failed: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        setup_s.push(secs);
        setup_scaled_s.push(secs * probe.scale_now());
    }

    let budget = Duration::from_secs_f64(if o.trace { o.seconds / 2.0 } else { o.seconds });
    let cap = if o.smoke { SMOKE_ITERATIONS } else { u64::MAX };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples: Vec<Sample> = Vec::new();
    let started = Instant::now();
    while attempted < cap && (attempted == 0 || started.elapsed() < budget) {
        match w.iterate(attempted) {
            Ok(s) => samples.push(s),
            Err(e) => {
                failed += 1;
                eprintln!("{}: iteration {attempted}: {e}", o.workload);
            }
        }
        attempted += 1;
        probe.run();
    }
    let wall: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if o.trace {
        let cap = if o.smoke {
            SMOKE_ITERATIONS
        } else {
            TRACED_PAIRS
        };
        let mut overhead = Vec::new();
        let n = samples.len().max(1) as f64;
        let mut cli = w.is_cli().then(|| CliSummary {
            files: samples.iter().map(|s| s.files).sum::<f64>() / n,
            bytes: samples.iter().map(|s| s.bytes).sum::<f64>() / n,
            ..CliSummary::default()
        });
        let started = Instant::now();
        let mut k = 0;
        while k < cap && (k < MIN_TRACED_PAIRS || started.elapsed() < budget) {
            attempted += 1;
            let pair = traced_pair(w, k).and_then(|frac| {
                // The CLI itself, beside its replay, for cli.unattributed_s.
                if let Some(cli) = cli.as_mut() {
                    cli.wall_by_iter.insert(k, w.iterate(k)?.wall_s);
                }
                Ok(frac)
            });
            match pair {
                Ok(frac) => overhead.push(frac),
                Err(e) => {
                    failed += 1;
                    eprintln!("{}: traced pass: {e}", o.workload);
                }
            }
            k += 1;
        }
        let rec = trace::take();
        let summary = LoopSummary {
            wall_s: wall.clone(),
            cli,
        };
        let layer = metrics::per_layer(&rec, &overhead, &summary);
        for &(name, unit) in PER_LAYER {
            metrics.push((name, layer[name], unit));
        }
        let trace_path = out.join(format!("{}.trace.json", o.workload));
        std::fs::write(&trace_path, trace::chrome_json(&rec.spans))
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    } else {
        let peak_kb = samples.iter().map(|s| s.maxrss_kb).fold(0.0, f64::max);
        let scale = probe.scale();
        for &(name, unit) in END_TO_END {
            let v = match name {
                "iter_p10_s" => stats::quantile(&wall, 0.1).map(|t| t * scale),
                "cpu_p10_s" => stats::quantile(&cpu, 0.1).map(|t| t * scale),
                "peak_rss_mb" => Some(peak_kb / 1024.0),
                "setup_s" => stats::median(&setup_scaled_s),
                other => unreachable!("end-to-end metric {other} has no rule"),
            };
            metrics.push((name, v.unwrap_or(0.0), unit));
        }
    }

    let correct = failed == 0;
    let line = metrics::result_json(correct, attempted, failed, &metrics);
    for (name, v, unit) in &metrics {
        println!("{} {name} {v} {unit}", o.workload);
    }
    println!("{line}");

    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {}, \
\"result\": {line}, \"probe_scale\": {}, \"setup_s\": {setup_s:?}, \"setup_scaled_s\": {setup_scaled_s:?}, \
\"wall_s\": {wall:?}, \"cpu_s\": {cpu:?}, \"probe_s\": {:?}}}\n",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        leo_parallel::effective_threads(),
        probe.scale(),
        probe.times_s(),
    );
    let path = out.join(format!(
        "{}.trace{}.results.json",
        o.workload,
        u8::from(o.trace)
    ));
    std::fs::write(&path, record).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse(args("--workload qoe-sweep --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("qoe-sweep", 9, 10.0, true)
        );
        assert!(parse(args("--workload nope")).is_err());
        assert!(parse(args("--workload all-warm --trace 2")).is_err());
        assert!(parse(args("--workload all-warm --seconds 0")).is_err());
        assert!(parse(args("--workload all-warm --seed")).is_err());
    }
}

//! The comparison core behind `divide report` and `divide history`.
//!
//! Both commands reduce each run they read to a [`Record`] — a run
//! manifest and its ledger line through the one reader [`record`] —
//! line the records up into [`Metric`]s with [`series`] — one named
//! series of values, oldest first — and hand those to [`run`]. The
//! last value is the candidate and the baseline is the median of the
//! others, so `report`'s two-record diff and `history`'s ledger window
//! are the same comparison: the median of a single predecessor is that
//! predecessor. A metric regresses when its candidate is worse than the
//! baseline by more than `--max-regress-pct`, unless both sit below
//! its unit's noise floor.

use leo_obs::json::Json;
use leo_report::{sparkline, TextTable};

/// Exit code when at least one metric regressed beyond the threshold
/// (distinct from 1 = IO/parse error and 2 = usage error).
pub const EXIT_REGRESSED: i32 = 3;

const REGRESSED: &str = "REGRESSED";

/// The columns of both commands' table.
const COLUMNS: [&str; 7] = [
    "metric",
    "unit",
    "baseline",
    "candidate",
    "delta_pct",
    "status",
    "trend",
];

/// The gate settings `report` and `history` share.
pub struct Gate {
    /// A metric regresses when it is worse than its baseline by more
    /// than this percentage.
    pub max_regress_pct: f64,
    /// `Ms` metrics below this in both baseline and candidate never gate.
    pub min_wall_ms: f64,
}

/// What a metric measures: its display scale, its noise floor, and
/// which direction is worse.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Unit {
    /// Milliseconds of wall-clock or pool busy time.
    Ms,
    /// Heap bytes, shown in MiB.
    Bytes,
    /// Resident set in kB, shown in MB.
    Kb,
    /// Throughput in MB/s: the one unit where higher is better, so a
    /// drop is the regression.
    Mbps,
    /// Counts of work (pool chunks, counters): they track workload
    /// shape, not speed, so they are shown but never gate.
    Count,
}

impl Unit {
    /// Values below this in both baseline and candidate never gate: at
    /// a few ms, a few hundred kB of heap or a few MB of RSS, scheduler,
    /// allocator and kernel noise swamps any real signal.
    fn floor(self, gate: &Gate) -> f64 {
        match self {
            Unit::Ms => gate.min_wall_ms,
            Unit::Bytes => 1024.0 * 1024.0,
            Unit::Kb => 4096.0,
            Unit::Mbps => 0.0,
            Unit::Count => f64::INFINITY,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Unit::Ms => "ms",
            Unit::Bytes => "MiB",
            Unit::Kb => "MB rss",
            Unit::Mbps => "MB/s",
            Unit::Count => "count",
        }
    }

    /// Renders a value in the unit's display scale; `-` when missing.
    fn fmt(self, v: Option<f64>) -> String {
        let Some(v) = v else {
            return "-".to_string();
        };
        match self {
            Unit::Ms | Unit::Mbps => format!("{v:.2}"),
            Unit::Bytes => format!("{:.1}", v / (1024.0 * 1024.0)),
            Unit::Kb => format!("{:.1}", v / 1024.0),
            Unit::Count => format!("{v:.0}"),
        }
    }
}

/// One run's measurements as (metric name, unit, value), in display
/// order.
pub type Record = Vec<(String, Unit, f64)>;

/// One compared quantity: its value in each run, oldest first (NaN
/// where a run lacks it).
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: Unit,
    pub values: Vec<f64>,
}

/// The measurements of one manifest-shaped record — a run manifest or
/// its ledger line, which carry the same fields — each only where the
/// run took it: per-stage wall, total wall, per-stage pool busy time
/// and chunks, per-stage and run peak heap, peak RSS, and counters.
pub fn record(doc: &Json) -> Record {
    let num = |json: Option<&Json>, key: &str| json?.get(key)?.as_f64();
    let stages: &[Json] = match doc.get("stages") {
        Some(Json::Arr(items)) => items,
        _ => &[],
    };
    let named = || {
        stages
            .iter()
            .filter_map(|s| Some((s.get("name")?.as_str()?, s)))
    };
    let mut out = Record::new();
    let mut push = |name: String, unit, value: Option<f64>| {
        if let Some(v) = value {
            out.push((name, unit, v));
        }
    };
    for (stage, f) in named() {
        push(format!("{stage} wall"), Unit::Ms, num(Some(f), "wall_ms"));
    }
    push("total wall".into(), Unit::Ms, num(Some(doc), "wall_ms"));
    // Pool busy time gates like any wall metric; chunk counts only
    // trend.
    for (stage, f) in named() {
        let busy_ms = num(f.get("parallel"), "busy_ns").map(|ns| ns / 1e6);
        push(format!("{stage} par busy"), Unit::Ms, busy_ms);
        let chunks = num(f.get("parallel"), "chunks");
        push(format!("{stage} par chunks"), Unit::Count, chunks);
    }
    for (stage, f) in named() {
        let heap = num(Some(f), "peak_heap_delta");
        push(format!("{stage} peak heap"), Unit::Bytes, heap);
    }
    let resources = doc.get("resources");
    let heap = num(resources, "peak_heap_bytes");
    push("run peak heap".into(), Unit::Bytes, heap);
    push(
        "run peak rss".into(),
        Unit::Kb,
        num(resources, "peak_rss_kb"),
    );
    if let Some(Json::Obj(counters)) = doc.get("metrics").and_then(|m| m.get("counters")) {
        for (name, v) in counters {
            push(name.clone(), Unit::Count, v.as_f64());
        }
    }
    out
}

/// Lines `runs` (oldest first) up into one metric per name, in the
/// order names first appear. Counts measure work shape, not speed, so
/// a count metric is kept only when its values differ.
pub fn series(runs: Vec<Record>) -> Vec<Metric> {
    let n = runs.len();
    let mut metrics: Vec<Metric> = Vec::new();
    for (i, run) in runs.into_iter().enumerate() {
        for (name, unit, v) in run {
            let at = match metrics.iter().position(|m| m.name == name) {
                Some(at) => at,
                None => {
                    let values = vec![f64::NAN; n];
                    metrics.push(Metric { name, unit, values });
                    metrics.len() - 1
                }
            };
            metrics[at].values[i] = v;
        }
    }
    metrics.retain(|m| {
        let first = m.values[0].to_bits();
        m.unit != Unit::Count || m.values.iter().any(|v| v.to_bits() != first)
    });
    metrics
}

impl Metric {
    /// The newest value, if that run measured it.
    fn candidate(&self) -> Option<f64> {
        self.values.last().copied().filter(|v| v.is_finite())
    }

    /// The median of the measured values before the candidate.
    fn baseline(&self) -> Option<f64> {
        median(&self.values[..self.values.len().saturating_sub(1)])
    }

    /// The candidate's change against the baseline (percent) and its
    /// status — the one status rule of both commands.
    fn status(&self, gate: &Gate) -> (Option<f64>, &'static str) {
        let (b, c) = match (self.baseline(), self.candidate()) {
            (Some(b), Some(c)) => (b, c),
            (None, _) => return (None, "new"),
            (Some(_), None) => return (None, "removed"),
        };
        // From zero to anything is an unbounded rise: a stage whose
        // fan-outs all ran serially has 0 ms of pool busy time.
        let pct = if b > 0.0 {
            100.0 * (c - b) / b
        } else if c > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let worse = if self.unit == Unit::Mbps { -pct } else { pct };
        let floor = self.unit.floor(gate);
        let status = if b < floor && c < floor {
            "below floor"
        } else if worse > gate.max_regress_pct {
            REGRESSED
        } else if worse < -gate.max_regress_pct {
            "improved"
        } else {
            "ok"
        };
        (Some(pct), status)
    }
}

/// The median of the finite values, if there are any.
fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Prints `metrics` as one table under `title`, reports regressions on
/// stderr as `divide <command>: ...`, and returns the exit code: 0 or
/// [`EXIT_REGRESSED`].
pub fn run(command: &str, title: &str, metrics: &[Metric], gate: &Gate) -> i32 {
    let mut table = TextTable::new(
        format!(
            "{title} (gate: {:.0}% worse than baseline, time floor {:.1} ms)",
            gate.max_regress_pct, gate.min_wall_ms
        ),
        &COLUMNS,
    );
    let mut regressed = 0usize;
    for m in metrics {
        let (pct, status) = m.status(gate);
        regressed += usize::from(status == REGRESSED);
        table.row(&[
            m.name.clone(),
            m.unit.label().to_string(),
            m.unit.fmt(m.baseline()),
            m.unit.fmt(m.candidate()),
            pct.map_or("-".to_string(), |p| format!("{p:+.1}")),
            status.to_string(),
            // Last column: the sparkline's multi-byte glyphs would throw
            // off the byte-width alignment of any column after it.
            sparkline(&m.values),
        ]);
    }
    print!("{}", table.render());

    if regressed > 0 {
        eprintln!(
            "divide {command}: {regressed} metric(s) regressed beyond {:.0}% of the baseline",
            gate.max_regress_pct
        );
        EXIT_REGRESSED
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATE: Gate = Gate {
        max_regress_pct: 20.0,
        min_wall_ms: 5.0,
    };

    fn status(unit: Unit, values: &[f64]) -> &'static str {
        let m = Metric {
            name: "m".to_string(),
            unit,
            values: values.to_vec(),
        };
        m.status(&GATE).1
    }

    #[test]
    fn series_lines_runs_up_by_name() {
        let row = |name: &str, v| (name.to_string(), Unit::Ms, v);
        let metrics = series(vec![
            vec![row("a", 1.0), row("gone", 2.0)],
            vec![row("new", 3.0), row("a", 4.0)],
        ]);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a", "gone", "new"]);
        assert_eq!(metrics[0].values, [1.0, 4.0]);
        assert!(metrics[1].values[1].is_nan() && metrics[2].values[0].is_nan());
    }

    #[test]
    fn count_rows_appear_only_when_their_values_differ() {
        let row = |name: &str, v| (name.to_string(), Unit::Count, v);
        let metrics = series(vec![
            vec![row("same", 4.0), row("moved", 1.0), row("gone", 2.0)],
            vec![row("same", 4.0), row("moved", 3.0)],
        ]);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["moved", "gone"]);
    }

    #[test]
    fn a_manifest_and_its_ledger_line_give_identical_records() {
        use leo_obs::manifest::{run_manifest, RunInfo};
        // A private scope keeps the registries this test records into
        // apart from every other test's.
        let scope = leo_obs::scope::ObsScope::new();
        let _in_scope = scope.enter();
        leo_obs::set_enabled(true);
        {
            let _stage = leo_obs::span!("stage.dataset");
            leo_obs::scope::attribute_fanout(64, &[3_000_000, 5_000_000], 9);
            leo_obs::metrics::counter_add("cache.hit", 1);
        }
        {
            let _stage = leo_obs::span!("stage.fig2");
        }
        let info = RunInfo {
            command: "fig2".into(),
            scale: "small".into(),
            seed: 7,
            threads: 2,
            argv: vec!["divide".into(), "fig2".into()],
            stages: vec!["dataset".into(), "fig2".into()],
        };
        let manifest = run_manifest(&info, 25.0);
        let line = leo_obs::ledger::project(&manifest, 1_700_000_000);
        let (from_manifest, from_line) = (record(&manifest), record(&line));
        assert_eq!(from_manifest, from_line);
        let names: Vec<&str> = from_manifest.iter().map(|r| r.0.as_str()).collect();
        for want in [
            "dataset wall",
            "fig2 wall",
            "total wall",
            "dataset par busy",
            "dataset par chunks",
            "cache.hit",
        ] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
    }

    #[test]
    fn median_of_even_and_odd_windows_skips_missing_runs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, f64::NAN, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[f64::NAN]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn throughput_regresses_on_a_drop_not_a_rise() {
        assert_eq!(status(Unit::Mbps, &[300.0, 210.0]), REGRESSED, "-30%");
        assert_eq!(status(Unit::Mbps, &[300.0, 250.0]), "ok", "-17%");
        assert_eq!(status(Unit::Mbps, &[300.0, 450.0]), "improved", "+50%");
        // The same pairs read the other way round for time.
        assert_eq!(status(Unit::Ms, &[300.0, 210.0]), "improved");
        assert_eq!(status(Unit::Ms, &[300.0, 450.0]), REGRESSED);
        // A rise from zero is unbounded: throughput improves, time
        // regresses.
        assert_eq!(status(Unit::Mbps, &[0.0, 50.0]), "improved");
        assert_eq!(status(Unit::Ms, &[0.0, 50.0]), REGRESSED);
    }

    #[test]
    fn floors_and_counts_never_gate() {
        assert_eq!(status(Unit::Ms, &[1.0, 4.0]), "below floor");
        assert_eq!(status(Unit::Ms, &[1.0, 6.0]), REGRESSED);
        assert_eq!(status(Unit::Bytes, &[1e5, 9e5]), "below floor");
        assert_eq!(status(Unit::Kb, &[1000.0, 4000.0]), "below floor");
        assert_eq!(status(Unit::Count, &[4.0, 4000.0]), "below floor");
        // A zero baseline gates only once the candidate clears the floor.
        assert_eq!(status(Unit::Ms, &[0.0, 4.0]), "below floor");
        assert_eq!(status(Unit::Ms, &[0.0, 0.0]), "below floor");
        assert_eq!(status(Unit::Ms, &[0.0, 6.0]), REGRESSED);
        assert_eq!(status(Unit::Count, &[0.0, 4000.0]), "below floor");
    }

    #[test]
    fn the_baseline_is_the_median_of_every_earlier_run() {
        // One outlier predecessor cannot move the baseline...
        assert_eq!(status(Unit::Ms, &[100.0, 900.0, 100.0, 110.0]), "ok");
        // ...and a two-value series is a plain pairwise diff.
        assert_eq!(status(Unit::Ms, &[100.0, 130.0]), REGRESSED);
        assert_eq!(status(Unit::Ms, &[f64::NAN, 130.0]), "new");
        assert_eq!(status(Unit::Ms, &[100.0, f64::NAN]), "removed");
    }
}

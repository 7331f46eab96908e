//! The four workloads. Two spawn the `divide` CLI on the fixed paper
//! configuration and check its artifacts against the committed
//! `results/`; two call the orbit and simulation layers in-process on
//! seeded inputs. The README explains why each was chosen.

use crate::inputs::{qoe_input, qoe_paper_input, survey_input, CellPicker, QoeInput, SurveyInput};
use crate::replay::{self, Command};
use crate::trace::{count, span};
use crate::{layers, sys};
use leo_cache::{KeyHasher, DATASET_KIND, FIG2_KIND};
use leo_demand::{BroadbandDataset, SynthConfig};
use leo_orbit::coverage::CoverageConfig;
use leo_orbit::gateway::{conus_gateways, Gateway};
use leo_orbit::isl::{IslTopology, PathMode};
use leo_orbit::WalkerShell;
use leo_report::{LineChart, Series};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["all-warm", "fig2-cold", "orbit-survey", "qoe-sweep"];

/// One measured iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds: the child's for CLI workloads, this process's
    /// otherwise.
    pub cpu_s: f64,
    /// Peak RSS, KiB: the child's, or this process's so far.
    pub maxrss_kb: f64,
    /// Files the CLI left in its output directory.
    pub files: f64,
    /// Bytes in those files.
    pub bytes: f64,
}

/// A workload the benchmark can set up, iterate and replay traced.
pub trait Workload {
    /// One pass of set-up; a later pass replaces the earlier one's state.
    fn setup(&mut self) -> Result<(), String>;
    /// Untraced iteration `i`, measured; `Err` when its output is wrong.
    fn iterate(&mut self, i: u64) -> Result<Sample, String>;
    /// In-process run of iteration `i`'s work, for the traced pass.
    /// Returns a digest of its outputs.
    fn replay(&mut self, i: u64) -> Result<u64, String>;
    /// Whether iterations spawn the CLI.
    fn is_cli(&self) -> bool;
}

/// What every workload is given.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `divide` binary.
    pub divide: PathBuf,
    /// `--threads` for the CLI and its in-process replay.
    pub threads: usize,
    /// `--seed`.
    pub seed: u64,
    /// Scratch directory, removed when the run ends.
    pub tmp: PathBuf,
    /// The committed artifacts.
    pub results: PathBuf,
}

/// Builds workload `name`.
pub fn make(name: &str, env: Env) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "all-warm" => Box::new(Cli::new(Command::All, env)?),
        "fig2-cold" => Box::new(Cli::new(Command::Fig2, env)?),
        "orbit-survey" => Box::new(OrbitSurvey {
            seed: env.seed,
            state: None,
            digests: BTreeMap::new(),
        }),
        "qoe-sweep" => Box::new(QoeSweep {
            seed: env.seed,
            reference: read(&env.results.join("qoe_oversub.csv"))?,
            digests: BTreeMap::new(),
        }),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Removes scratch directories; they may not exist.
fn clear(dirs: &[&Path]) {
    for d in dirs {
        let _ = fs::remove_dir_all(d);
    }
}

/// Checks iteration `i`'s digest against the one recorded for it, so
/// replays must reproduce the measured runs bit for bit.
fn check_digest(digests: &mut BTreeMap<u64, u64>, i: u64, d: u64) -> Result<u64, String> {
    match *digests.entry(i).or_insert(d) {
        want if want != d => Err(format!("iteration {i}: output differs from its first run")),
        _ => Ok(d),
    }
}

/// Runs `f` and measures it with this process's own CPU time.
fn timed_in_process(f: impl FnOnce() -> Result<u64, String>) -> Result<(Sample, u64), String> {
    let before = sys::self_cpu_s();
    let started = Instant::now();
    let digest = f()?;
    let wall_s = started.elapsed().as_secs_f64();
    let sample = Sample {
        wall_s,
        cpu_s: sys::self_cpu_s() - before,
        maxrss_kb: sys::self_peak_rss_kb().map_err(|e| e.to_string())?,
        ..Sample::default()
    };
    Ok((sample, digest))
}

/// `all-warm` and `fig2-cold`: the CLI in a child process.
struct Cli {
    command: Command,
    env: Env,
    /// `(file name, committed bytes)` of every artifact checked.
    reference: Vec<(String, Vec<u8>)>,
}

impl Cli {
    fn new(command: Command, env: Env) -> Result<Self, String> {
        let names: Vec<String> = match command {
            // Every committed CSV and SVG; paper_run.txt is console text.
            Command::All => {
                let dir = fs::read_dir(&env.results)
                    .map_err(|e| format!("cannot list {}: {e}", env.results.display()))?;
                let mut names: Vec<String> = dir
                    .filter_map(Result::ok)
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|n| n.ends_with(".csv") || n.ends_with(".svg"))
                    .collect();
                names.sort();
                names
            }
            Command::Fig2 => vec!["fig2_heatmap.svg".into(), "fig2_sweep.csv".into()],
        };
        if names.is_empty() {
            return Err(format!("no artifacts in {}", env.results.display()));
        }
        let reference = names
            .into_iter()
            .map(|n| read(&env.results.join(&n)).map(|bytes| (n, bytes)))
            .collect::<Result<_, _>>()?;
        Ok(Cli {
            command,
            env,
            reference,
        })
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.env.tmp.join(name)
    }

    /// The warm cache `all-warm` iterations share.
    fn warm_cache(&self) -> PathBuf {
        self.dir("warm-cache")
    }

    /// The cache and output directories of one run. `fig2-cold` gets
    /// an empty cache each time.
    fn dirs(&self, tag: &str) -> (PathBuf, PathBuf) {
        let cache = match self.command {
            Command::All => self.warm_cache(),
            Command::Fig2 => self.dir(&format!("{tag}-cache")),
        };
        (cache, self.dir(tag))
    }

    fn spawn(&self, cache: &Path, out: &Path) -> Result<Sample, String> {
        let stderr_path = self.dir("divide.stderr");
        let stderr = fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
        let command = match self.command {
            Command::All => "all",
            Command::Fig2 => "fig2",
        };
        let started = Instant::now();
        let child = std::process::Command::new(&self.env.divide)
            .args([
                "--scale",
                "paper",
                "--threads",
                &self.env.threads.to_string(),
            ])
            .arg("--cache")
            .arg(cache)
            .arg("--out")
            .arg(out)
            .arg(command)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", self.env.divide.display()))?;
        let (status, usage) = sys::wait_child(child).map_err(|e| e.to_string())?;
        let wall_s = started.elapsed().as_secs_f64();
        if !status.success() {
            let err = fs::read_to_string(&stderr_path).unwrap_or_default();
            return Err(format!(
                "divide {command} failed ({status}): {}",
                err.lines().last().unwrap_or("")
            ));
        }
        Ok(Sample {
            wall_s,
            cpu_s: usage.cpu_s,
            maxrss_kb: usage.maxrss_kb,
            ..Sample::default()
        })
    }

    /// Artifacts equal `results/`; a cold `fig2` also left both
    /// snapshots in its cache.
    fn check(&self, cache: &Path, out: &Path) -> Result<(), String> {
        for (name, want) in &self.reference {
            if read(&out.join(name))? != *want {
                return Err(format!("{name} differs from results/{name}"));
            }
        }
        if self.command == Command::Fig2 {
            let snaps: Vec<String> = fs::read_dir(cache)
                .map_err(|e| format!("cannot list {}: {e}", cache.display()))?
                .filter_map(Result::ok)
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            for kind in [DATASET_KIND, FIG2_KIND] {
                let prefix = format!("{kind}-");
                if !snaps
                    .iter()
                    .any(|s| s.starts_with(&prefix) && s.ends_with(".snap"))
                {
                    return Err(format!("no {kind} snapshot in the cache"));
                }
            }
        }
        Ok(())
    }

    /// Removes one run's directories; `all-warm` keeps its warm cache.
    fn clear_run(&self, cache: &Path, out: &Path) {
        match self.command {
            Command::All => clear(&[out]),
            Command::Fig2 => clear(&[cache, out]),
        }
    }

    /// Files and bytes in the output directory.
    fn output_size(out: &Path) -> (f64, f64) {
        let mut files = 0.0;
        let mut bytes = 0.0;
        for e in fs::read_dir(out).into_iter().flatten().flatten() {
            if let Ok(m) = e.metadata() {
                if m.is_file() {
                    files += 1.0;
                    bytes += m.len() as f64;
                }
            }
        }
        (files, bytes)
    }
}

impl Workload for Cli {
    fn setup(&mut self) -> Result<(), String> {
        // all-warm: fill the cache with one cold `all`. fig2-cold: one
        // cold `fig2`, so the first measured spawn finds the binary and
        // its inputs paged in like every later one.
        let (cache, out) = self.dirs("setup");
        clear(&[&cache, &out]);
        let result = self
            .spawn(&cache, &out)
            .and_then(|_| self.check(&cache, &out));
        self.clear_run(&cache, &out);
        result
    }

    fn iterate(&mut self, _i: u64) -> Result<Sample, String> {
        // A fresh --out each time, so no run_checkpoint.json is reused.
        let (cache, out) = self.dirs("iter");
        let result = self.spawn(&cache, &out).and_then(|mut s| {
            self.check(&cache, &out)?;
            (s.files, s.bytes) = Self::output_size(&out);
            Ok(s)
        });
        self.clear_run(&cache, &out);
        result
    }

    fn replay(&mut self, _i: u64) -> Result<u64, String> {
        let (cache, out) = self.dirs("replay");
        let result =
            replay::run(self.command, &cache, &out).and_then(|()| self.check(&cache, &out));
        self.clear_run(&cache, &out);
        // Both runs of a pair are checked against results/ above, so
        // they already agree byte for byte.
        result.map(|()| 0)
    }

    fn is_cli(&self) -> bool {
        true
    }
}

/// What `orbit-survey` builds in set-up.
struct SurveyState {
    picker: CellPicker,
    constellation: Vec<WalkerShell>,
    shell: WalkerShell,
    topo: IslTopology,
    gateways: Vec<Gateway>,
}

/// `orbit-survey`: coverage, density and gateway paths on seeded inputs.
struct OrbitSurvey {
    seed: u64,
    state: Option<SurveyState>,
    digests: BTreeMap<u64, u64>,
}

impl OrbitSurvey {
    fn run(st: &SurveyState, input: &SurveyInput) -> Result<u64, String> {
        let mut h = KeyHasher::new();
        let stats = layers::coverage(&st.constellation, &input.points, &CoverageConfig::default());
        for s in &stats {
            if !(0.0..=1.0).contains(&s.availability) {
                return Err(format!("availability {} outside [0, 1]", s.availability));
            }
            if f64::from(s.min_in_view) > s.mean_in_view {
                return Err(format!(
                    "min in view {} above the mean {}",
                    s.min_in_view, s.mean_in_view
                ));
            }
            h.write_u32(s.min_in_view);
            h.write_f64(s.mean_in_view);
            h.write_f64(s.availability);
        }
        let lat = input.density_lat;
        let empirical = layers::density(&st.shell, lat, 2.0, input.density_samples);
        let analytic = leo_orbit::density_factor(lat, st.shell.inclination_deg)
            .ok_or_else(|| format!("latitude {lat} is never overflown"))?;
        if (empirical - analytic).abs() > 0.05 * analytic {
            return Err(format!(
                "density at {lat:.2} deg: empirical {empirical} vs analytic {analytic}"
            ));
        }
        h.write_f64(empirical);
        for (user, &t_s) in input.users.iter().zip(&input.epochs) {
            for mode in [PathMode::BentPipe, PathMode::IslRelay] {
                match layers::path(&st.topo, &st.gateways, user, t_s, mode) {
                    Some(p) => {
                        h.write_f64(p.latency_ms);
                        h.write_u32(p.isl_hops);
                        h.write_u64(p.gateway as u64);
                    }
                    None => h.write_u64(u64::MAX),
                }
            }
        }
        Ok(h.finish())
    }

    fn state(&self) -> Result<&SurveyState, String> {
        self.state
            .as_ref()
            .ok_or_else(|| "set-up has not run".to_string())
    }
}

impl Workload for OrbitSurvey {
    fn setup(&mut self) -> Result<(), String> {
        let ds = BroadbandDataset::generate(&SynthConfig::paper());
        let cols = &ds.cols;
        let picker = CellPicker::new(
            cols.lat_deg
                .iter()
                .zip(&cols.lng_deg)
                .zip(&cols.locations)
                .map(|((&lat, &lng), &w)| (lat, lng, w)),
        );
        let shell = WalkerShell::starlink_gen1_shell1();
        self.state = Some(SurveyState {
            picker,
            constellation: WalkerShell::starlink_current_2025(),
            shell,
            topo: IslTopology::plus_grid(shell),
            gateways: conus_gateways(),
        });
        Ok(())
    }

    fn iterate(&mut self, i: u64) -> Result<Sample, String> {
        let st = self.state()?;
        let input = survey_input(self.seed, i, &st.picker);
        let (sample, d) = timed_in_process(|| Self::run(st, &input))?;
        check_digest(&mut self.digests, i, d)?;
        Ok(sample)
    }

    fn replay(&mut self, i: u64) -> Result<u64, String> {
        let st = self.state()?;
        let input = survey_input(self.seed, i, &st.picker);
        let d = Self::run(st, &input)?;
        check_digest(&mut self.digests, i, d)
    }

    fn is_cli(&self) -> bool {
        false
    }
}

/// `qoe-sweep`: the busy-hour simulation, rendered.
struct QoeSweep {
    seed: u64,
    /// `results/qoe_oversub.csv`.
    reference: Vec<u8>,
    digests: BTreeMap<u64, u64>,
}

impl QoeSweep {
    fn run(&self, input: &QoeInput) -> Result<u64, String> {
        let reports = layers::busy_hour(input.capacity_gbps, &input.oversubs, input.sim_seed);
        if reports.len() != input.oversubs.len() {
            return Err(format!(
                "{} reports for {} ratios",
                reports.len(),
                input.oversubs.len()
            ));
        }
        let (csv, svg) = span("report.render", || {
            let mut chart = LineChart::new(
                "Busy-hour flow throughput vs oversubscription",
                "oversubscription ratio",
                "throughput (Mbps)",
            );
            let by_ratio = |f: fn(&leo_simnet::QoeReport) -> f64| {
                reports
                    .iter()
                    .map(|r| (r.oversub, f(r)))
                    .collect::<Vec<_>>()
            };
            chart.push(Series::line("mean", by_ratio(|r| r.mean_mbps)));
            chart.push(Series::line("median", by_ratio(|r| r.median_mbps)));
            chart.push(Series::line("p10", by_ratio(|r| r.p10_mbps)));
            (replay::qoe_csv(&reports), chart.render(720.0, 440.0))
        });
        let csv = csv.finish();
        count("report.bytes", (csv.len() + svg.len()) as f64);
        if *input == qoe_paper_input() && csv.as_bytes() != self.reference.as_slice() {
            return Err("paper inputs do not reproduce results/qoe_oversub.csv".into());
        }
        let mut h = KeyHasher::new();
        h.write_str(csv);
        h.write_str(&svg);
        Ok(h.finish())
    }
}

impl Workload for QoeSweep {
    fn setup(&mut self) -> Result<(), String> {
        // One warm-up run on the paper's inputs, checked like iteration 0.
        self.run(&qoe_paper_input()).map(|_| ())
    }

    fn iterate(&mut self, i: u64) -> Result<Sample, String> {
        let input = qoe_input(self.seed, i);
        let (sample, d) = timed_in_process(|| self.run(&input))?;
        check_digest(&mut self.digests, i, d)?;
        Ok(sample)
    }

    fn replay(&mut self, i: u64) -> Result<u64, String> {
        let d = self.run(&qoe_input(self.seed, i))?;
        check_digest(&mut self.digests, i, d)
    }

    fn is_cli(&self) -> bool {
        false
    }
}

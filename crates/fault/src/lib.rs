//! Seeded, deterministic fault injection — and the hardening it forces.
//!
//! A [`FaultPlan`] names **sites** (choke points threaded through the
//! workspace: `io.write`, `io.rename`, `io.fsync`, `cache.decode`,
//! `ledger.append`, `pool.chunk`, `stage.<name>`) and, per site, a
//! **trigger** (`p=<prob>` or `nth=<call>`) plus a **mode** (`err`,
//! `panic`, `delay`). The decision for call `k` at a site is a pure
//! function of `(plan.seed, site, k)` via the same [`mix64`] stream
//! construction the pipeline uses for per-item RNG, so a given
//! (seed, plan) reproduces the exact same failure sequence at any
//! thread count — call indices are assigned sequentially per site (or
//! explicitly by the caller at sites reached from worker threads, see
//! [`should_fire_at`]).
//!
//! When no plan is active every injection site is a single relaxed
//! atomic load ([`active`] / the fast path of [`should_fire`]); the
//! bench suite records `fault_overhead_pct` to hold that promise.
//!
//! The crate also hosts the shared hardening this injection forces:
//!
//! * [`safe_io`] — atomic tmp+rename artifact writes with bounded
//!   retry-and-backoff, plus orphaned-temp sweeping;
//! * [`signal`] — a minimal async-signal-safe SIGINT/SIGTERM hook that
//!   unlinks registered temp paths and exits 130;
//! * a `fault.*` / `degraded.*` counter family and a degradation
//!   registry ([`degrade`]) so observability-side failures disable
//!   their subsystem instead of failing the run.
//!
//! `leo-fault` deliberately depends on nothing else in the workspace
//! (every other crate may depend on it), so it holds the workspace's
//! one copy of [`mix64`] and [`fnv1a64`] (`leo-parallel` and
//! `leo-cache` re-export them) and its own counter registry;
//! `leo-obs` merges [`counter_snapshot`] into the run manifest.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

pub mod safe_io;
pub mod signal;

/// Mixes a seed with a salt into an independent 64-bit stream seed
/// (SplitMix64 finalizer). This is how the dataset generator derives
/// one RNG stream per cell/cluster: the draw for element `k` depends
/// only on `(seed, k)`, never on how work was chunked across threads —
/// the keystone of the parallel-equals-serial guarantee. Fault plans
/// derive their per-site decision streams the same way.
#[must_use]
pub fn mix64(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 of a byte slice: fault-site stream salts here, snapshot
/// payload checksums in `leo-cache`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut state = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// The fixed (non-`stage.*`) injection sites a plan may name.
pub const SITES: &[&str] = &[
    "io.write",
    "io.rename",
    "io.fsync",
    "cache.decode",
    "ledger.append",
    "pool.chunk",
];

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Surface a typed `io::Error` (the site's error path must handle it).
    Err,
    /// Panic with a deterministic message (exercises unwind safety).
    Panic,
    /// Sleep `delay_ms`, then continue (exercises watchdogs/timeouts).
    Delay,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Err => "err",
            FaultKind::Panic => "panic",
            FaultKind::Delay => "delay",
        })
    }
}

/// When a site rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on call `k` iff the site's stream draw for `k` is below `p`.
    Prob(f64),
    /// Fire on exactly the `n`-th call (1-based).
    Nth(u64),
}

/// One `site:trigger,mode,delay_ms` entry of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRule {
    /// Site name (one of [`SITES`] or `stage.<name>`).
    pub site: String,
    /// When the rule fires.
    pub trigger: Trigger,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// Sleep duration for `mode=delay` (ms).
    pub delay_ms: u64,
}

impl SiteRule {
    /// Pure decision: does this rule fire on call `call` (0-based)
    /// under `seed`? Same inputs, same answer, on any thread.
    #[must_use]
    pub fn fires(&self, seed: u64, call: u64) -> bool {
        match self.trigger {
            Trigger::Nth(n) => call + 1 == n,
            Trigger::Prob(p) => {
                let stream = mix64(seed, fnv1a64(self.site.as_bytes()));
                // 53 uniform mantissa bits -> [0, 1).
                let draw = (mix64(stream, call) >> 11) as f64 / (1u64 << 53) as f64;
                draw < p
            }
        }
    }
}

/// A parsed fault plan: a seed plus one rule per site.
///
/// Grammar (segments joined by `;`, options by `,`):
///
/// ```text
/// seed=<u64>;<site>:p=<f64>|nth=<u64>[,mode=err|panic|delay][,delay_ms=<u64>]
/// ```
///
/// `Display` renders the canonical full form, and
/// `FaultPlan::parse(&plan.to_string())` round-trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Stream seed; distinct seeds give independent firing sequences.
    pub seed: u64,
    /// Site rules in specification order (at most one per site).
    pub rules: Vec<SiteRule>,
}

/// A plan specification that failed to parse (usage error, exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PlanError {}

fn validate_site(site: &str) -> Result<(), PlanError> {
    if SITES.contains(&site) {
        return Ok(());
    }
    if let Some(stage) = site.strip_prefix("stage.") {
        let well_formed = !stage.is_empty()
            && stage
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
        if well_formed {
            return Ok(());
        }
    }
    Err(PlanError(format!(
        "unknown site {site:?} (expected one of {SITES:?} or stage.<name>)"
    )))
}

impl FaultPlan {
    /// Parses a plan specification; see the type docs for the grammar.
    pub fn parse(spec: &str) -> Result<FaultPlan, PlanError> {
        let mut seed = 0u64;
        let mut seen_seed = false;
        let mut rules: Vec<SiteRule> = Vec::new();
        for seg in spec.split(';') {
            let seg = seg.trim();
            if seg.is_empty() {
                continue;
            }
            if let Some(v) = seg.strip_prefix("seed=") {
                if seen_seed {
                    return Err(PlanError("duplicate seed= segment".into()));
                }
                seed = v
                    .trim()
                    .parse()
                    .map_err(|_| PlanError(format!("invalid seed {:?}", v.trim())))?;
                seen_seed = true;
                continue;
            }
            let (site, opts) = seg.split_once(':').ok_or_else(|| {
                PlanError(format!(
                    "rule {seg:?} must be <site>:<options> or seed=<u64>"
                ))
            })?;
            let site = site.trim();
            validate_site(site)?;
            if rules.iter().any(|r| r.site == site) {
                return Err(PlanError(format!("duplicate rule for site {site}")));
            }
            let mut trigger: Option<Trigger> = None;
            let mut kind = FaultKind::Err;
            let mut delay_ms = 10u64;
            for opt in opts.split(',') {
                let opt = opt.trim();
                if opt.is_empty() {
                    continue;
                }
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| PlanError(format!("option {opt:?} must be key=value")))?;
                match (key.trim(), value.trim()) {
                    ("p", v) => {
                        if trigger.is_some() {
                            return Err(PlanError(format!("{site}: p=/nth= given twice")));
                        }
                        let p: f64 = v
                            .parse()
                            .map_err(|_| PlanError(format!("{site}: invalid probability {v:?}")))?;
                        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                            return Err(PlanError(format!(
                                "{site}: probability {p} outside [0, 1]"
                            )));
                        }
                        trigger = Some(Trigger::Prob(p));
                    }
                    ("nth", v) => {
                        if trigger.is_some() {
                            return Err(PlanError(format!("{site}: p=/nth= given twice")));
                        }
                        let n: u64 = v
                            .parse()
                            .map_err(|_| PlanError(format!("{site}: invalid call count {v:?}")))?;
                        if n == 0 {
                            return Err(PlanError(format!("{site}: nth= is 1-based, got 0")));
                        }
                        trigger = Some(Trigger::Nth(n));
                    }
                    ("mode", "err") => kind = FaultKind::Err,
                    ("mode", "panic") => kind = FaultKind::Panic,
                    ("mode", "delay") => kind = FaultKind::Delay,
                    ("mode", v) => {
                        return Err(PlanError(format!(
                            "{site}: unknown mode {v:?} (expected err|panic|delay)"
                        )));
                    }
                    ("delay_ms", v) => {
                        delay_ms = v
                            .parse()
                            .map_err(|_| PlanError(format!("{site}: invalid delay_ms {v:?}")))?;
                    }
                    (k, _) => {
                        return Err(PlanError(format!(
                            "{site}: unknown option {k:?} (expected p|nth|mode|delay_ms)"
                        )));
                    }
                }
            }
            let trigger =
                trigger.ok_or_else(|| PlanError(format!("rule for {site} needs p= or nth=")))?;
            rules.push(SiteRule {
                site: site.to_string(),
                trigger,
                kind,
                delay_ms,
            });
        }
        if rules.is_empty() {
            return Err(PlanError("plan names no site rules".into()));
        }
        Ok(FaultPlan { seed, rules })
    }

    /// Pure decision for an explicit call index at `site` (0-based).
    /// Returns the fault without counting or registry side effects.
    #[must_use]
    pub fn decide(&self, site: &str, call: u64) -> Option<Fault> {
        let rule = self.rules.iter().find(|r| r.site == site)?;
        if !rule.fires(self.seed, call) {
            return None;
        }
        Some(Fault {
            site: site.to_string(),
            kind: rule.kind,
            call,
            delay_ms: rule.delay_ms,
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for r in &self.rules {
            write!(f, ";{}:", r.site)?;
            match r.trigger {
                Trigger::Prob(p) => write!(f, "p={p}")?,
                Trigger::Nth(n) => write!(f, "nth={n}")?,
            }
            write!(f, ",mode={},delay_ms={}", r.kind, r.delay_ms)?;
        }
        Ok(())
    }
}

/// A fired injection, ready to apply at its site.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// The site that fired.
    pub site: String,
    /// What to do.
    pub kind: FaultKind,
    /// 0-based call index that fired (stable across thread counts).
    pub call: u64,
    /// Sleep duration for [`FaultKind::Delay`] (ms).
    pub delay_ms: u64,
}

impl Fault {
    /// The deterministic message used by errors and panics.
    #[must_use]
    pub fn message(&self) -> String {
        format!("injected fault at {} (call {})", self.site, self.call)
    }

    /// The typed `io::Error` for [`FaultKind::Err`].
    #[must_use]
    pub fn io_error(&self) -> io::Error {
        io::Error::other(self.message())
    }

    /// Applies the fault at an IO site: `Err` returns the typed error
    /// for the caller's error path, `Delay` sleeps and continues,
    /// `Panic` panics with the deterministic message.
    pub fn apply_io(self) -> Option<io::Error> {
        match self.kind {
            FaultKind::Err => Some(self.io_error()),
            FaultKind::Delay => {
                std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
                None
            }
            FaultKind::Panic => panic!("{}", self.message()),
        }
    }

    /// Applies the fault inside a pool chunk: `Delay` sleeps (feeding
    /// the watchdog), `Err` and `Panic` both panic — a chunk has no
    /// error channel, and the pool's unwind path is the contract.
    pub fn apply_chunk(self) {
        match self.kind {
            FaultKind::Delay => {
                std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
            }
            FaultKind::Err | FaultKind::Panic => panic!("{}", self.message()),
        }
    }
}

struct Engine {
    plan: FaultPlan,
    /// Per-rule sequential call counters for [`should_fire`].
    calls: Vec<AtomicU64>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ENGINE: Mutex<Option<Engine>> = Mutex::new(None);
static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static DEGRADED: Mutex<BTreeMap<String, String>> = Mutex::new(BTreeMap::new());

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking holder leaves the registry consistent (plain maps);
    // shrug off the poison rather than cascade.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs (or clears) the process-wide fault plan.
pub fn set_plan(plan: Option<FaultPlan>) {
    let mut engine = lock(&ENGINE);
    ACTIVE.store(plan.is_some(), Ordering::Release);
    *engine = plan.map(|p| Engine {
        calls: p.rules.iter().map(|_| AtomicU64::new(0)).collect(),
        plan: p,
    });
}

/// True iff a fault plan is installed. One relaxed load — this is the
/// entire cost of an injection site when no plan is active.
#[inline]
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Checks `site` against the active plan using the site's sequential
/// call counter. Call only from deterministic (single-threaded) call
/// sites; worker-thread sites must use [`should_fire_at`] with a
/// caller-assigned index.
#[inline]
pub fn should_fire(site: &str) -> Option<Fault> {
    if !active() {
        return None;
    }
    fire_slow(site, None)
}

/// Checks `site` against the active plan at an explicit 0-based call
/// index assigned deterministically by the caller (e.g. the pool's
/// dispatch-order chunk sequence).
#[inline]
pub fn should_fire_at(site: &str, call: u64) -> Option<Fault> {
    if !active() {
        return None;
    }
    fire_slow(site, Some(call))
}

#[cold]
fn fire_slow(site: &str, call: Option<u64>) -> Option<Fault> {
    let fault = {
        let engine = lock(&ENGINE);
        let engine = engine.as_ref()?;
        let idx = engine.plan.rules.iter().position(|r| r.site == site)?;
        let call = match call {
            Some(c) => c,
            None => engine.calls[idx].fetch_add(1, Ordering::Relaxed),
        };
        engine.plan.decide(site, call)?
    };
    counter_add("fault.injected", 1);
    counter_add(&format!("fault.injected.{site}"), 1);
    Some(fault)
}

/// Adds to a `fault.*`/`degraded.*` counter (created on first use).
pub fn counter_add(name: &str, delta: u64) {
    let mut counters = lock(&COUNTERS);
    *counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Reads a counter (0 if never touched).
#[must_use]
pub fn counter_value(name: &str) -> u64 {
    lock(&COUNTERS).get(name).copied().unwrap_or(0)
}

/// All counters, sorted by name — merged into the run manifest by
/// `leo-obs`.
#[must_use]
pub fn counter_snapshot() -> Vec<(String, u64)> {
    lock(&COUNTERS)
        .iter()
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// Records that an observability subsystem shut itself off instead of
/// failing the run. Keeps the first reason per subsystem and counts
/// under `degraded.<subsystem>`.
pub fn degrade(subsystem: &str, reason: &str) {
    counter_add(&format!("degraded.{subsystem}"), 1);
    lock(&DEGRADED)
        .entry(subsystem.to_string())
        .or_insert_with(|| reason.to_string());
}

/// All degraded subsystems with their first failure reason, sorted.
#[must_use]
pub fn degraded_snapshot() -> Vec<(String, String)> {
    lock(&DEGRADED)
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Clears the plan, counters, and degradation registry (test harness
/// and process start).
pub fn reset() {
    set_plan(None);
    lock(&COUNTERS).clear();
    lock(&DEGRADED).clear();
}

/// Serializes tests that touch the process-global registries.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LOCK;

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("test plan parses")
    }

    #[test]
    fn parse_full_grammar_and_defaults() {
        let p = plan("seed=42;io.write:p=0.25;pool.chunk:nth=3,mode=panic;stage.fig3:nth=1,mode=delay,delay_ms=250");
        assert_eq!(p.seed, 42);
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rules[0].site, "io.write");
        assert_eq!(p.rules[0].trigger, Trigger::Prob(0.25));
        assert_eq!(p.rules[0].kind, FaultKind::Err, "mode defaults to err");
        assert_eq!(p.rules[0].delay_ms, 10, "delay_ms defaults to 10");
        assert_eq!(p.rules[1].kind, FaultKind::Panic);
        assert_eq!(p.rules[2].site, "stage.fig3");
        assert_eq!(p.rules[2].kind, FaultKind::Delay);
        assert_eq!(p.rules[2].delay_ms, 250);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "seed=1",
            "seed=x;io.write:p=0.5",
            "io.write",
            "io.write:p=2.0",
            "io.write:p=nan",
            "io.write:nth=0",
            "io.write:p=0.5,nth=2",
            "io.write:mode=explode,p=0.5",
            "io.write:p=0.5,frequency=7",
            "disk.write:p=0.5",
            "stage.:nth=1",
            "stage.fig 3:nth=1",
            "seed=1;io.write:p=0.5;io.write:nth=2",
            "seed=1;seed=2;io.write:p=0.5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        let p = plan("io.rename : nth=2 , mode=panic ; seed=7; stage.qoe:p=0.125");
        let rendered = p.to_string();
        assert_eq!(
            rendered,
            "seed=7;io.rename:nth=2,mode=panic,delay_ms=10;stage.qoe:p=0.125,mode=err,delay_ms=10"
        );
        assert_eq!(plan(&rendered), p);
    }

    #[test]
    fn decide_is_pure_and_seed_sensitive() {
        let p = plan("seed=1;io.write:p=0.3");
        let seq: Vec<bool> = (0..256)
            .map(|k| p.decide("io.write", k).is_some())
            .collect();
        let again: Vec<bool> = (0..256)
            .map(|k| p.decide("io.write", k).is_some())
            .collect();
        assert_eq!(seq, again, "same (seed, site, call) -> same decision");
        assert!(seq.iter().any(|&f| f), "p=0.3 fires somewhere in 256 calls");
        assert!(
            !seq.iter().all(|&f| f),
            "p=0.3 skips somewhere in 256 calls"
        );
        let other = plan("seed=2;io.write:p=0.3");
        let other_seq: Vec<bool> = (0..256)
            .map(|k| other.decide("io.write", k).is_some())
            .collect();
        assert_ne!(seq, other_seq, "different seed, different sequence");
    }

    #[test]
    fn nth_fires_exactly_once() {
        let p = plan("seed=9;ledger.append:nth=3");
        let fired: Vec<u64> = (0..16)
            .filter(|&k| p.decide("ledger.append", k).is_some())
            .collect();
        assert_eq!(fired, vec![2], "nth=3 is the 0-based call index 2");
    }

    #[test]
    fn probability_extremes() {
        let always = plan("seed=5;io.fsync:p=1");
        assert!((0..64).all(|k| always.decide("io.fsync", k).is_some()));
        let never = plan("seed=5;io.fsync:p=0");
        assert!((0..64).all(|k| never.decide("io.fsync", k).is_none()));
    }

    #[test]
    fn engine_counts_calls_and_fires_deterministically() {
        let _guard = lock(&TEST_LOCK);
        reset();
        set_plan(Some(plan("seed=3;cache.decode:nth=2")));
        assert!(active());
        assert!(should_fire("cache.decode").is_none(), "first call passes");
        let fault = should_fire("cache.decode").expect("second call fires");
        assert_eq!(fault.call, 1);
        assert_eq!(fault.kind, FaultKind::Err);
        assert!(should_fire("cache.decode").is_none(), "third call passes");
        assert!(should_fire("io.write").is_none(), "no rule, no fault");
        assert_eq!(counter_value("fault.injected"), 1);
        assert_eq!(counter_value("fault.injected.cache.decode"), 1);
        reset();
        assert!(!active());
        assert!(should_fire("cache.decode").is_none());
    }

    #[test]
    fn explicit_call_indices_bypass_the_counter() {
        let _guard = lock(&TEST_LOCK);
        reset();
        set_plan(Some(plan("seed=3;pool.chunk:nth=5")));
        assert!(should_fire_at("pool.chunk", 0).is_none());
        assert!(should_fire_at("pool.chunk", 4).is_some());
        assert!(
            should_fire_at("pool.chunk", 4).is_some(),
            "explicit index is stateless"
        );
        reset();
    }

    #[test]
    fn degradation_registry_keeps_first_reason() {
        let _guard = lock(&TEST_LOCK);
        reset();
        assert!(degraded_snapshot().is_empty());
        degrade("ledger", "disk full");
        degrade("ledger", "later noise");
        assert_eq!(
            degraded_snapshot(),
            vec![("ledger".to_string(), "disk full".to_string())]
        );
        assert_eq!(counter_value("degraded.ledger"), 2);
        reset();
    }

    #[test]
    fn fault_error_message_is_deterministic() {
        let p = plan("seed=1;io.write:nth=1,mode=err");
        let fault = p.decide("io.write", 0).expect("fires");
        let err = fault.io_error();
        assert_eq!(err.to_string(), "injected fault at io.write (call 0)");
    }
}

//! A host-speed probe: one fixed task, timed after every iteration.
//!
//! The machines this benchmark runs on are shared. For minutes at a
//! time, other tenants slow every program on them, single-threaded pure
//! computation included, by up to 40%. No statistic over one run
//! removes that, because the whole run is slow. The slowdown is largely
//! a common factor, though. Over 25 s windows of a shared 2-vCPU host,
//! the 10th-percentile times of a busy-hour simulation and of a
//! coverage sweep varied by 10% end to end. Their ratios to this
//! probe's 10th-percentile time varied by under 2%. So the end-to-end
//! times are reported at the probe's reference speed: measured time ×
//! [`REFERENCE_S`] / probe floor. The probe is the benchmark's own
//! code, so no change to the program can speed it up or slow it down.

use crate::inputs::Rng;
use crate::stats::quantile;
use std::hint::black_box;
use std::time::Instant;

/// The probe's floor time on a quiet reference host (2-vCPU Intel Xeon
/// VM at 2.1 GHz, release build). Scaled times are in seconds of that
/// host; the constant only sets the scale, and both sides of any
/// comparison share it.
pub const REFERENCE_S: f64 = 0.002;

/// Elements sorted per probe run: about 2 ms on the reference host.
const ELEMENTS: usize = 120_000;

/// The probe and the times it has taken.
pub struct Probe {
    template: Vec<u64>,
    scratch: Vec<u64>,
    times_s: Vec<f64>,
}

impl Probe {
    /// A probe over a fixed pseudo-random array; every run sorts the
    /// same input.
    pub fn new() -> Self {
        let mut rng = Rng::for_iteration(0x5EED, 0);
        Probe {
            template: (0..ELEMENTS).map(|_| rng.next_u64()).collect(),
            scratch: Vec::with_capacity(ELEMENTS),
            times_s: Vec::new(),
        }
    }

    /// Times one run of the probe.
    pub fn run(&mut self) {
        let started = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.template);
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        self.times_s.push(started.elapsed().as_secs_f64());
    }

    /// The scale factor for this moment rather than for the whole run:
    /// [`REFERENCE_S`] over the fastest of three runs made now.
    pub fn scale_now(&mut self) -> f64 {
        let start = self.times_s.len();
        for _ in 0..3 {
            self.run();
        }
        let fastest = self.times_s[start..]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        REFERENCE_S / fastest
    }

    /// Every time taken so far, seconds.
    pub fn times_s(&self) -> &[f64] {
        &self.times_s
    }

    /// The factor that turns a time measured now into reference-host
    /// time: [`REFERENCE_S`] over the probe's 10th-percentile time.
    pub fn scale(&self) -> f64 {
        quantile(&self.times_s, 0.1).map_or(1.0, |floor| REFERENCE_S / floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_floor_time() {
        let mut p = Probe::new();
        assert_eq!(p.scale(), 1.0);
        p.run();
        assert_eq!(p.times_s().len(), 1);
        assert!(p.scratch.windows(2).all(|w| w[0] <= w[1]));
        let now = p.scale_now();
        assert_eq!(p.times_s().len(), 4);
        assert!(p.times_s()[1..].iter().all(|&t| REFERENCE_S / t <= now));
        p.times_s = vec![0.004, 0.008, 0.005];
        assert_eq!(p.scale(), REFERENCE_S / 0.004);
    }
}

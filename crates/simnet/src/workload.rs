//! Flow-size distribution.
//!
//! Internet flow sizes are famously heavy-tailed ("mice and
//! elephants"). The simulator draws them from one **lognormal**
//! (25 MB mean, σ = 1.5), which matches the body of measured
//! residential traffic well and has all moments finite. It is
//! parameterized to a target mean so the offered-load arithmetic
//! (`λ = offered_bps / E[S]`) holds.

use rand::rngs::StdRng;
use rand::Rng;

/// Mean flow size of the residential lognormal, megabytes.
const FLOW_MEAN_MB: f64 = 25.0;
/// Shape of the residential lognormal: standard deviation of `ln(size)`.
const FLOW_SIGMA: f64 = 1.5;

const MB_TO_BITS: f64 = 8e6;

/// Expected flow size, bits.
pub fn mean_bits() -> f64 {
    FLOW_MEAN_MB * MB_TO_BITS
}

/// Samples one flow size, bits.
pub fn sample(rng: &mut StdRng) -> f64 {
    let sigma = FLOW_SIGMA;
    let mu = mean_bits().ln() - sigma * sigma / 2.0;
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_mean(n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn lognormal_mean_matches_parameter() {
        let got = sample_mean(200_000, 1);
        let expect = mean_bits();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got} expect {expect}"
        );
    }
}

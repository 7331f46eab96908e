//! Statistical utilities: quantile curves, empirical quantiles, CDFs.
//!
//! The calibration machinery expresses target distributions as
//! piecewise log-linear **quantile functions** (inverse CDFs) anchored
//! at the quantiles the paper publishes; sampling through the curve
//! reproduces those quantiles by construction.

/// A piecewise log-linear quantile function `Q : [0, 1] → values`,
/// defined by anchor points `(u, value)` with strictly increasing `u`
/// and positive non-decreasing values. Interpolation is linear in
/// `log(value)`, which models the heavy-tailed distributions involved
/// (cell occupancy, household income) far better than linear
/// interpolation.
#[derive(Debug, Clone)]
pub struct QuantileCurve {
    anchors: Vec<(f64, f64)>,
}

impl QuantileCurve {
    /// Builds a curve from anchors; panics on malformed input (the
    /// anchors are compile-time calibration constants, so a panic is a
    /// programming error, not a data error).
    pub fn new(anchors: Vec<(f64, f64)>) -> Self {
        assert!(anchors.len() >= 2, "need at least two anchors");
        assert!(anchors[0].0 == 0.0, "first anchor must be at u=0");
        assert!(
            anchors[anchors.len() - 1].0 == 1.0,
            "last anchor must be at u=1"
        );
        for w in anchors.windows(2) {
            assert!(w[0].0 < w[1].0, "anchor u must strictly increase");
            assert!(w[0].1 > 0.0, "values must be positive");
            assert!(w[0].1 <= w[1].1, "values must be non-decreasing");
        }
        QuantileCurve { anchors }
    }

    /// The `(u, value)` anchor points the curve interpolates. Exposed
    /// so cache keys can hash the complete calibration structurally.
    pub fn anchors(&self) -> &[(f64, f64)] {
        &self.anchors
    }

    /// Evaluates `Q(u)`; `u` is clamped to `[0, 1]`.
    pub fn value(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let idx = self
            .anchors
            .windows(2)
            .position(|w| u <= w[1].0)
            .unwrap_or(self.anchors.len() - 2);
        let (u0, v0) = self.anchors[idx];
        let (u1, v1) = self.anchors[idx + 1];
        let t = if u1 > u0 { (u - u0) / (u1 - u0) } else { 0.0 };
        (v0.ln() + t * (v1.ln() - v0.ln())).exp()
    }

    /// Stratified inverse-CDF sampling: `Q((i + 0.5) / n)` for every
    /// `i in 0..n`, in one forward walk (`monotone_values`).
    /// Bit-identical to calling [`QuantileCurve::value`] per point.
    pub fn stratified_values(&self, n: usize) -> Vec<f64> {
        self.monotone_values((0..n).map(|i| (i as f64 + 0.5) / n as f64))
            .collect()
    }

    /// `Q(u)` for each of a non-decreasing sequence of points in
    /// `[0, 1]`. Because the points are monotone, the anchor segment
    /// advances with a two-pointer instead of the per-point `windows`
    /// search [`QuantileCurve::value`] does, and the segment's logs are
    /// hoisted — the inner loop is a branch-light multiply-add plus
    /// `exp`. The segment is the first one whose upper anchor is at or
    /// above `u`, and the value the same expression in the same operand
    /// order, so each result equals `value(u)` bit for bit.
    fn monotone_values<'a>(
        &'a self,
        us: impl Iterator<Item = f64> + 'a,
    ) -> impl Iterator<Item = f64> + 'a {
        let last_idx = self.anchors.len() - 2;
        // Segment `i`: its bounds, the log at its lower anchor and the
        // log rise across it.
        let segment = |i: usize| {
            let (u0, v0) = self.anchors[i];
            let (u1, v1) = self.anchors[i + 1];
            let ln_v0 = v0.ln();
            (u0, u1, ln_v0, v1.ln() - ln_v0)
        };
        let mut idx = 0usize;
        let (mut u0, mut u1, mut ln_v0, mut dln) = segment(0);
        us.map(move |u| {
            while idx < last_idx && u > u1 {
                idx += 1;
                (u0, u1, ln_v0, dln) = segment(idx);
            }
            let t = if u1 > u0 { (u - u0) / (u1 - u0) } else { 0.0 };
            (ln_v0 + t * dln).exp()
        })
    }

    /// Inverse evaluation: the `u` at which the curve reaches `value`
    /// (i.e. the CDF of the calibrated distribution). Values outside
    /// the curve's range clamp to 0 or 1.
    pub fn cdf(&self, value: f64) -> f64 {
        if value <= self.anchors[0].1 {
            return 0.0;
        }
        let last = self.anchors[self.anchors.len() - 1];
        if value >= last.1 {
            return 1.0;
        }
        let idx = self
            .anchors
            .windows(2)
            .position(|w| value <= w[1].1)
            .unwrap_or(self.anchors.len() - 2);
        let (u0, v0) = self.anchors[idx];
        let (u1, v1) = self.anchors[idx + 1];
        if v1 <= v0 {
            return u1;
        }
        let t = (value.ln() - v0.ln()) / (v1.ln() - v0.ln());
        u0 + t * (u1 - u0)
    }

    /// Mean of the calibrated distribution: `∫₀¹ Q(u) du`, exactly.
    /// On a segment from `(u0, v0)` to `(u1, v1)` the curve is
    /// `v0·(v1/v0)^t` with `t = (u − u0)/(u1 − u0)`, which integrates to
    /// `(u1 − u0)(v1 − v0)/(ln v1 − ln v0)`, or to `(u1 − u0)·v0` where
    /// the segment is flat. The segments are summed left to right.
    pub fn mean(&self) -> f64 {
        self.anchors
            .windows(2)
            .map(|w| {
                let ((u0, v0), (u1, v1)) = (w[0], w[1]);
                if v1 > v0 {
                    (u1 - u0) * (v1 - v0) / (v1.ln() - v0.ln())
                } else {
                    (u1 - u0) * v0
                }
            })
            .sum()
    }
}

/// The `q`-th quantile (`0 ≤ q ≤ 1`) of a **sorted ascending** slice,
/// using the nearest-rank method the paper's percentile statements
/// imply. Empty input returns 0.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Empirical CDF evaluation: fraction of sorted ascending values `≤ x`.
pub fn cdf_sorted(sorted: &[u64], x: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.partition_point(|&v| v <= x);
    n as f64 / sorted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> QuantileCurve {
        QuantileCurve::new(vec![
            (0.0, 1.0),
            (0.36, 61.0),
            (0.90, 552.0),
            (0.99, 1437.0),
            (1.0, 3400.0),
        ])
    }

    #[test]
    fn anchors_are_reproduced() {
        let c = curve();
        assert!((c.value(0.0) - 1.0).abs() < 1e-9);
        assert!((c.value(0.36) - 61.0).abs() < 1e-9);
        assert!((c.value(0.90) - 552.0).abs() < 1e-9);
        assert!((c.value(0.99) - 1437.0).abs() < 1e-9);
        assert!((c.value(1.0) - 3400.0).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone() {
        let c = curve();
        let mut prev = 0.0;
        for k in 0..=1000 {
            let v = c.value(k as f64 / 1000.0);
            assert!(v >= prev, "u={} v={v} prev={prev}", k as f64 / 1000.0);
            prev = v;
        }
    }

    #[test]
    fn cdf_inverts_value() {
        let c = curve();
        for u in [0.05, 0.2, 0.36, 0.5, 0.77, 0.95, 0.995] {
            let v = c.value(u);
            assert!((c.cdf(v) - u).abs() < 1e-9, "u={u}");
        }
        assert_eq!(c.cdf(0.5), 0.0);
        assert_eq!(c.cdf(5000.0), 1.0);
    }

    #[test]
    fn stratified_values_match_per_point_evaluation_bit_for_bit() {
        let c = curve();
        for n in [0usize, 1, 2, 7, 100, 20_000] {
            let bulk = c.stratified_values(n);
            assert_eq!(bulk.len(), n);
            for (i, &v) in bulk.iter().enumerate() {
                let u = (i as f64 + 0.5) / n as f64;
                assert_eq!(v.to_bits(), c.value(u).to_bits(), "n={n} i={i}");
            }
        }
    }

    /// `∫₀¹ Q(u) du` by the midpoint rule with `steps` panels, summed
    /// left to right.
    fn midpoint_mean(c: &QuantileCurve, steps: u32) -> f64 {
        let h = 1.0 / steps as f64;
        (0..steps).map(|k| c.value((k as f64 + 0.5) * h) * h).sum()
    }

    #[test]
    fn mean_is_the_integral_of_the_curve() {
        let curves = [
            crate::counts::CountCalibration::paper().curve,
            crate::income::income_curve(),
            curve(),
            // A flat segment integrates to its width times its value.
            QuantileCurve::new(vec![(0.0, 2.0), (0.5, 2.0), (1.0, 8.0)]),
        ];
        for (i, c) in curves.iter().enumerate() {
            let exact = c.mean();
            let rel = |steps| (midpoint_mean(c, steps) - exact).abs() / exact;
            assert!(rel(200_000) < 1e-8, "curve {i}: {}", rel(200_000));
            assert!(rel(1_000) < 1e-3, "curve {i}: {}", rel(1_000));
        }
        let flat = QuantileCurve::new(vec![(0.0, 3.0), (1.0, 3.0)]);
        assert_eq!(flat.mean(), 3.0);
        // Sanity: the mean of this demand curve sits in the low hundreds.
        assert!((150.0..350.0).contains(&curve().mean()));
    }

    #[test]
    fn quantile_sorted_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.90), 90);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn cdf_sorted_counts_correctly() {
        let v = [1u64, 2, 2, 3, 10];
        assert_eq!(cdf_sorted(&v, 0), 0.0);
        assert_eq!(cdf_sorted(&v, 2), 0.6);
        assert_eq!(cdf_sorted(&v, 9), 0.8);
        assert_eq!(cdf_sorted(&v, 10), 1.0);
    }
}

//! Quantiles of measured samples.

/// The `q`-quantile of `samples` (any order) by the lower rank rule:
/// the sorted sample at 0-based index `floor(q · n)`, clamped to the
/// last one. With `n ≥ 100`, the 10th percentile has at least ten
/// samples below it, so a few fast outliers cannot set it. `None` when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((q * sorted.len() as f64).floor() as usize).min(sorted.len() - 1);
    Some(sorted[idx])
}

/// The median by the same rank rule as [`quantile`].
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_rule_leaves_ten_samples_below_p10_of_a_hundred() {
        // 1..=100 in reverse order: the sort must not depend on input order.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), Some(11.0));
        assert_eq!(quantile(&v, 0.5), Some(51.0));
        assert_eq!(quantile(&v, 0.9), Some(91.0));
        let below = v.iter().filter(|&&x| x < 11.0).count();
        assert_eq!(below, 10);
    }

    #[test]
    fn small_and_empty_inputs() {
        assert_eq!(quantile(&[], 0.1), None);
        assert_eq!(quantile(&[3.0], 0.9), Some(3.0));
        // Three samples: floor(0.1·3)=0, floor(0.5·3)=1, floor(0.9·3)=2.
        let v = [0.3, 0.1, 0.2];
        assert_eq!(quantile(&v, 0.1), Some(0.1));
        assert_eq!(median(&v), Some(0.2));
        assert_eq!(quantile(&v, 0.9), Some(0.3));
        assert_eq!(quantile(&v, 1.0), Some(0.3));
    }
}

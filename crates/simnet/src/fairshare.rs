//! Max-min fair rate allocation with per-flow caps (water-filling).
//!
//! A beam's downlink capacity is shared among active flows the way a
//! well-behaved scheduler (or TCP in aggregate) shares a bottleneck:
//! every flow gets an equal share unless its own cap (the subscriber's
//! plan rate) is lower, in which case the surplus is redistributed —
//! the classic max-min fairness definition.

/// Computes the max-min fair allocation of `capacity` among flows with
/// the given rate `caps`. Returns per-flow rates in input order.
///
/// Properties (tested below and by the property suite):
/// * `rates[i] ≤ caps[i]`
/// * `Σ rates = min(capacity, Σ caps)`
/// * any flow not at its cap receives the common share, which is the
///   maximum over feasible allocations (max-min optimality).
pub fn max_min_fair(capacity: f64, caps: &[f64]) -> Vec<f64> {
    assert!(capacity >= 0.0, "negative capacity");
    let n = caps.len();
    if n == 0 {
        return Vec::new();
    }
    for &c in caps {
        assert!(
            c >= 0.0 && c.is_finite(),
            "caps must be finite and non-negative"
        );
    }
    // Water-filling over the sorted caps: once the per-flow share
    // exceeds a flow's cap, that flow is frozen at its cap.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        caps[a]
            .partial_cmp(&caps[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut rates = vec![0.0; n];
    let mut remaining = capacity;
    let mut left = n;
    for (k, &i) in order.iter().enumerate() {
        let share = remaining / left as f64;
        if caps[i] <= share {
            rates[i] = caps[i];
            remaining -= caps[i];
            left -= 1;
        } else {
            // Every remaining flow has cap > share: they all get the
            // equal share.
            for &j in &order[k..] {
                rates[j] = share;
            }
            return rates;
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    #[test]
    fn equal_split_when_uncapped() {
        let rates = max_min_fair(100.0, &[1000.0, 1000.0, 1000.0, 1000.0]);
        for r in &rates {
            assert!((r - 25.0).abs() < 1e-12);
        }
    }

    #[test]
    fn caps_bind_and_surplus_redistributes() {
        // One tiny flow frees capacity for the other two.
        let rates = max_min_fair(100.0, &[10.0, 1000.0, 1000.0]);
        assert!((rates[0] - 10.0).abs() < 1e-12);
        assert!((rates[1] - 45.0).abs() < 1e-12);
        assert!((rates[2] - 45.0).abs() < 1e-12);
    }

    #[test]
    fn underload_gives_everyone_their_cap() {
        let caps = [10.0, 20.0, 30.0];
        let rates = max_min_fair(100.0, &caps);
        for (r, c) in rates.iter().zip(caps.iter()) {
            assert!((r - c).abs() < 1e-12);
        }
        assert!((total(&rates) - 60.0).abs() < 1e-12);
    }

    #[test]
    fn conservation() {
        let caps = [5.0, 50.0, 100.0, 100.0, 3.0];
        let rates = max_min_fair(120.0, &caps);
        assert!((total(&rates) - 120.0f64.min(total(&caps))).abs() < 1e-9);
        for (r, c) in rates.iter().zip(caps.iter()) {
            assert!(*r <= c + 1e-12);
        }
    }

    #[test]
    fn empty_and_zero_cases() {
        assert!(max_min_fair(10.0, &[]).is_empty());
        let rates = max_min_fair(0.0, &[10.0, 10.0]);
        assert_eq!(rates, vec![0.0, 0.0]);
        let rates = max_min_fair(10.0, &[0.0, 10.0]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn order_independence() {
        let a = max_min_fair(77.0, &[10.0, 40.0, 100.0]);
        let b = max_min_fair(77.0, &[100.0, 10.0, 40.0]);
        assert!((a[0] - b[1]).abs() < 1e-12);
        assert!((a[1] - b[2]).abs() < 1e-12);
        assert!((a[2] - b[0]).abs() < 1e-12);
    }

    #[test]
    fn max_min_optimality_spot_check() {
        // The minimum allocation is as large as feasible: with capacity
        // 90 and caps [100, 100, 20], max-min gives [35, 35, 20]; no
        // feasible allocation has min > 30 for the uncapped pair
        // while... verify the canonical result directly.
        let rates = max_min_fair(90.0, &[100.0, 100.0, 20.0]);
        assert!((rates[2] - 20.0).abs() < 1e-12);
        assert!((rates[0] - 35.0).abs() < 1e-12);
        assert!((rates[1] - 35.0).abs() < 1e-12);
    }
}

//! Diurnal residential demand profiles.
//!
//! Residential broadband demand follows a strong daily rhythm: a deep
//! overnight trough, a daytime plateau, and an evening peak (the "busy
//! hour", typically 20:00–22:00 local). Oversubscription planning is
//! entirely about that peak — the paper's P2 ("peak bandwidth demand
//! density … determines LEO constellation size") is this observation
//! lifted to constellation scale.

/// A 24-hour demand profile: multiplicative weights per hour, with the
/// peak hour normalized to 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    weights: [f64; 24],
}

impl DiurnalProfile {
    /// Builds a profile from raw hourly weights (peak normalized to 1).
    pub fn new(mut weights: [f64; 24]) -> Self {
        let max = weights.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > 0.0, "profile must have positive demand somewhere");
        for w in &mut weights {
            assert!(*w >= 0.0, "weights must be non-negative");
            *w /= max;
        }
        DiurnalProfile { weights }
    }

    /// A typical residential fixed-broadband profile: trough at ~04:00
    /// (≈18 % of peak), evening peak 20:00–21:00.
    pub fn residential() -> Self {
        DiurnalProfile::new([
            0.38, 0.28, 0.22, 0.19, 0.18, 0.20, // 00-05
            0.26, 0.34, 0.42, 0.48, 0.52, 0.55, // 06-11
            0.58, 0.60, 0.62, 0.66, 0.72, 0.80, // 12-17
            0.88, 0.96, 1.00, 0.99, 0.86, 0.58, // 18-23
        ])
    }

    /// Demand weight at a continuous time-of-day in hours `[0, 24)`,
    /// linearly interpolated between hourly samples.
    pub fn weight_at(&self, hour_of_day: f64) -> f64 {
        let h = hour_of_day.rem_euclid(24.0);
        let i = h.floor() as usize % 24;
        let j = (i + 1) % 24;
        let t = h - h.floor();
        self.weights[i] * (1.0 - t) + self.weights[j] * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residential_peak_is_normalized_and_in_the_evening() {
        let p = DiurnalProfile::residential();
        assert_eq!(p.weight_at(20.0), 1.0);
        for h in 0..24 {
            assert!(p.weight_at(h as f64) <= 1.0, "hour {h}");
        }
    }

    #[test]
    fn trough_is_overnight() {
        let p = DiurnalProfile::residential();
        assert!(p.weight_at(4.0) < 0.25);
        assert!(p.weight_at(20.0) > 0.95);
    }

    #[test]
    fn interpolation_is_continuous() {
        let p = DiurnalProfile::residential();
        for k in 0..240 {
            let h = k as f64 / 10.0;
            let a = p.weight_at(h);
            let b = p.weight_at(h + 0.1);
            assert!((a - b).abs() < 0.2, "jump at {h}");
        }
    }

    #[test]
    fn wraps_around_midnight() {
        let p = DiurnalProfile::residential();
        assert!((p.weight_at(24.0) - p.weight_at(0.0)).abs() < 1e-12);
        assert!((p.weight_at(-1.0) - p.weight_at(23.0)).abs() < 1e-12);
    }
}

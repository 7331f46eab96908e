//! Seeded inputs for the in-process workloads. The same `--seed` gives
//! the same inputs; every iteration gets inputs of its own.
//!
//! Work sizes (time samples, capacity) follow a golden-ratio Weyl
//! sequence from a seeded offset rather than independent draws: any
//! run of iterations then spreads its sizes almost evenly over the
//! range, so a floor quantile of iteration times does not depend on
//! which seed happened to draw many small inputs.

use leo_geomath::LatLng;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for iteration `i` of a run seeded with `seed`.
    pub fn for_iteration(seed: u64, i: u64) -> Self {
        let mut r = Rng(seed);
        let base = r.next_u64();
        Rng(base ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Position `i` of the seeded Weyl sequence in `[0, 1)`.
pub fn weyl(seed: u64, i: u64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let offset = Rng::for_iteration(seed, u64::MAX).unit();
    (offset + i as f64 * INV_PHI).fract()
}

/// Picks demand-cell centres with probability proportional to their
/// location counts, so the survey looks where the demand is.
#[derive(Debug, Clone)]
pub struct CellPicker {
    centers: Vec<LatLng>,
    cumulative: Vec<u64>,
}

impl CellPicker {
    /// A picker over `(lat, lng, locations)` cells; zero-weight cells
    /// are never picked.
    pub fn new(cells: impl IntoIterator<Item = (f64, f64, u64)>) -> Self {
        let mut centers = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0u64;
        for (lat, lng, w) in cells {
            if w > 0 {
                total += w;
                centers.push(LatLng::new(lat, lng));
                cumulative.push(total);
            }
        }
        assert!(total > 0, "a picker needs at least one weighted cell");
        CellPicker {
            centers,
            cumulative,
        }
    }

    /// One weighted draw.
    pub fn pick(&self, rng: &mut Rng) -> LatLng {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let u = rng.next_u64() % total;
        let idx = self.cumulative.partition_point(|&c| c <= u);
        self.centers[idx]
    }
}

/// One `orbit-survey` iteration's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyInput {
    /// Ground points for `coverage()`.
    pub points: Vec<LatLng>,
    /// Latitude for the density estimate, degrees.
    pub density_lat: f64,
    /// Time samples for the density estimate.
    pub density_samples: u32,
    /// Users for the gateway-path calls.
    pub users: Vec<LatLng>,
    /// One epoch per user, seconds.
    pub epochs: Vec<f64>,
}

/// Coverage points per iteration.
pub const SURVEY_POINTS: usize = 32;
/// Users per iteration; each is routed bent pipe and over ISLs.
pub const SURVEY_USERS: usize = 8;
/// Highest density latitude drawn: ten degrees inside the 53° shell's
/// inclination, where the band estimate stays within 5% of the
/// analytic factor even at the fewest time samples.
pub const SURVEY_MAX_LAT: f64 = 43.0;

/// The inputs of `orbit-survey` iteration `i`.
pub fn survey_input(seed: u64, i: u64, picker: &CellPicker) -> SurveyInput {
    let mut rng = Rng::for_iteration(seed, i);
    let points = (0..SURVEY_POINTS).map(|_| picker.pick(&mut rng)).collect();
    let users = (0..SURVEY_USERS).map(|_| picker.pick(&mut rng)).collect();
    let epochs = (0..SURVEY_USERS)
        .map(|_| rng.range(0.0, 86_400.0))
        .collect();
    SurveyInput {
        points,
        density_lat: rng.range(-SURVEY_MAX_LAT, SURVEY_MAX_LAT),
        density_samples: 128 + (weyl(seed, i) * 257.0) as u32,
        users,
        epochs,
    }
}

/// One `qoe-sweep` iteration's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct QoeInput {
    /// Beam capacity shared by the cell, Gbps.
    pub capacity_gbps: f64,
    /// Oversubscription ratios, ascending.
    pub oversubs: Vec<f64>,
    /// Simulation seed.
    pub sim_seed: u64,
}

/// The paper's EXT-QOE inputs, whose output `results/qoe_oversub.csv`
/// holds.
pub fn qoe_paper_input() -> QoeInput {
    QoeInput {
        capacity_gbps: 1.0,
        oversubs: vec![5.0, 10.0, 20.0, 35.0],
        sim_seed: 7,
    }
}

/// The inputs of `qoe-sweep` iteration `i`. Iteration 0 is the paper's
/// configuration; the others draw a capacity in 0.5–2 Gbps and one
/// ratio from each of six strata of 2–40, so every iteration simulates
/// about the same number of subscribers per gigabit.
pub fn qoe_input(seed: u64, i: u64) -> QoeInput {
    if i == 0 {
        return qoe_paper_input();
    }
    let mut rng = Rng::for_iteration(seed, i);
    const LEVELS: usize = 6;
    let width = (40.0 - 2.0) / LEVELS as f64;
    QoeInput {
        capacity_gbps: 0.5 + 1.5 * weyl(seed, i),
        oversubs: (0..LEVELS)
            .map(|k| rng.range(2.0 + k as f64 * width, 2.0 + (k + 1) as f64 * width))
            .collect(),
        sim_seed: rng.next_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picker() -> CellPicker {
        CellPicker::new([(40.0, -100.0, 5), (35.0, -90.0, 0), (30.0, -85.0, 95)])
    }

    #[test]
    fn same_seed_same_inputs() {
        let p = picker();
        for i in [0, 1, 17, 1000] {
            assert_eq!(survey_input(42, i, &p), survey_input(42, i, &p));
            assert_eq!(qoe_input(42, i), qoe_input(42, i));
        }
        assert_ne!(survey_input(42, 1, &p), survey_input(43, 1, &p));
        assert_ne!(survey_input(42, 1, &p), survey_input(42, 2, &p));
        assert_ne!(qoe_input(42, 1), qoe_input(43, 1));
    }

    #[test]
    fn inputs_stay_in_their_ranges() {
        let p = picker();
        for i in 0..500 {
            let s = survey_input(9, i, &p);
            assert_eq!(s.points.len(), SURVEY_POINTS);
            assert!(
                s.points.iter().all(|c| c.lat_deg() != 35.0),
                "zero weight picked"
            );
            assert!((128..=384).contains(&s.density_samples));
            assert!(s.density_lat.abs() <= SURVEY_MAX_LAT);
            let q = qoe_input(9, i);
            assert!((0.5..=2.0).contains(&q.capacity_gbps));
            assert!(q.oversubs.windows(2).all(|w| w[0] < w[1]));
            assert!(q.oversubs.iter().all(|&r| (2.0..40.0).contains(&r)));
        }
        assert_eq!(qoe_input(9, 0), qoe_paper_input());
    }

    #[test]
    fn weyl_sizes_cover_the_range_evenly() {
        // Any 100 consecutive positions put 8–12 in each tenth.
        for seed in [1, 2, 3] {
            let mut bins = [0; 10];
            for i in 1..=100 {
                bins[(weyl(seed, i) * 10.0) as usize] += 1;
            }
            assert!(bins.iter().all(|&b| (8..=12).contains(&b)), "{bins:?}");
        }
    }
}

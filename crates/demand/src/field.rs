//! A seeded smooth random field over the plane.
//!
//! The demand generator needs spatial *texture*: un(der)served
//! locations cluster (Appalachia, the Mississippi delta, tribal lands),
//! they don't fall i.i.d. over the map. A sum of Gaussian bumps with
//! seeded random centers, scales, and amplitudes gives a cheap,
//! deterministic, infinitely differentiable field; combined with
//! metro-distance it drives which cells hold demand and how much.
//!
//! The field has two evaluations. [`SmoothField::value`] is the exact
//! one: a haversine and an `exp` per bump, the expression every
//! calibrated dataset was built with. [`SmoothField::approx_value`]
//! skips the bumps a dot product proves negligible and measures the
//! angle by the chord; [`SCORE_EPS`] bounds how far it moves a demand
//! score. Dataset generation only needs the order of the scores, so it
//! sorts by the approximation and re-scores exactly only where two
//! scores sit within that bound of each other (DESIGN.md §18).

use leo_geomath::{pre_distance_km, GeoBBox, LatLng, PrePoint, UnitPoint, Vec3, EARTH_RADIUS_KM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bump whose term is provably below this is left out of
/// [`SmoothField::approx_value`].
pub const APPROX_TAU: f64 = 1e-12;

/// Slack between a bump's dot floor and the cosine of the angle at
/// which its term falls to [`APPROX_TAU`]. The computed dot product of
/// two computed unit vectors is within 1e-14 of the cosine of the true
/// angle, and the floor's own `ln`, `sqrt` and `cos` within a few
/// ulps, so a dot below the floor proves the term is below τ.
const DOT_FLOOR_MARGIN: f64 = 1e-12;

/// The most bumps, and the smallest radius (km), of a field whose
/// scores [`SCORE_EPS`] covers.
pub const SCORE_EPS_MAX_BUMPS: usize = 80;
/// See [`SCORE_EPS_MAX_BUMPS`].
pub const SCORE_EPS_MIN_SCALE_KM: f64 = 80.0;

/// Bound on |approximate − exact| of a demand score: the field, the
/// remoteness ramp (at most 1.2) and the jitter (below 0.35), summed
/// as `(field + ramp) + jitter`, with the field evaluated by
/// [`SmoothField::approx_value`] on one side and
/// [`SmoothField::value`] on the other. It holds for fields of at most
/// [`SCORE_EPS_MAX_BUMPS`] bumps with radii of at least
/// [`SCORE_EPS_MIN_SCALE_KM`], amplitudes in `[0, 1)` and every point
/// inside the CONUS box (|lat| ≤ 50°, |lng| ≤ 130°). DESIGN.md §18
/// derives a bound of 1.4e-10 from four parts: the skipped tail, the
/// angle and `exp` errors of both formulas, the summation and the two
/// final adds. This constant is seven times that.
pub const SCORE_EPS: f64 = 1e-9;

/// One Gaussian bump of the field. The center's trigonometry and unit
/// vector are precomputed at construction ([`UnitPoint`]), so the exact
/// kernel stays bit-identical to a raw haversine (see
/// `leo_geomath::fastpoint`) and the approximate one needs no
/// trigonometry to reject a far bump.
#[derive(Debug, Clone, Copy)]
struct Bump {
    center: UnitPoint,
    /// Characteristic radius, km.
    scale_km: f64,
    amplitude: f64,
    /// `0.5·(R/scale)²`: the term is `amplitude·exp(−c·θ²)` at central
    /// angle θ.
    c: f64,
    /// Unit-vector dot product below which the term is under
    /// [`APPROX_TAU`].
    dot_floor: f64,
}

impl Bump {
    fn new(center: &LatLng, scale_km: f64, amplitude: f64) -> Self {
        let c = 0.5 * (EARTH_RADIUS_KM / scale_km).powi(2);
        let dot_floor = if amplitude <= APPROX_TAU {
            // The term never reaches τ: no point passes.
            f64::INFINITY
        } else {
            // a·exp(−c·θ²) < τ exactly when θ > θ_max.
            let theta_max = ((amplitude / APPROX_TAU).ln() / c).sqrt();
            if theta_max >= std::f64::consts::PI {
                f64::NEG_INFINITY
            } else {
                theta_max.cos() - DOT_FLOOR_MARGIN
            }
        };
        Bump {
            center: UnitPoint::new(center),
            scale_km,
            amplitude,
            c,
            dot_floor,
        }
    }
}

/// A smooth random field: a sum of Gaussian bumps.
#[derive(Debug, Clone)]
pub struct SmoothField {
    bumps: Vec<Bump>,
}

impl SmoothField {
    /// Builds a field of `n_bumps` bumps with centers uniform in
    /// `bbox`, radii in `scale_km` and amplitudes in `[0, 1)`,
    /// deterministically from `seed`.
    pub fn new(seed: u64, bbox: &GeoBBox, n_bumps: usize, scale_km: (f64, f64)) -> Self {
        assert!(
            scale_km.0 > 0.0 && scale_km.1 >= scale_km.0,
            "bad scale range"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let bumps = (0..n_bumps)
            .map(|_| {
                let center = LatLng::new(
                    rng.gen_range(bbox.lat_min..bbox.lat_max),
                    rng.gen_range(bbox.lng_min..bbox.lng_max),
                );
                let scale_km = rng.gen_range(scale_km.0..=scale_km.1);
                Bump::new(&center, scale_km, rng.gen_range(0.0..1.0))
            })
            .collect();
        SmoothField { bumps }
    }

    /// Field value at a point (non-negative; unbounded above, typically
    /// O(bump count × mean amplitude) near dense bump clusters). Every
    /// bump contributes through a haversine and an `exp`; this exact
    /// expression is what dataset generation ranks cells by.
    pub fn value(&self, p: &LatLng) -> f64 {
        let q = PrePoint::new(p);
        self.bumps
            .iter()
            .map(|b| {
                let d = pre_distance_km(&q, b.center.pre());
                b.amplitude * (-0.5 * (d / b.scale_km).powi(2)).exp()
            })
            .sum()
    }

    /// Field value at the point with unit vector `u`, within a proven
    /// bound of [`value`](Self::value) (see [`SCORE_EPS`]). A bump
    /// whose dot product with `u` is below its floor is left out: its
    /// term is under [`APPROX_TAU`]. The others take their angle from
    /// the chord, `θ = 2·asin(|u − u_b|/2)`, and add `a·exp(−c·θ²)`.
    pub fn approx_value(&self, u: Vec3) -> f64 {
        self.bumps
            .iter()
            .filter(|b| u.dot(b.center.unit()) >= b.dot_floor)
            .map(|b| {
                let chord = (u - b.center.unit()).norm();
                let theta = 2.0 * (chord / 2.0).min(1.0).asin();
                b.amplitude * (-b.c * theta * theta).exp()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbox() -> GeoBBox {
        GeoBBox::new(25.0, 49.0, -125.0, -66.0)
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let f1 = SmoothField::new(42, &bbox(), 50, (100.0, 400.0));
        let f2 = SmoothField::new(42, &bbox(), 50, (100.0, 400.0));
        let p = LatLng::new(39.0, -100.0);
        assert_eq!(f1.value(&p), f2.value(&p));
    }

    #[test]
    fn different_seeds_differ() {
        let f1 = SmoothField::new(1, &bbox(), 50, (100.0, 400.0));
        let f2 = SmoothField::new(2, &bbox(), 50, (100.0, 400.0));
        let p = LatLng::new(39.0, -100.0);
        assert_ne!(f1.value(&p), f2.value(&p));
    }

    #[test]
    fn field_is_smooth() {
        // Values 1 km apart differ by far less than values 500 km apart
        // on average.
        let f = SmoothField::new(7, &bbox(), 60, (100.0, 400.0));
        let mut near = 0.0;
        let mut far = 0.0;
        let mut n = 0;
        for lat in [30.0, 35.0, 40.0, 45.0] {
            for lng in [-115.0, -105.0, -95.0, -85.0, -75.0] {
                let p = LatLng::new(lat, lng);
                let v = f.value(&p);
                near += (f.value(&leo_geomath::destination(&p, 90.0, 1.0)) - v).abs();
                far += (f.value(&leo_geomath::destination(&p, 90.0, 500.0)) - v).abs();
                n += 1;
            }
        }
        assert!(
            near / n as f64 * 20.0 < far / n as f64,
            "near {near} far {far}"
        );
    }

    /// CONUS probes on a 0.5° lattice, with a few bump centers and
    /// their near neighbours mixed in.
    fn probes(f: &SmoothField) -> Vec<LatLng> {
        let mut out: Vec<LatLng> = (0..50)
            .flat_map(|i| {
                (0..118).map(move |j| LatLng::new(24.5 + 0.5 * i as f64, -125.0 + 0.5 * j as f64))
            })
            .collect();
        for b in f.bumps.iter().take(10) {
            let c = LatLng::from_vec(b.center.unit());
            out.push(c);
            out.push(leo_geomath::destination(&c, 30.0, 1e-3));
        }
        out
    }

    #[test]
    fn approx_value_stays_within_the_score_bound() {
        let f = SmoothField::new(7, &bbox(), 80, (80.0, 450.0));
        let mut worst = 0.0f64;
        for p in probes(&f) {
            let d = (f.approx_value(p.to_unit_vec()) - f.value(&p)).abs();
            worst = worst.max(d);
        }
        // The field's share of the bound: tail plus per-bump errors.
        assert!(worst < 1.4e-10, "worst |approx − exact| {worst:e}");
        assert!(worst < SCORE_EPS);
    }

    #[test]
    fn bumps_below_their_dot_floor_are_below_tau() {
        let f = SmoothField::new(3, &bbox(), 80, (80.0, 450.0));
        let mut skipped = 0;
        for p in probes(&f) {
            let (q, u) = (PrePoint::new(&p), p.to_unit_vec());
            for b in &f.bumps {
                if u.dot(b.center.unit()) < b.dot_floor {
                    let d = pre_distance_km(&q, b.center.pre());
                    let term = b.amplitude * (-0.5 * (d / b.scale_km).powi(2)).exp();
                    assert!(term < APPROX_TAU, "skipped term {term:e} at {p}");
                    skipped += 1;
                }
            }
        }
        assert!(skipped > 0);
    }

    #[test]
    fn dot_floors_cover_tiny_amplitudes_and_wide_bumps() {
        let p = LatLng::new(40.0, -100.0);
        let tiny = Bump::new(&p, 100.0, 1e-13);
        assert_eq!(tiny.dot_floor, f64::INFINITY);
        let wide = Bump::new(&p, 1e6, 0.5);
        assert_eq!(wide.dot_floor, f64::NEG_INFINITY);
        let f = SmoothField {
            bumps: vec![tiny, wide],
        };
        let far = LatLng::new(-40.0, 80.0);
        assert!((f.approx_value(far.to_unit_vec()) - f.value(&far)).abs() < 1e-12);
    }

    #[test]
    fn values_are_nonnegative_and_finite() {
        let f = SmoothField::new(9, &bbox(), 80, (50.0, 600.0));
        for lat in 25..49 {
            for lng in -125..-66 {
                let v = f.value(&LatLng::new(lat as f64, lng as f64));
                assert!(v >= 0.0 && v.is_finite());
            }
        }
    }
}

//! The fixed-precision writer against `core::fmt`, its oracle: every
//! input must print byte for byte as `format!("{x:.p$}")` does, at every
//! precision the renderers use and past the integer path's limit.

use leo_report::num::push_fixed;
use proptest::prelude::*;

/// Precisions checked: the integer path's 0..=9 and three fallbacks.
const PRECISIONS: std::ops::RangeInclusive<usize> = 0..=12;

fn check(x: f64) {
    let mut got = String::new();
    for p in PRECISIONS {
        got.clear();
        push_fixed(&mut got, x, p);
        assert_eq!(
            got,
            format!("{x:.p$}"),
            "x = {x:e} (bits {:#x}), p = {p}",
            x.to_bits()
        );
    }
}

/// Values whose magnitude lands on the integer path at some precision:
/// a random significand at a binary exponent in `[-70, 66)`.
fn in_range(mantissa: u64, exp: i32, negative: bool) -> f64 {
    let x = f64::from_bits(((1023 + exp) as u64) << 52 | mantissa);
    if negative {
        -x
    } else {
        x
    }
}

proptest! {
    #[test]
    fn random_bit_patterns_match_core_fmt(bits in proptest::collection::vec(0u64..=u64::MAX, 256)) {
        for b in bits {
            check(f64::from_bits(b));
        }
    }

    #[test]
    fn integer_path_magnitudes_match_core_fmt(
        xs in proptest::collection::vec((0u64..1 << 52, -70i32..66, 0u8..2), 256),
    ) {
        for (m, e, s) in xs {
            check(in_range(m, e, s == 1));
        }
    }
}

#[test]
fn exact_binary_ties_both_signs() {
    // k/2^j is exactly representable, so at p = j - 1 and below these
    // sit on or near a decimal tie that must round half to even.
    for j in 1..=14 {
        let scale = (1u64 << j) as f64;
        for k in 0..300u64 {
            let x = k as f64 / scale;
            check(x);
            check(-x);
        }
    }
}

#[test]
fn decimal_neighbours_one_ulp_apart() {
    for k in 0..=9i32 {
        let scale = 10f64.powi(k);
        for n in 0..2_000u64 {
            let x = n as f64 / scale;
            for y in [
                x,
                f64::from_bits(x.to_bits() + 1),
                f64::from_bits(x.to_bits().saturating_sub(1)),
            ] {
                check(y);
                check(-y);
            }
        }
    }
}

#[test]
fn zeros_and_subnormals() {
    for x in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        5e-324,
        f64::EPSILON,
    ] {
        check(x);
        check(-x);
    }
    for bits in [1u64, 2, 3, 0x000f_ffff_ffff_ffff, 0x0008_0000_0000_0000] {
        check(f64::from_bits(bits));
        check(-f64::from_bits(bits));
    }
}

#[test]
fn either_side_of_the_two_pow_64_edge() {
    let two64 = 18_446_744_073_709_551_616.0f64;
    for p in 0..=9i32 {
        let edge = two64 / 10f64.powi(p);
        let mut x = edge;
        let mut y = edge;
        for _ in 0..64 {
            check(x);
            check(-x);
            check(y);
            check(-y);
            x = f64::from_bits(x.to_bits() + 1);
            y = f64::from_bits(y.to_bits() - 1);
        }
    }
    for x in [
        u64::MAX as f64,
        (u64::MAX >> 1) as f64,
        9_007_199_254_740_993.0,
    ] {
        check(x);
        check(-x);
    }
}

#[test]
fn nan_and_infinities() {
    for x in [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
    ] {
        check(x);
    }
}

//! Exact fixed-precision number writing for the SVG and CSV renderers.
//!
//! [`push_fixed`] appends `x` byte for byte as `format!("{x:.p$}")`
//! would, without going through `core::fmt`. The artifact stages write
//! about 120k fixed-precision numbers per paper-scale run (map circles,
//! CDF polylines, CSV columns); through `core::fmt` each one costs more
//! than the rest of its element.
//!
//! The fast path scales `|x|·10^p` into an integer exactly: a finite
//! `f64` is `m·2^e` with a 53-bit integer `m`, so `m·10^p` is an exact
//! `u128` for `p ≤ 9`, and the shift by `e` leaves an exact binary
//! remainder to round half to even, as `core::fmt` does. Anything
//! outside that path falls back to `core::fmt` itself: NaN and ±inf,
//! `p > 9`, and `|x|·10^p ≥ 2^64`.

use std::fmt::Write as _;

/// Largest precision of the integer path: `m·10^9 < 2^53·2^30` leaves
/// the product far inside `u128`.
const MAX_FAST_PRECISION: usize = 9;

const POW10: [u64; MAX_FAST_PRECISION + 1] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// `2^64`, the integer path's exclusive bound on `|x|·10^p`.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// Appends `x` with `p` fraction digits, exactly as `format!("{x:.p$}")`:
/// rounded half to even on the exact binary value, with a `-` whenever
/// the sign bit is set (so `-0.0` and `-0.001` print as `-0.00`).
pub fn push_fixed(out: &mut String, x: f64, p: usize) {
    match scaled(x, p) {
        Some(n) => push_scaled(out, x.is_sign_negative(), n, p),
        None => {
            let _ = write!(out, "{x:.p$}");
        }
    }
}

/// Appends `b` as two lowercase hex digits, as `format!("{b:02x}")`.
pub fn push_hex_byte(out: &mut String, b: u8) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(HEX[usize::from(b >> 4)] as char);
    out.push(HEX[usize::from(b & 0xf)] as char);
}

/// `|x|·10^p` rounded half to even, or `None` where [`push_fixed`]
/// falls back to `core::fmt`.
fn scaled(x: f64, p: usize) -> Option<u64> {
    if p > MAX_FAST_PRECISION || !x.is_finite() {
        return None;
    }
    let pow = POW10[p];
    let a = x.abs();
    // 10^p ≤ 10^9 is exact in f64 and rounding is monotone, so a
    // product below the representable 2^64 proves the exact one is.
    if a * pow as f64 >= TWO_POW_64 {
        return None;
    }
    let bits = a.to_bits();
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1u64 << 52) - 1);
    let (m, e) = if biased == 0 {
        (fraction, -1074) // subnormal (or zero): no implicit bit
    } else {
        (fraction | 1u64 << 52, biased - 1075)
    };
    let v = u128::from(m) * u128::from(pow); // < 2^83
    let n = if e >= 0 {
        v << e // an integer below 2^64, by the check above
    } else {
        let s = e.unsigned_abs();
        if s > 83 {
            0 // v < 2^83 ≤ half: rounds down to zero
        } else {
            let q = v >> s;
            let r = v & ((1u128 << s) - 1);
            let half = 1u128 << (s - 1);
            if r > half || (r == half && q & 1 == 1) {
                q + 1
            } else {
                q
            }
        }
    };
    u64::try_from(n).ok()
}

/// Appends the scaled integer `n` as `[-]int.frac` with `p` fraction
/// digits and at least one integer digit.
fn push_scaled(out: &mut String, negative: bool, n: u64, p: usize) {
    // 20 digits of u64::MAX, or p + 1 ≤ 10, plus the point.
    let mut buf = [0u8; 24];
    let mut i = buf.len();
    let (mut rest, mut frac) = (n, p);
    loop {
        i -= 1;
        buf[i] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if frac > 0 {
            frac -= 1;
            if frac == 0 {
                i -= 1;
                buf[i] = b'.';
            }
        } else if rest == 0 {
            break;
        }
    }
    if negative {
        out.push('-');
    }
    out.extend(buf[i..].iter().map(|&b| char::from(b)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(x: f64, p: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, x, p);
        s
    }

    #[test]
    fn falls_back_outside_the_integer_path() {
        assert_eq!(scaled(f64::NAN, 2), None);
        assert_eq!(scaled(f64::NEG_INFINITY, 2), None);
        assert_eq!(scaled(1.0, MAX_FAST_PRECISION + 1), None);
        assert_eq!(scaled(TWO_POW_64 / 100.0, 2), None);
        assert_eq!(fixed(f64::NEG_INFINITY, 2), "-inf");
        assert_eq!(fixed(1e300, 1), format!("{:.1}", 1e300));
        assert_eq!(fixed(0.1, 12), "0.100000000000");
    }

    #[test]
    fn hex_bytes_match_core_fmt() {
        for b in 0..=u8::MAX {
            let mut s = String::new();
            push_hex_byte(&mut s, b);
            assert_eq!(s, format!("{b:02x}"));
        }
    }
}

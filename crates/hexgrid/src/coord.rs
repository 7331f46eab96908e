//! Axial hexagon coordinates and cube rounding.
//!
//! Cells at one resolution form an infinite hexagonal lattice indexed by
//! axial coordinates `(q, r)`. Geometrically these are the Eisenstein
//! integers `q + r·ω` with `ω = e^{iπ/3}` (basis vectors 60° apart).
//! The implicit third cube coordinate is `s = −q − r`.

/// Axial coordinates of a hexagonal cell within one resolution's lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Axial {
    /// First axial coordinate.
    pub q: i32,
    /// Second axial coordinate.
    pub r: i32,
}

impl Axial {
    /// Creates an axial coordinate.
    #[inline]
    pub const fn new(q: i32, r: i32) -> Self {
        Axial { q, r }
    }
}

/// Rounds fractional axial coordinates to the containing cell (cube
/// rounding: round all three cube coordinates, then fix the one with the
/// largest rounding error so they sum to zero).
pub fn round_frac(qf: f64, rf: f64) -> Axial {
    let sf = -qf - rf;
    let mut q = qf.round();
    let mut r = rf.round();
    let s = sf.round();
    let dq = (q - qf).abs();
    let dr = (r - rf).abs();
    let ds = (s - sf).abs();
    if dq > dr && dq > ds {
        q = -r - s;
    } else if dr > ds {
        r = -q - s;
    }
    Axial::new(q as i32, r as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_frac_is_identity_on_lattice() {
        for q in -5..5 {
            for r in -5..5 {
                assert_eq!(round_frac(q as f64, r as f64), Axial::new(q, r));
            }
        }
    }
}

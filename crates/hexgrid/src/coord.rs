//! Axial hexagon coordinates and their algebra.
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

/// The six unit-distance neighbour offsets, in counterclockwise order
/// starting from `+q`.
pub const NEIGHBOR_OFFSETS: [Axial; 6] = [
    Axial::new(1, 0),
    Axial::new(0, 1),
    Axial::new(-1, 1),
    Axial::new(-1, 0),
    Axial::new(0, -1),
    Axial::new(1, -1),
];

impl Axial {
    /// Creates an axial coordinate.
    #[inline]
    pub const fn new(q: i32, r: i32) -> Self {
        Axial { q, r }
    }

    /// Component-wise addition.
    #[inline]
    pub const fn add(&self, o: Axial) -> Axial {
        Axial::new(self.q + o.q, self.r + o.r)
    }

    /// Scalar multiplication.
    #[inline]
    pub const fn scale(&self, k: i32) -> Axial {
        Axial::new(self.q * k, self.r * k)
    }

    /// All cells at exactly `radius` steps from `self`, counterclockwise
    /// starting from the `+q` direction. `radius == 0` yields `[self]`.
    pub fn ring(&self, radius: u32) -> Vec<Axial> {
        if radius == 0 {
            return vec![*self];
        }
        let mut out = Vec::with_capacity(6 * radius as usize);
        // Start at the cell `radius` steps in the +q direction, then walk
        // the six sides.
        let mut cur = self.add(NEIGHBOR_OFFSETS[0].scale(radius as i32));
        for side in 0..6 {
            // Walk direction for this side: two steps ahead in the
            // neighbor cycle produces the canonical ring traversal.
            let dir = NEIGHBOR_OFFSETS[(side + 2) % 6];
            for _ in 0..radius {
                out.push(cur);
                cur = cur.add(dir);
            }
        }
        out
    }

    /// All cells within `radius` steps of `self` (a filled disk of
    /// `1 + 3·radius·(radius+1)` cells), ring by ring.
    pub fn disk(&self, radius: u32) -> Vec<Axial> {
        let mut out = Vec::with_capacity(1 + 3 * (radius * (radius + 1)) as usize);
        for k in 0..=radius {
            out.extend(self.ring(k));
        }
        out
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

    /// Grid distance: the minimum number of cell-to-cell steps.
    fn steps(a: &Axial, b: &Axial) -> u32 {
        let (dq, dr) = (a.q - b.q, a.r - b.r);
        ((dq.abs() + dr.abs() + (dq + dr).abs()) / 2) as u32
    }

    #[test]
    fn ring_sizes_and_distances() {
        let c = Axial::new(2, 1);
        assert_eq!(c.ring(0), vec![c]);
        for radius in 1..6u32 {
            let ring = c.ring(radius);
            assert_eq!(ring.len(), 6 * radius as usize, "radius {radius}");
            for cell in &ring {
                assert_eq!(steps(&c, cell), radius);
            }
            // No duplicates.
            let mut sorted = ring.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), ring.len());
        }
    }

    #[test]
    fn ring_is_connected_cycle() {
        let ring = Axial::new(0, 0).ring(3);
        for i in 0..ring.len() {
            let next = ring[(i + 1) % ring.len()];
            assert_eq!(steps(&ring[i], &next), 1, "gap at {i}");
        }
    }

    #[test]
    fn disk_size_formula() {
        for radius in 0..6u32 {
            let disk = Axial::new(0, 0).disk(radius);
            assert_eq!(disk.len(), (1 + 3 * radius * (radius + 1)) as usize);
        }
    }

    #[test]
    fn round_frac_is_identity_on_lattice() {
        for q in -5..5 {
            for r in -5..5 {
                assert_eq!(round_frac(q as f64, r as f64), Axial::new(q, r));
            }
        }
    }
}

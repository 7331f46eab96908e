//! Packed 64-bit cell identifiers.
//!
//! Mirrors H3's ergonomics: a cell is a single `u64` that encodes the
//! resolution and lattice position, is cheap to hash, and sorts
//! deterministically. Layout (most significant to least):
//!
//! ```text
//! [ 4 bits reserved = 0 | 4 bits resolution | 28 bits zigzag(q) | 28 bits zigzag(r) ]
//! ```
//!
//! Zigzag encoding maps signed coordinates to unsigned so the packing is
//! total over the coordinate range the system uses (|q|, |r| < 2²⁷).

use crate::coord::Axial;
use std::fmt;

/// A packed (resolution, axial-coordinate) cell identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(u64);

const COORD_BITS: u32 = 28;
const COORD_MASK: u64 = (1 << COORD_BITS) - 1;
const MAX_RES: u8 = 15;

#[inline]
fn zigzag(v: i32) -> u64 {
    ((v << 1) ^ (v >> 31)) as u32 as u64
}

#[inline]
fn unzigzag(v: u64) -> i32 {
    let v = v as u32;
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

impl CellId {
    /// Packs a resolution and axial coordinate into an identifier.
    ///
    /// Returns `None` if the resolution exceeds 15 or a coordinate
    /// overflows the 28-bit zigzag field.
    pub fn new(res: u8, coord: Axial) -> Option<CellId> {
        if res > MAX_RES {
            return None;
        }
        let zq = zigzag(coord.q);
        let zr = zigzag(coord.r);
        if zq > COORD_MASK || zr > COORD_MASK {
            return None;
        }
        Some(CellId(
            ((res as u64) << (2 * COORD_BITS)) | (zq << COORD_BITS) | zr,
        ))
    }

    /// Packs without bounds checking failure — panics on overflow.
    /// Intended for grid-internal coordinates, which are always small.
    pub fn pack(res: u8, coord: Axial) -> CellId {
        CellId::new(res, coord).expect("cell coordinate out of range")
    }

    /// The grid resolution.
    pub fn resolution(&self) -> u8 {
        ((self.0 >> (2 * COORD_BITS)) & 0xF) as u8
    }

    /// The axial coordinate within the resolution's lattice.
    pub fn coord(&self) -> Axial {
        Axial::new(
            unzigzag((self.0 >> COORD_BITS) & COORD_MASK),
            unzigzag(self.0 & COORD_MASK),
        )
    }

    /// The raw 64-bit value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Reconstructs an identifier from a raw value, validating the
    /// reserved bits and resolution field.
    pub fn from_u64(v: u64) -> Option<CellId> {
        let id = CellId(v);
        if (v >> 60) != 0 || id.resolution() > MAX_RES {
            return None;
        }
        Some(id)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.coord();
        write!(f, "r{}:{},{}", self.resolution(), c.q, c.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trip() {
        for &(res, q, r) in &[
            (0u8, 0, 0),
            (5, 123, -456),
            (15, -100_000, 99_999),
            (7, i32::MIN / 32, i32::MAX / 32),
        ] {
            let id = CellId::new(res, Axial::new(q, r)).unwrap();
            assert_eq!(id.resolution(), res);
            assert_eq!(id.coord(), Axial::new(q, r));
            assert_eq!(CellId::from_u64(id.as_u64()), Some(id));
        }
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(CellId::new(16, Axial::new(0, 0)).is_none());
        assert!(CellId::new(5, Axial::new(1 << 28, 0)).is_none());
        assert!(CellId::from_u64(u64::MAX).is_none());
    }

    #[test]
    fn ordering_is_resolution_major() {
        let a = CellId::new(4, Axial::new(1000, 1000)).unwrap();
        let b = CellId::new(5, Axial::new(0, 0)).unwrap();
        assert!(a < b);
    }

    #[test]
    fn display_format() {
        let id = CellId::new(5, Axial::new(-3, 8)).unwrap();
        assert_eq!(id.to_string(), "r5:-3,8");
    }

    #[test]
    fn zigzag_round_trip_extremes() {
        for v in [0, 1, -1, 42, -42, (1 << 26), -(1 << 26)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}

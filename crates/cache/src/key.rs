//! FNV-1a 64-bit structural hashing for cache keys and checksums.
//!
//! FNV-1a is not cryptographic — it doesn't need to be. The threat
//! model is *staleness* (a config field changed but an old snapshot
//! still matches) and *corruption* (a byte flipped on disk), not an
//! adversary forging snapshots. FNV-1a detects both with 64 bits of
//! headroom, needs no tables, and hashes at memory speed.
//!
//! [`KeyHasher`] builds *structural* digests: every write is
//! fixed-width little-endian (floats as raw bits, strings
//! length-prefixed), so two different field sequences can't collide by
//! concatenation ambiguity.

pub use leo_fault::fnv1a64;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 over typed fields.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        KeyHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f64` as its raw bits (`-0.0` and `0.0` hash
    /// differently, NaN payloads are distinguished — structural, not
    /// numeric, identity).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and
    /// `("a","bc")` digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_agrees_with_one_shot() {
        let mut h = KeyHasher::new();
        h.write_bytes(b"foo");
        h.write_bytes(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn string_framing_prevents_concatenation_collisions() {
        let mut a = KeyHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn every_field_perturbs_the_digest() {
        let base = {
            let mut h = KeyHasher::new();
            h.write_u64(7);
            h.write_f64(1.5);
            h.write_u32(3);
            h.finish()
        };
        let tweaked_int = {
            let mut h = KeyHasher::new();
            h.write_u64(8);
            h.write_f64(1.5);
            h.write_u32(3);
            h.finish()
        };
        let tweaked_float = {
            let mut h = KeyHasher::new();
            h.write_u64(7);
            h.write_f64(1.5000000000000002);
            h.write_u32(3);
            h.finish()
        };
        assert_ne!(base, tweaked_int);
        assert_ne!(base, tweaked_float);
    }
}

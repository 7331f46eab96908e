//! Property-based tests for the snapshot codec and container.
//!
//! The contract under test: any payload round-trips bit-exactly, and
//! *no* corruption of a stored container — truncation, a flipped byte,
//! a bumped schema version, a wrong key — ever decodes. Rejection is a
//! typed error the store converts into regeneration; nothing here may
//! panic.

use leo_cache::codec::{Decoder, Encoder};
use leo_cache::key::fnv1a64;
use leo_cache::store::{decode_container, encode_container, ContainerError};
use leo_cache::{decode_dataset, decode_sweep, encode_dataset, encode_sweep, SCHEMA_VERSION};
use leo_demand::dataset::{BroadbandDataset, SynthConfig};
use proptest::prelude::*;
use starlink_divide::coverage_sweep::CoverageSweep;
use std::sync::OnceLock;

/// One generated small dataset, shared across property cases (the
/// generator costs ~1 s; the properties mutate its value columns).
fn base_dataset() -> &'static BroadbandDataset {
    static BASE: OnceLock<BroadbandDataset> = OnceLock::new();
    BASE.get_or_init(|| BroadbandDataset::generate(&SynthConfig::small()))
}

/// Arbitrary bytes (the vendored proptest has no `any::<u8>()`).
fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..max_len)
}

/// Arbitrary `f64` bit patterns, NaNs and infinities included.
fn float_bits() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

proptest! {
    #[test]
    fn scalars_round_trip_bit_exactly(
        raw in bytes(64),
        ints in proptest::collection::vec(0u64..=u64::MAX, 0..16),
        floats in proptest::collection::vec(float_bits(), 0..16),
    ) {
        let mut e = Encoder::default();
        e.put_len(raw.len());
        raw.iter().for_each(|&b| e.put_u8(b));
        e.put_len(ints.len());
        for &v in &ints {
            e.put_u64(v);
        }
        e.put_len(floats.len());
        e.put_f64_slice(&floats);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let n = d.take_len(1).unwrap();
        prop_assert_eq!(d.take_bytes(n).unwrap(), &raw[..]);
        let n = d.take_len(8).unwrap();
        prop_assert_eq!(n, ints.len());
        for &v in &ints {
            prop_assert_eq!(d.take_u64().unwrap(), v);
        }
        let n = d.take_len(8).unwrap();
        prop_assert_eq!(n, floats.len());
        for (got, &v) in d.take_f64_vec(n).unwrap().iter().zip(&floats) {
            // Bits, not values: NaN payloads and -0.0 must survive.
            prop_assert_eq!(got.to_bits(), v.to_bits());
        }
        d.expect_empty().unwrap();
    }

    #[test]
    fn container_round_trips_any_payload(
        payload in bytes(256),
        key in 0u64..=u64::MAX,
    ) {
        let encoded = encode_container(SCHEMA_VERSION, key, &payload);
        let decoded = decode_container(SCHEMA_VERSION, key, &encoded).unwrap();
        prop_assert_eq!(decoded, &payload[..]);
    }

    #[test]
    fn truncated_containers_never_decode(
        payload in bytes(128),
        key in 0u64..=u64::MAX,
        cut in 0u16..=u16::MAX,
    ) {
        let encoded = encode_container(SCHEMA_VERSION, key, &payload);
        let keep = (cut as usize) % encoded.len();
        prop_assert!(decode_container(SCHEMA_VERSION, key, &encoded[..keep]).is_err());
    }

    #[test]
    fn flipped_bytes_never_decode(
        payload in bytes(128),
        key in 0u64..=u64::MAX,
        pos in 0u16..=u16::MAX,
        flip in 1u8..=255,
    ) {
        let mut encoded = encode_container(SCHEMA_VERSION, key, &payload);
        let i = (pos as usize) % encoded.len();
        encoded[i] ^= flip;
        // Every single-byte corruption is caught: header fields by
        // their own checks, payload bytes by the trailing checksum.
        prop_assert!(decode_container(SCHEMA_VERSION, key, &encoded).is_err());
    }

    #[test]
    fn bumped_schema_is_a_schema_mismatch(
        payload in bytes(64),
        key in 0u64..=u64::MAX,
        bump in 1u32..=u32::MAX,
    ) {
        let written = SCHEMA_VERSION.wrapping_add(bump);
        let encoded = encode_container(written, key, &payload);
        match decode_container(SCHEMA_VERSION, key, &encoded) {
            Err(ContainerError::SchemaMismatch { found, expected }) => {
                prop_assert_eq!(found, written);
                prop_assert_eq!(expected, SCHEMA_VERSION);
            }
            other => prop_assert!(false, "expected schema mismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_key_is_a_key_mismatch(
        payload in bytes(64),
        key in 0u64..=u64::MAX,
        bit in 0u32..64,
    ) {
        // Flip one key bit so the two keys always differ.
        let other_key = key ^ (1u64 << bit);
        let encoded = encode_container(SCHEMA_VERSION, key, &payload);
        match decode_container(SCHEMA_VERSION, other_key, &encoded) {
            Err(ContainerError::KeyMismatch { found, expected }) => {
                prop_assert_eq!(found, key);
                prop_assert_eq!(expected, other_key);
            }
            other => prop_assert!(false, "expected key mismatch, got {other:?}"),
        }
    }

    #[test]
    fn columnar_sweep_round_trips_any_grid(
        beamspreads in proptest::collection::vec(1u32..=100, 0..6),
        n_o in 0usize..5,
        cells in proptest::collection::vec(float_bits(), 0..30),
    ) {
        // Shape the flat cells into an n_b × n_o grid (truncating or
        // padding with 0.0 keeps the strategy simple).
        let n_b = beamspreads.len();
        let oversubs: Vec<u32> = (1..=n_o as u32).map(|o| o * 10).collect();
        let fraction: Vec<Vec<f64>> = (0..n_b)
            .map(|b| {
                (0..n_o)
                    .map(|o| cells.get(b * n_o + o).copied().unwrap_or(0.0))
                    .collect()
            })
            .collect();
        let s = CoverageSweep { beamspreads, oversubs, fraction };
        let decoded = decode_sweep(&encode_sweep(&s)).unwrap();
        prop_assert_eq!(&decoded.beamspreads, &s.beamspreads);
        prop_assert_eq!(&decoded.oversubs, &s.oversubs);
        prop_assert_eq!(decoded.fraction.len(), s.fraction.len());
        for (ra, rb) in decoded.fraction.iter().zip(s.fraction.iter()) {
            prop_assert_eq!(ra.len(), rb.len());
            for (a, b) in ra.iter().zip(rb.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn truncated_sweep_payloads_never_decode(
        beamspreads in proptest::collection::vec(1u32..=100, 1..5),
        fracs in proptest::collection::vec(float_bits(), 3..12),
        cut_sel in 0u16..=u16::MAX,
    ) {
        let n_o = 3usize;
        let n_b = beamspreads.len();
        let fraction: Vec<Vec<f64>> = (0..n_b)
            .map(|b| {
                (0..n_o)
                    .map(|o| fracs.get((b * n_o + o) % fracs.len()).copied().unwrap_or(0.5))
                    .collect()
            })
            .collect();
        let oversubs = vec![10, 20, 30];
        let payload = encode_sweep(&CoverageSweep { beamspreads, oversubs, fraction });
        let cut = (cut_sel as usize) % payload.len();
        prop_assert!(decode_sweep(&payload[..cut]).is_err());
    }

    #[test]
    fn columnar_dataset_round_trips_mutated_value_columns(
        // Bounded so the dataset's total-locations fold cannot
        // overflow u64 across the few hundred small-scale cells.
        locs in proptest::collection::vec(0u64..=(1u64 << 50), 8),
        incomes in proptest::collection::vec(20_000.0f64..250_000.0, 8),
    ) {
        // Structural columns (cell ids, centers, county links) come
        // from a real generated dataset; the value columns are fuzzed,
        // exercising the codec across a wide count and income space
        // rather than only calibrated values.
        let base = base_dataset();
        let mut cols = base.cols.clone();
        for (i, slot) in cols.locations.iter_mut().enumerate() {
            *slot = locs[i % locs.len()] + i as u64;
        }
        let mut counties = base.counties.clone();
        for (i, c) in counties.iter_mut().enumerate() {
            c.median_income_usd = incomes[i % incomes.len()];
        }
        let ds = BroadbandDataset::from_columns(
            leo_hexgrid::GeoHexGrid::starlink(),
            base.cells.clone(),
            cols,
            base.us_cell_count,
            counties,
        );
        let decoded = decode_dataset(&encode_dataset(&ds)).unwrap();
        prop_assert_eq!(decoded.us_cell_count, ds.us_cell_count);
        prop_assert_eq!(decoded.total_locations, ds.total_locations);
        prop_assert_eq!(&decoded.cells, &ds.cells);
        prop_assert_eq!(&decoded.cols.locations, &ds.cols.locations);
        prop_assert_eq!(&decoded.cols.county, &ds.cols.county);
        for (a, b) in decoded.cols.lat_deg.iter().zip(ds.cols.lat_deg.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in decoded.cols.lng_deg.iter().zip(ds.cols.lng_deg.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in decoded.counties.iter().zip(ds.counties.iter()) {
            prop_assert_eq!(a.median_income_usd.to_bits(), b.median_income_usd.to_bits());
            prop_assert_eq!(a.locations, b.locations);
        }
        prop_assert_eq!(decoded.sorted_counts(), ds.sorted_counts());
    }

    #[test]
    fn hasher_streaming_matches_one_shot(
        a in bytes(64),
        b in bytes(64),
    ) {
        // Hashing two chunks equals hashing their concatenation.
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let mut h = leo_cache::KeyHasher::new();
        h.write_bytes(&a);
        h.write_bytes(&b);
        prop_assert_eq!(h.finish(), fnv1a64(&joined));
    }
}

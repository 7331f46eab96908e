//! Domain snapshots: the generated dataset and the Fig 2 sweep rows.
//!
//! ## Payload layouts (schema v2, columnar)
//!
//! Payloads are sequences of **column blocks**: a `u64` element count
//! followed by the elements as contiguous little-endian words. Every
//! block starts 8-byte aligned within the payload (the one 4-byte-wide
//! column, the county ids, is zero-padded up to the next 8-byte
//! boundary), so encode and decode are bulk `Vec` copies instead of the
//! v1 per-record field loops.
//!
//! **`dataset`** — `us_cell_count` and `n_cells`, then the five cell
//! columns (`cell id` u64, `locations` u64, `lat` f64, `lng` f64,
//! `county` u32 + pad) mirroring
//! [`DatasetColumns`](leo_demand::dataset::DatasetColumns); then
//! `n_counties` and the five county columns (`seat lat`, `seat lng`,
//! `income`, `locations`, `remoteness`); then the pre-sorted per-cell
//! count view so a warm run skips even the Fig 1 sort. Cell centers are
//! *stored* rather than recomputed: v1's per-cell
//! `GeoHexGrid::cell_center` calls were ~20k projection evaluations
//! that dominated warm decode, and the stored canonical degrees
//! reconstitute the identical bits for ~320 KB more file.
//!
//! **`fig2`** — both axis columns (u32 + pad) and the fraction grid as
//! one row-major f64 column.
//!
//! Each column's length prefix must agree with the header counts;
//! mismatches, truncation, out-of-range coordinates, and nonzero
//! padding all decode to a typed error and regenerate. v1 containers
//! fail closed earlier, at the container's schema check.
//!
//! ## Keys
//!
//! [`dataset_key`] digests the codec schema version, the workspace
//! crate version, and every field of
//! [`SynthConfig`](leo_demand::dataset::SynthConfig) — seed, county
//! count, calibration total, the quantile-curve anchors, and the
//! pinned anchor cells. [`sweep_key`] additionally digests the
//! capacity model's beam plan and the sweep axes, and chains the
//! dataset key so a different dataset can never serve stale sweep rows.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::key::KeyHasher;
use crate::store::{SnapshotStore, SCHEMA_VERSION};
use leo_demand::counties::County;
use leo_demand::dataset::{BroadbandDataset, DatasetColumns, SynthConfig};
use leo_geomath::LatLng;
use leo_hexgrid::{CellId, GeoHexGrid};
use starlink_divide::coverage_sweep::{self, CoverageSweep};
use starlink_divide::PaperModel;
use std::path::PathBuf;

/// Snapshot kind for the generated dataset.
pub const DATASET_KIND: &str = "dataset";
/// Snapshot kind for the Fig 2 coverage-sweep grid.
pub const FIG2_KIND: &str = "fig2";

/// The content key of a dataset snapshot: a structural hash of
/// everything generation depends on. Any change to the config, the
/// payload schema, or the crate version changes the key — and with it
/// the snapshot's filename.
pub fn dataset_key(cfg: &SynthConfig) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("leo-cache/dataset");
    h.write_u32(SCHEMA_VERSION);
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_u64(cfg.seed);
    h.write_u64(cfg.n_counties as u64);
    h.write_u64(cfg.calibration.total_locations);
    let curve = cfg.calibration.curve.anchors();
    h.write_u64(curve.len() as u64);
    for &(u, v) in curve {
        h.write_f64(u);
        h.write_f64(v);
    }
    h.write_u64(cfg.calibration.anchors.len() as u64);
    for a in &cfg.calibration.anchors {
        h.write_u64(a.count);
        h.write_f64(a.lat);
        h.write_f64(a.lng);
    }
    h.finish()
}

/// The content key of a Fig 2 sweep snapshot: the dataset key chained
/// with the capacity model's beam plan and the sweep axes.
pub fn sweep_key(cfg: &SynthConfig, model: &PaperModel) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("leo-cache/fig2");
    h.write_u64(dataset_key(cfg));
    h.write_f64(model.capacity.max_cell_capacity_gbps());
    h.write_f64(model.capacity.beam_capacity_gbps());
    h.write_u32(model.capacity.ut_beams());
    h.write_u32(model.capacity.total_beams());
    let (beamspreads, oversubs) = coverage_sweep::default_axes();
    h.write_u64(beamspreads.len() as u64);
    for b in beamspreads {
        h.write_u32(b);
    }
    h.write_u64(oversubs.len() as u64);
    for o in oversubs {
        h.write_u32(o);
    }
    h.finish()
}

/// Zero padding inserted after a 4-byte-wide column so the next block
/// starts 8-byte aligned within the payload.
fn align_pad(column_bytes: usize) -> usize {
    (8 - column_bytes % 8) % 8
}

fn put_align_pad(e: &mut Encoder, column_bytes: usize) {
    for _ in 0..align_pad(column_bytes) {
        e.put_u8(0);
    }
}

fn take_align_pad(d: &mut Decoder<'_>, column_bytes: usize) -> Result<(), DecodeError> {
    let pad = d.take_bytes(align_pad(column_bytes))?;
    if pad.iter().any(|&b| b != 0) {
        return Err(DecodeError::Invalid("nonzero column padding"));
    }
    Ok(())
}

/// Reads a column's length prefix and checks it against the header's
/// element count — a mismatched column cannot silently shear the
/// parallel vectors out of step.
fn take_column_len(
    d: &mut Decoder<'_>,
    expected: usize,
    min_elem_bytes: usize,
) -> Result<(), DecodeError> {
    let len = d.take_len(min_elem_bytes)?;
    if len != expected {
        return Err(DecodeError::Invalid("column length mismatch"));
    }
    Ok(())
}

/// Encodes a dataset into the schema-v2 columnar payload.
pub fn encode_dataset(ds: &BroadbandDataset) -> Vec<u8> {
    let cols = &ds.cols;
    let n = cols.len();
    let nc = ds.counties.len();
    // Header + five cell columns (36 B/cell + prefixes) + five county
    // columns + the sorted-count column.
    let estimate = 16 + 5 * 8 + n * 36 + 8 + 6 * 8 + nc * 40 + 8 + n * 8 + 16;
    let mut e = Encoder::with_capacity(estimate);
    e.put_len(ds.us_cell_count);
    e.put_len(n);
    e.put_len(n);
    // One transient u64 view of the ids; every other column is written
    // straight from the dataset's resident columns.
    let ids: Vec<u64> = cols.cell.iter().map(|c| c.as_u64()).collect();
    e.put_u64_slice(&ids);
    e.put_len(n);
    e.put_u64_slice(&cols.locations);
    e.put_len(n);
    e.put_f64_slice(&cols.lat_deg);
    e.put_len(n);
    e.put_f64_slice(&cols.lng_deg);
    e.put_len(n);
    e.put_u32_slice(&cols.county);
    put_align_pad(&mut e, n * 4);
    e.put_len(nc);
    let mut scratch_f = Vec::with_capacity(nc);
    scratch_f.extend(ds.counties.iter().map(|c| c.seat.lat_deg()));
    e.put_len(nc);
    e.put_f64_slice(&scratch_f);
    scratch_f.clear();
    scratch_f.extend(ds.counties.iter().map(|c| c.seat.lng_deg()));
    e.put_len(nc);
    e.put_f64_slice(&scratch_f);
    scratch_f.clear();
    scratch_f.extend(ds.counties.iter().map(|c| c.median_income_usd));
    e.put_len(nc);
    e.put_f64_slice(&scratch_f);
    let county_locations: Vec<u64> = ds.counties.iter().map(|c| c.locations).collect();
    e.put_len(nc);
    e.put_u64_slice(&county_locations);
    scratch_f.clear();
    scratch_f.extend(ds.counties.iter().map(|c| c.remoteness_km));
    e.put_len(nc);
    e.put_f64_slice(&scratch_f);
    let sorted = ds.sorted_counts();
    e.put_len(sorted.len());
    e.put_u64_slice(&sorted);
    e.finish()
}

/// Decodes a schema-v2 columnar dataset payload. The grid is rebuilt
/// from its fixed construction (`GeoHexGrid::starlink`); cell centers
/// are *not* recomputed — the stored canonical degrees are validated
/// and reconstituted bit-for-bit, so decode is a handful of bulk column
/// reads plus one row-major materialization pass.
pub fn decode_dataset(payload: &[u8]) -> Result<BroadbandDataset, DecodeError> {
    let mut d = Decoder::new(payload);
    let grid = GeoHexGrid::starlink();
    // A bare count, not a sequence length — no elements follow it.
    let us_cell_count = usize::try_from(d.take_u64()?)
        .map_err(|_| DecodeError::Invalid("us_cell_count overflows"))?;
    let n_cells = d.take_len(36)?;
    take_column_len(&mut d, n_cells, 8)?;
    let ids = d.take_u64_vec(n_cells)?;
    let mut cell = Vec::with_capacity(n_cells);
    for raw in ids {
        cell.push(CellId::from_u64(raw).ok_or(DecodeError::Invalid("bad cell id"))?);
    }
    take_column_len(&mut d, n_cells, 8)?;
    let locations = d.take_u64_vec(n_cells)?;
    take_column_len(&mut d, n_cells, 8)?;
    let lat_deg = d.take_f64_vec(n_cells)?;
    take_column_len(&mut d, n_cells, 8)?;
    let lng_deg = d.take_f64_vec(n_cells)?;
    if lat_deg
        .iter()
        .zip(lng_deg.iter())
        .any(|(&lat, &lng)| !((-90.0..=90.0).contains(&lat) && (-180.0..180.0).contains(&lng)))
    {
        return Err(DecodeError::Invalid("cell center out of range"));
    }
    take_column_len(&mut d, n_cells, 4)?;
    let county = d.take_u32_vec(n_cells)?;
    take_align_pad(&mut d, n_cells * 4)?;
    let n_counties = d.take_len(40)?;
    take_column_len(&mut d, n_counties, 8)?;
    let seat_lat = d.take_f64_vec(n_counties)?;
    take_column_len(&mut d, n_counties, 8)?;
    let seat_lng = d.take_f64_vec(n_counties)?;
    if seat_lat
        .iter()
        .zip(seat_lng.iter())
        .any(|(&lat, &lng)| !((-90.0..=90.0).contains(&lat) && (-180.0..180.0).contains(&lng)))
    {
        return Err(DecodeError::Invalid("county seat out of range"));
    }
    take_column_len(&mut d, n_counties, 8)?;
    let incomes = d.take_f64_vec(n_counties)?;
    take_column_len(&mut d, n_counties, 8)?;
    let county_locations = d.take_u64_vec(n_counties)?;
    take_column_len(&mut d, n_counties, 8)?;
    let remoteness = d.take_f64_vec(n_counties)?;
    let mut counties = Vec::with_capacity(n_counties);
    for i in 0..n_counties {
        counties.push(County {
            id: i as u32,
            seat: LatLng::from_canonical_degrees(seat_lat[i], seat_lng[i]),
            median_income_usd: incomes[i],
            locations: county_locations[i],
            remoteness_km: remoteness[i],
        });
    }
    let n_sorted = d.take_len(8)?;
    if n_sorted != n_cells {
        return Err(DecodeError::Invalid("sorted-count length != cell count"));
    }
    let sorted = d.take_u64_vec(n_sorted)?;
    if sorted.windows(2).any(|w| w[0] > w[1]) {
        return Err(DecodeError::Invalid("sorted counts not ascending"));
    }
    d.expect_empty()?;
    let cols = DatasetColumns {
        cell,
        lat_deg,
        lng_deg,
        locations,
        county,
    };
    let ds = BroadbandDataset::from_columns(grid, cols, us_cell_count, counties);
    ds.prime_sorted_counts(sorted);
    Ok(ds)
}

/// Encodes a coverage sweep into the schema-v2 columnar payload.
pub fn encode_sweep(s: &CoverageSweep) -> Vec<u8> {
    let n_b = s.beamspreads.len();
    let n_o = s.oversubs.len();
    let cells = n_b * n_o;
    let mut e = Encoder::with_capacity(5 * 8 + (n_b + n_o) * 4 + 16 + cells * 8);
    e.put_len(n_b);
    e.put_u32_slice(&s.beamspreads);
    put_align_pad(&mut e, n_b * 4);
    e.put_len(n_o);
    e.put_u32_slice(&s.oversubs);
    put_align_pad(&mut e, n_o * 4);
    // The grid as one row-major f64 column.
    e.put_len(cells);
    for row in &s.fraction {
        e.put_f64_slice(row);
    }
    e.finish()
}

/// Decodes a schema-v2 columnar coverage-sweep payload.
pub fn decode_sweep(payload: &[u8]) -> Result<CoverageSweep, DecodeError> {
    let mut d = Decoder::new(payload);
    let n_b = d.take_len(4)?;
    let beamspreads = d.take_u32_vec(n_b)?;
    take_align_pad(&mut d, n_b * 4)?;
    let n_o = d.take_len(4)?;
    let oversubs = d.take_u32_vec(n_o)?;
    take_align_pad(&mut d, n_o * 4)?;
    let cells = n_b
        .checked_mul(n_o)
        .ok_or(DecodeError::Invalid("fraction grid exceeds input"))?;
    take_column_len(&mut d, cells, 8)?;
    let flat = d.take_f64_vec(cells)?;
    d.expect_empty()?;
    let fraction: Vec<Vec<f64>> = if n_o == 0 {
        vec![Vec::new(); n_b]
    } else {
        flat.chunks_exact(n_o).map(|r| r.to_vec()).collect()
    };
    Ok(CoverageSweep {
        beamspreads,
        oversubs,
        fraction,
    })
}

/// The high-level cache the CLI drives: load-or-generate for the
/// dataset and the Fig 2 sweep, over one [`SnapshotStore`].
#[derive(Debug, Clone)]
pub struct DatasetCache {
    store: SnapshotStore,
}

impl DatasetCache {
    /// A cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DatasetCache {
            store: SnapshotStore::new(dir),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Loads the dataset for `cfg` from a warm snapshot, or generates
    /// and persists it. A warm load never runs the generator (no
    /// `demand.generate` span appears); any verification or decode
    /// failure silently falls back to generation.
    pub fn load_or_generate(&self, cfg: &SynthConfig) -> BroadbandDataset {
        let key = dataset_key(cfg);
        // Zero-copy: decode borrows the payload straight from the
        // container's read buffer.
        if let Some(loaded) = self.store.load_payload(DATASET_KIND, key, SCHEMA_VERSION) {
            let _span = leo_obs::span!("cache.decode");
            match decode_dataset(loaded.payload()) {
                Ok(ds) => return ds,
                Err(e) => {
                    leo_obs::log_warn!(
                        "cache: dataset snapshot {key:016x} undecodable ({e}); regenerating"
                    );
                    leo_obs::metrics::counter_add("cache.invalid", 1);
                    leo_obs::trace::instant("cache.invalid");
                }
            }
        }
        let ds = BroadbandDataset::generate(cfg);
        let payload = {
            let _span = leo_obs::span!("cache.encode");
            encode_dataset(&ds)
        };
        self.store.save(DATASET_KIND, key, SCHEMA_VERSION, &payload);
        ds
    }

    /// Loads the Fig 2 sweep from a warm snapshot, or computes and
    /// persists it. `model` must be built over the dataset `cfg`
    /// describes (the key chains both).
    pub fn sweep(&self, cfg: &SynthConfig, model: &PaperModel) -> CoverageSweep {
        let key = sweep_key(cfg, model);
        if let Some(loaded) = self.store.load_payload(FIG2_KIND, key, SCHEMA_VERSION) {
            match decode_sweep(loaded.payload()) {
                Ok(s) => return s,
                Err(e) => {
                    leo_obs::log_warn!(
                        "cache: fig2 snapshot {key:016x} undecodable ({e}); regenerating"
                    );
                    leo_obs::metrics::counter_add("cache.invalid", 1);
                    leo_obs::trace::instant("cache.invalid");
                }
            }
        }
        let s = coverage_sweep::sweep(model);
        self.store
            .save(FIG2_KIND, key, SCHEMA_VERSION, &encode_sweep(&s));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leo_cache_snap_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn assert_datasets_bit_equal(a: &BroadbandDataset, b: &BroadbandDataset) {
        assert_eq!(a.us_cell_count, b.us_cell_count);
        assert_eq!(a.total_locations, b.total_locations);
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(b.cells.iter()) {
            assert_eq!(x.cell, y.cell);
            assert_eq!(x.locations, y.locations);
            assert_eq!(x.county, y.county);
            assert_eq!(x.center.lat_deg().to_bits(), y.center.lat_deg().to_bits());
            assert_eq!(x.center.lng_deg().to_bits(), y.center.lng_deg().to_bits());
        }
        assert_eq!(a.counties.len(), b.counties.len());
        for (x, y) in a.counties.iter().zip(b.counties.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.seat.lat_deg().to_bits(), y.seat.lat_deg().to_bits());
            assert_eq!(x.seat.lng_deg().to_bits(), y.seat.lng_deg().to_bits());
            assert_eq!(x.median_income_usd.to_bits(), y.median_income_usd.to_bits());
            assert_eq!(x.locations, y.locations);
            assert_eq!(x.remoteness_km.to_bits(), y.remoteness_km.to_bits());
        }
        assert_eq!(*a.sorted_counts(), *b.sorted_counts());
    }

    #[test]
    fn dataset_round_trips_bit_exactly() {
        let ds = BroadbandDataset::generate(&SynthConfig::small());
        let decoded = decode_dataset(&encode_dataset(&ds)).expect("decode");
        assert_datasets_bit_equal(&ds, &decoded);
    }

    #[test]
    fn load_or_generate_is_warm_on_second_call() {
        let dir = tmp_dir("warm");
        let cache = DatasetCache::new(&dir);
        let cfg = SynthConfig::small();
        let cold = cache.load_or_generate(&cfg);
        assert!(cache
            .store()
            .path_for(DATASET_KIND, dataset_key(&cfg))
            .exists());
        let warm = cache.load_or_generate(&cfg);
        assert_datasets_bit_equal(&cold, &warm);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_regenerates_identically() {
        let dir = tmp_dir("corrupt");
        let cache = DatasetCache::new(&dir);
        let cfg = SynthConfig::small();
        let cold = cache.load_or_generate(&cfg);
        let path = cache.store().path_for(DATASET_KIND, dataset_key(&cfg));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let regen = cache.load_or_generate(&cfg);
        assert_datasets_bit_equal(&cold, &regen);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_configs_have_different_keys() {
        let small = SynthConfig::small();
        let paper = SynthConfig::paper();
        assert_ne!(dataset_key(&small), dataset_key(&paper));
        let mut reseeded = SynthConfig::small();
        reseeded.seed = 8;
        assert_ne!(dataset_key(&small), dataset_key(&reseeded));
        let mut recounted = SynthConfig::small();
        recounted.n_counties += 1;
        assert_ne!(dataset_key(&small), dataset_key(&recounted));
    }

    #[test]
    fn sweep_round_trips_and_caches() {
        let dir = tmp_dir("sweep");
        let cache = DatasetCache::new(&dir);
        let cfg = SynthConfig::small();
        let model = PaperModel::new(cache.load_or_generate(&cfg));
        let cold = cache.sweep(&cfg, &model);
        let warm = cache.sweep(&cfg, &model);
        assert_eq!(cold.beamspreads, warm.beamspreads);
        assert_eq!(cold.oversubs, warm.oversubs);
        for (ra, rb) in cold.fraction.iter().zip(warm.fraction.iter()) {
            for (a, b) in ra.iter().zip(rb.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_dataset_payloads_error_instead_of_panicking() {
        let ds = BroadbandDataset::generate(&SynthConfig::small());
        let payload = encode_dataset(&ds);
        assert!(decode_dataset(&payload).is_ok());
        // Dense sweep over the header and first column, then a coarse
        // stride across the rest: every strict prefix must be a typed
        // error, never a panic or a silent partial dataset.
        let cuts = (0..payload.len().min(256))
            .chain((256..payload.len()).step_by(17))
            .chain(payload.len().saturating_sub(16)..payload.len());
        for cut in cuts {
            assert!(
                decode_dataset(&payload[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn dataset_column_length_mismatch_is_rejected() {
        let ds = BroadbandDataset::generate(&SynthConfig::small());
        let payload = encode_dataset(&ds);
        let n = ds.cols.len() as u64;
        // The cell-id column's length prefix sits right after the
        // us_cell_count and n_cells header words.
        let mut sheared = payload.clone();
        sheared[16..24].copy_from_slice(&(n + 1).to_le_bytes());
        match decode_dataset(&sheared) {
            Err(e) => assert!(
                e.to_string().contains("column length mismatch"),
                "unexpected error: {e}"
            ),
            Ok(_) => panic!("sheared cell-id column decoded"),
        }
    }

    #[test]
    fn sweep_column_length_mismatch_is_rejected() {
        let s = CoverageSweep {
            beamspreads: vec![1, 2, 3],
            oversubs: vec![10, 20],
            fraction: vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 1.0]],
        };
        let mut payload = encode_sweep(&s);
        // Layout: n_b(8) + 3×u32 + 4 pad + n_o(8) + 2×u32 + 0 pad puts
        // the fraction-grid length prefix at byte 40. A *smaller* wrong
        // length exercises the explicit cross-check (a larger one would
        // trip the remaining-input guard first).
        payload[40..48].copy_from_slice(&5u64.to_le_bytes());
        match decode_sweep(&payload) {
            Err(e) => assert!(
                e.to_string().contains("column length mismatch"),
                "unexpected error: {e}"
            ),
            Ok(_) => panic!("sheared fraction grid decoded"),
        }
    }

    #[test]
    fn nonzero_column_padding_is_rejected() {
        let s = CoverageSweep {
            beamspreads: vec![1, 2, 3],
            oversubs: vec![10, 20],
            fraction: vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 1.0]],
        };
        let mut payload = encode_sweep(&s);
        // The beamspread column (3×u32 = 12 bytes, starting at 8) is
        // followed by 4 pad bytes at 20..24.
        payload[21] = 0x5A;
        match decode_sweep(&payload) {
            Err(e) => assert!(
                e.to_string().contains("nonzero column padding"),
                "unexpected error: {e}"
            ),
            Ok(_) => panic!("dirty padding decoded"),
        }
    }

    #[test]
    fn v1_schema_container_on_disk_invalidates_and_regenerates() {
        let dir = tmp_dir("v1schema");
        let cache = DatasetCache::new(&dir);
        let cfg = SynthConfig::small();
        let cold = cache.load_or_generate(&cfg);
        let key = dataset_key(&cfg);
        // Simulate a snapshot left by a pre-columnar build: same key
        // path, container schema field = 1. The address never changes
        // with the schema *file-name-wise* — only the key hash does —
        // so fail-closed at the container check is the real guard.
        cache
            .store()
            .save(DATASET_KIND, key, 1, &encode_dataset(&cold));
        let invalid0 = leo_obs::metrics::counter_value("cache.invalid");
        let regen = cache.load_or_generate(&cfg);
        // `>`: other tests in this binary also exercise invalidation
        // concurrently; the process-global counter only ever grows.
        assert!(
            leo_obs::metrics::counter_value("cache.invalid") > invalid0,
            "schema-v1 container must count as cache.invalid"
        );
        assert_datasets_bit_equal(&cold, &regen);
        // The regeneration re-saved a v2 container: the next load is a
        // clean hit again.
        assert!(cache
            .store()
            .load_payload(DATASET_KIND, key, SCHEMA_VERSION)
            .is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_payload_round_trips() {
        let s = CoverageSweep {
            beamspreads: vec![1, 2, 3],
            oversubs: vec![10, 20],
            fraction: vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 1.0]],
        };
        let decoded = decode_sweep(&encode_sweep(&s)).expect("decode");
        assert_eq!(decoded.beamspreads, s.beamspreads);
        assert_eq!(decoded.oversubs, s.oversubs);
        for (ra, rb) in decoded.fraction.iter().zip(s.fraction.iter()) {
            for (a, b) in ra.iter().zip(rb.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

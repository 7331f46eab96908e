//! The on-disk snapshot container and store.
//!
//! ## File layout
//!
//! Snapshots are content-addressed: `<dir>/<kind>-<key:016x>.snap`,
//! where `kind` names the payload type (`dataset`, `fig2`) and `key`
//! is the structural hash of everything the payload depends on (see
//! [`crate::snapshot`]). A config change produces a *different
//! filename*, so stale snapshots are never even opened — they age out
//! rather than get invalidated in place.
//!
//! Each file is a self-verifying container:
//!
//! ```text
//! magic (8 B, "LEOSNAP\0") | container version (u32) | schema (u32)
//! | key echo (u64) | payload length (u64) | payload | FNV-1a64(payload)
//! ```
//!
//! [`decode_container`] rejects anything unexpected — wrong magic,
//! wrong container or schema version, key echo that doesn't match the
//! requested key (e.g. a renamed file), short payload, or checksum
//! mismatch (corruption / bit flips). The store turns every rejection
//! into a `log_warn!` + `None`, which callers answer by regenerating;
//! a snapshot is never trusted and never causes a panic.
//!
//! Writes are best-effort and atomic-ish: payload goes to a
//! process-unique `.tmp` file first, then renames over the final path,
//! so a crashed writer can't leave a half-written `.snap` behind and
//! concurrent `divide` processes can't observe each other's partial
//! writes. A failed write warns and moves on — caching is an
//! optimization, never a correctness dependency.

use crate::key::fnv1a64;
use std::fmt;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Container format version. Bump when the *container framing* (not
/// the payload layout) changes.
pub const CONTAINER_VERSION: u32 = 1;

/// Payload schema version. Bump on **any** change to how
/// [`crate::snapshot`] lays out a payload; it participates in both the
/// container header and every content key, so old snapshots are doubly
/// unreachable. v2 switched the payloads from per-record field loops
/// to length-prefixed, 8-byte-aligned column blocks (bulk reads on
/// decode); v1 containers fail closed through `cache.invalid` →
/// regenerate.
pub const SCHEMA_VERSION: u32 = 2;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"LEOSNAP\0";

/// Why a container was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The file doesn't start with [`MAGIC`] (not a snapshot at all).
    BadMagic,
    /// Container framing version differs from [`CONTAINER_VERSION`].
    ContainerVersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// Payload schema version differs from the expected schema.
    SchemaMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The key recorded in the file is not the key that was requested.
    KeyMismatch {
        /// Key found in the file.
        found: u64,
        /// Key derived from the current config.
        expected: u64,
    },
    /// The file is shorter than its header claims.
    Truncated,
    /// The payload checksum doesn't match (bit rot, partial write).
    ChecksumMismatch {
        /// Checksum recorded in the file.
        found: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "bad magic (not a snapshot file)"),
            ContainerError::ContainerVersionMismatch { found } => {
                write!(f, "container version {found} != {CONTAINER_VERSION}")
            }
            ContainerError::SchemaMismatch { found, expected } => {
                write!(f, "schema version {found} != expected {expected}")
            }
            ContainerError::KeyMismatch { found, expected } => {
                write!(f, "key {found:016x} != expected {expected:016x}")
            }
            ContainerError::Truncated => write!(f, "file shorter than header claims"),
            ContainerError::ChecksumMismatch { found, computed } => {
                write!(f, "checksum {found:016x} != computed {computed:016x}")
            }
        }
    }
}

impl std::error::Error for ContainerError {}

/// Wraps a payload in the self-verifying container format.
pub fn encode_container(schema: u32, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + 4 + 8 + 8 + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    out.extend_from_slice(&schema.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

/// Verifies a container against the expected schema and key and
/// returns the payload slice. Every failure mode is a typed error —
/// callers log and regenerate.
pub fn decode_container(
    expected_schema: u32,
    expected_key: u64,
    bytes: &[u8],
) -> Result<&[u8], ContainerError> {
    decode_container_span(expected_schema, expected_key, bytes)
        .map(|(start, end)| &bytes[start..end])
}

/// [`decode_container`], but returning the payload's byte span inside
/// the container instead of a borrowed slice — the building block of
/// the zero-copy load path, where the caller keeps the whole file
/// buffer alive and decodes straight out of it.
pub fn decode_container_span(
    expected_schema: u32,
    expected_key: u64,
    bytes: &[u8],
) -> Result<(usize, usize), ContainerError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let mut at = MAGIC.len();
    let container = read_u32(bytes, at).ok_or(ContainerError::Truncated)?;
    if container != CONTAINER_VERSION {
        return Err(ContainerError::ContainerVersionMismatch { found: container });
    }
    at += 4;
    let schema = read_u32(bytes, at).ok_or(ContainerError::Truncated)?;
    if schema != expected_schema {
        return Err(ContainerError::SchemaMismatch {
            found: schema,
            expected: expected_schema,
        });
    }
    at += 4;
    let key = read_u64(bytes, at).ok_or(ContainerError::Truncated)?;
    if key != expected_key {
        return Err(ContainerError::KeyMismatch {
            found: key,
            expected: expected_key,
        });
    }
    at += 8;
    let len = read_u64(bytes, at).ok_or(ContainerError::Truncated)? as usize;
    at += 8;
    let end = at.checked_add(len).ok_or(ContainerError::Truncated)?;
    if bytes.len() < end + 8 {
        return Err(ContainerError::Truncated);
    }
    let payload = &bytes[at..end];
    let found = read_u64(bytes, end).ok_or(ContainerError::Truncated)?;
    let computed = fnv1a64(payload);
    if found != computed {
        return Err(ContainerError::ChecksumMismatch { found, computed });
    }
    Ok((at, end))
}

/// A verified snapshot payload, borrowed in place from the container
/// file's read buffer. Warm loads used to copy the ~700 KB payload out
/// with `to_vec`; holding the whole container plus the payload span
/// lets decoders read straight from the file bytes instead.
#[derive(Debug)]
pub struct LoadedPayload {
    bytes: Vec<u8>,
    start: usize,
    end: usize,
}

impl LoadedPayload {
    /// The verified payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[self.start..self.end]
    }
}

/// A directory of content-addressed snapshot files.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SnapshotStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content address of a `(kind, key)` snapshot.
    pub fn path_for(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{key:016x}.snap"))
    }

    /// Loads and verifies a snapshot payload as an owned copy. Prefer
    /// [`SnapshotStore::load_payload`] on hot paths — it skips the
    /// payload copy.
    pub fn load(&self, kind: &str, key: u64, schema: u32) -> Option<Vec<u8>> {
        self.load_payload(kind, key, schema)
            .map(|p| p.payload().to_vec())
    }

    /// Loads and verifies a snapshot payload zero-copy: the returned
    /// [`LoadedPayload`] keeps the container's read buffer and exposes
    /// the verified payload as a borrowed slice. `None` means
    /// "regenerate" — whether because the file is absent (`cache.miss`)
    /// or failed verification (`cache.invalid` + a warning). Never
    /// panics.
    pub fn load_payload(&self, kind: &str, key: u64, schema: u32) -> Option<LoadedPayload> {
        let path = self.path_for(kind, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                leo_obs::metrics::counter_add("cache.miss", 1);
                leo_obs::trace::instant("cache.miss");
                return None;
            }
            Err(e) => {
                leo_obs::log_warn!("cache: cannot read {}: {e}; regenerating", path.display());
                leo_obs::metrics::counter_add("cache.miss", 1);
                leo_obs::trace::instant("cache.miss");
                return None;
            }
        };
        // The io.* family counts physical file traffic (container
        // bytes, i.e. what actually crossed the filesystem), while the
        // cache.* counters keep their original payload semantics.
        leo_obs::metrics::counter_add("io.read_calls", 1);
        leo_obs::metrics::counter_add("io.bytes_read", bytes.len() as u64);
        if let Some(e) = leo_fault::should_fire("cache.decode").and_then(leo_fault::Fault::apply_io)
        {
            // An injected decode fault takes the verification-failure
            // path: discard the snapshot and regenerate.
            leo_obs::log_warn!(
                "cache: discarding snapshot {}: {e}; regenerating",
                path.display()
            );
            leo_obs::metrics::counter_add("cache.invalid", 1);
            leo_obs::metrics::counter_add("cache.miss", 1);
            leo_obs::trace::instant("cache.invalid");
            leo_obs::trace::instant("cache.miss");
            return None;
        }
        match decode_container_span(schema, key, &bytes) {
            Ok((start, end)) => {
                leo_obs::metrics::counter_add("cache.hit", 1);
                leo_obs::metrics::counter_add("cache.bytes_read", (end - start) as u64);
                leo_obs::trace::instant("cache.hit");
                Some(LoadedPayload { bytes, start, end })
            }
            Err(why) => {
                leo_obs::log_warn!(
                    "cache: discarding snapshot {}: {why}; regenerating",
                    path.display()
                );
                leo_obs::metrics::counter_add("cache.invalid", 1);
                leo_obs::metrics::counter_add("cache.miss", 1);
                leo_obs::trace::instant("cache.invalid");
                leo_obs::trace::instant("cache.miss");
                None
            }
        }
    }

    /// Saves a snapshot payload (best-effort: failures warn, the run
    /// continues uncached). The write goes through
    /// `leo_fault::safe_io::write_atomic` — staged to a process-unique
    /// temp file, fsynced, renamed into place, with bounded retry on
    /// transient (or injected) errors.
    pub fn save(&self, kind: &str, key: u64, schema: u32, payload: &[u8]) {
        let bytes = encode_container(schema, key, payload);
        let path = self.path_for(kind, key);
        if let Err(e) = leo_fault::safe_io::write_atomic(&path, &bytes) {
            leo_obs::log_warn!("cache: cannot write {}: {e}", path.display());
            return;
        }
        leo_obs::metrics::counter_add("cache.bytes_written", payload.len() as u64);
        leo_obs::metrics::counter_add("io.write_calls", 1);
        leo_obs::metrics::counter_add("io.bytes_written", bytes.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("leo_cache_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::new(dir)
    }

    #[test]
    fn save_load_round_trip() {
        let store = tmp_store("roundtrip");
        let payload = b"hello snapshot world".to_vec();
        store.save("t", 0xABCD, SCHEMA_VERSION, &payload);
        assert_eq!(store.load("t", 0xABCD, SCHEMA_VERSION), Some(payload));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn io_counters_track_container_traffic() {
        let store = tmp_store("iocounters");
        let before_w = leo_obs::metrics::counter_value("io.bytes_written");
        let before_wc = leo_obs::metrics::counter_value("io.write_calls");
        store.save("t", 0x10, SCHEMA_VERSION, b"payload under io accounting");
        let container_len = fs::read(store.path_for("t", 0x10)).unwrap().len() as u64;
        assert!(container_len > b"payload under io accounting".len() as u64);
        assert!(leo_obs::metrics::counter_value("io.write_calls") > before_wc);
        assert!(
            leo_obs::metrics::counter_value("io.bytes_written") >= before_w + container_len,
            "io.bytes_written counts container bytes, not payload bytes"
        );
        let before_r = leo_obs::metrics::counter_value("io.bytes_read");
        let before_rc = leo_obs::metrics::counter_value("io.read_calls");
        assert!(store.load("t", 0x10, SCHEMA_VERSION).is_some());
        assert!(leo_obs::metrics::counter_value("io.read_calls") > before_rc);
        assert!(leo_obs::metrics::counter_value("io.bytes_read") >= before_r + container_len);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn absent_file_is_a_miss() {
        let store = tmp_store("absent");
        assert_eq!(store.load("t", 1, SCHEMA_VERSION), None);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let store = tmp_store("truncated");
        store.save("t", 2, SCHEMA_VERSION, b"some payload bytes");
        let path = store.path_for("t", 2);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(store.load("t", 2, SCHEMA_VERSION), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let store = tmp_store("bitflip");
        store.save("t", 3, SCHEMA_VERSION, b"some payload bytes");
        let path = store.path_for("t", 3);
        let mut bytes = fs::read(&path).unwrap();
        let mid = MAGIC.len() + 4 + 4 + 8 + 8 + 4; // inside the payload
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load("t", 3, SCHEMA_VERSION), None);
        match decode_container(SCHEMA_VERSION, 3, &bytes) {
            Err(ContainerError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn bumped_schema_version_is_rejected() {
        let store = tmp_store("schema");
        store.save("t", 4, SCHEMA_VERSION, b"payload");
        assert_eq!(store.load("t", 4, SCHEMA_VERSION + 1), None);
        let bytes = fs::read(store.path_for("t", 4)).unwrap();
        assert_eq!(
            decode_container(SCHEMA_VERSION + 1, 4, &bytes),
            Err(ContainerError::SchemaMismatch {
                found: SCHEMA_VERSION,
                expected: SCHEMA_VERSION + 1,
            })
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn renamed_file_fails_key_echo() {
        let store = tmp_store("keyecho");
        store.save("t", 5, SCHEMA_VERSION, b"payload");
        // Simulate a file renamed to a different key's address.
        fs::rename(store.path_for("t", 5), store.path_for("t", 6)).unwrap();
        assert_eq!(store.load("t", 6, SCHEMA_VERSION), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn non_snapshot_file_is_rejected_by_magic() {
        let store = tmp_store("magic");
        fs::create_dir_all(store.dir()).unwrap();
        fs::write(store.path_for("t", 7), b"definitely not a snapshot").unwrap();
        assert_eq!(store.load("t", 7, SCHEMA_VERSION), None);
        let _ = fs::remove_dir_all(store.dir());
    }
}

//! Cache observability: hit/miss/invalid counters and byte totals.
//!
//! Kept in its own integration-test binary (= its own process) because
//! the process-default scope's counters are process-global: this file
//! is the only test in its process that records into them, so the
//! counter assertions can be exact.

use leo_cache::{SnapshotStore, SCHEMA_VERSION};
use std::fs;

#[test]
fn counters_track_hits_misses_and_invalids() {
    leo_obs::reset();
    let dir = std::env::temp_dir().join(format!("leo_cache_counters_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = SnapshotStore::new(&dir);

    // Absent file: a miss, nothing else.
    assert_eq!(store.load("t", 1, SCHEMA_VERSION), None);
    assert_eq!(leo_obs::metrics::counter_value("cache.miss"), 1);
    assert_eq!(leo_obs::metrics::counter_value("cache.hit"), 0);

    // Clean save + load: a hit and the payload's bytes.
    let payload = b"payload bytes".to_vec();
    store.save("t", 2, SCHEMA_VERSION, &payload);
    assert_eq!(
        leo_obs::metrics::counter_value("cache.bytes_written"),
        payload.len() as u64
    );
    assert_eq!(store.load("t", 2, SCHEMA_VERSION), Some(payload.clone()));
    assert_eq!(leo_obs::metrics::counter_value("cache.hit"), 1);
    assert_eq!(
        leo_obs::metrics::counter_value("cache.bytes_read"),
        payload.len() as u64
    );

    // Corrupted checksum: counted invalid *and* miss, never a hit.
    let path = store.path_for("t", 2);
    let mut bytes = fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();
    assert_eq!(store.load("t", 2, SCHEMA_VERSION), None);
    assert_eq!(leo_obs::metrics::counter_value("cache.invalid"), 1);
    assert_eq!(leo_obs::metrics::counter_value("cache.miss"), 2);
    assert_eq!(leo_obs::metrics::counter_value("cache.hit"), 1);

    leo_obs::reset();
    let _ = fs::remove_dir_all(&dir);
}

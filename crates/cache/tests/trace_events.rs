//! Cache events on the timeline: a corrupt snapshot must surface as a
//! `cache.invalid` instant *followed by* the regeneration span — the
//! exact sequence ISSUE/DESIGN promise `--trace` users they will see
//! in Perfetto. The test records into its own `ObsScope`.

use leo_cache::snapshot::{dataset_key, DatasetCache, DATASET_KIND};
use leo_demand::dataset::SynthConfig;
use leo_obs::trace::{self, EventKind};

#[test]
fn corrupt_snapshot_marks_invalid_then_regenerates() {
    let scope = leo_obs::scope::ObsScope::new();
    let _g = scope.enter();
    trace::start();

    let dir = std::env::temp_dir().join(format!("leo_cache_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SynthConfig::small();

    // Cold generation, its snapshot committed, then corrupt the
    // snapshot's payload bytes.
    let cache = DatasetCache::new(&dir);
    let _ = cache.load_or_generate(&cfg);
    let path = cache.store().path_for(DATASET_KIND, dataset_key(&cfg));
    cache.commit().expect("commit the snapshot");
    let mut bytes = std::fs::read(&path).expect("snapshot written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt snapshot");

    // A unique marker so the assertions below only look at events this
    // load recorded, not the cold generation's.
    trace::instant("t_trace.marker");
    let _ = DatasetCache::new(&dir).load_or_generate(&cfg);

    let lanes = trace::snapshot();
    let lane = lanes
        .iter()
        .find(|l| l.events.iter().any(|e| e.name == "t_trace.marker"))
        .expect("marker lane");
    let marker = lane
        .events
        .iter()
        .position(|e| e.name == "t_trace.marker" && e.kind == EventKind::Instant)
        .unwrap();
    // Only look at what the warm (corrupted) load recorded — the cold
    // generation before the marker has its own demand.generate span.
    let after = &lane.events[marker..];
    let pos =
        |name: &str, kind: EventKind| after.iter().position(|e| e.name == name && e.kind == kind);
    let invalid = pos("cache.invalid", EventKind::Instant).expect("cache.invalid instant recorded");
    let regen =
        pos("demand.generate", EventKind::Begin).expect("regeneration span on the timeline");
    assert!(
        invalid < regen,
        "expected cache.invalid before demand.generate begin, got {invalid} / {regen}"
    );

    // The first (cold) load was a plain miss, never an invalidation:
    // exactly one cache.invalid in the whole trace.
    let invalids = lane
        .events
        .iter()
        .filter(|e| e.name == "cache.invalid")
        .count();
    assert_eq!(invalids, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

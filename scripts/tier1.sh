#!/usr/bin/env bash
# Tier-1 verify: lint, build the whole workspace, run every test, smoke
# the `divide` CLI end-to-end at small scale into a throwaway directory,
# prove a warm cached run is byte-identical to a cold one, and prove
# paper-scale runs reproduce the committed results/ byte for byte.
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "[tier1] lint gate (scripts/lint.sh)"
./scripts/lint.sh

echo "[tier1] cargo build --release --workspace"
cargo build --release --workspace

echo "[tier1] cargo test -q --workspace"
cargo test -q --workspace

# Every run below writes into its own subdirectory of one temp tree,
# and one trap removes the whole tree however the script exits.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Flake detector: the crates that keep process-global state (recorders,
# registries, allocator counters, signal slots, the pool) rerun their
# unit tests 20 times, so a test that races on that state fails the
# change that introduces it instead of flaking later.
echo "[tier1] flake detector: 20 rounds of the global-state crates' unit tests"
for round in $(seq 20); do
    cargo test -q --lib -p leo-obs -p leo-trace -p leo-fault -p leo-alloc -p leo-parallel \
        >"$work/flake.log" 2>&1 \
        || { cat "$work/flake.log" >&2; echo "[tier1] flake detector: round $round failed" >&2; exit 1; }
done

echo "[tier1] every example builds, exits 0 and prints something"
# The examples are the only callers of some public model code
# (orbit::{doppler, passes}, demand::scenario::terrestrial_buildout,
# PaperModel::paper_scale), so they must run, not just compile.
cargo build --release --examples
examples=0
for src in examples/*.rs; do
    name="$(basename "$src" .rs)"
    "./target/release/examples/$name" >"$work/example_$name.txt" \
        || { echo "[tier1] example $name failed" >&2; exit 1; }
    [ -s "$work/example_$name.txt" ] \
        || { echo "[tier1] example $name printed nothing" >&2; exit 1; }
    examples=$((examples + 1))
done
[ "$examples" -ge 6 ] || { echo "[tier1] only $examples examples ran" >&2; exit 1; }
echo "[tier1] $examples examples ran"

out="$work/smoke"

echo "[tier1] divide --scale small all --out $out"
./target/release/divide --scale small all --out "$out"

# The smoke run must actually produce artifacts, plus the run manifest.
for f in fig1_cdf.csv fig2_sweep.csv fig3_tail.csv fig4_affordability.csv table2.csv \
         run_manifest.json; do
    [ -s "$out/$f" ] || { echo "[tier1] missing artifact: $f" >&2; exit 1; }
done

# At small scale every fan-out is tiny, so the serial-threshold probe
# (or a 1-thread host) must route at least some of them off the pool —
# and account for them as serial calls in the stages' parallel
# sections. Read this manifest now: the fig2 run below overwrites it.
python3 - "$out/run_manifest.json" <<'PY'
import json, sys

manifest = json.load(open(sys.argv[1]))
counters = manifest["metrics"]["counters"]
serial = sum(s.get("parallel", {}).get("serial_calls", 0) for s in manifest["stages"])
assert serial >= 1, manifest["stages"]
print(f"[tier1] {serial} serial fan-outs accounted in the stages' parallel sections")

# Resource telemetry (DESIGN.md §12): every stage carries positive
# allocator deltas, the resources section carries heap + RSS peaks,
# and artifact writes are accounted under the io.* family.
for stage in manifest["stages"]:
    for field in ("alloc_bytes", "alloc_count", "peak_heap_delta"):
        assert stage.get(field, 0) > 0, (stage["name"], field, stage)
res = manifest["resources"]
for field in ("alloc_calls", "alloc_bytes_total", "peak_heap_bytes",
              "peak_rss_kb", "end_rss_kb"):
    assert res.get(field, 0) > 0, (field, res)
assert counters.get("io.bytes_written", 0) > 0, counters
assert counters.get("io.write_calls", 0) > 0, counters
print("[tier1] manifest carries alloc/RSS telemetry and io.* counters")
PY

# Every observed run appends a ledger record beside the snapshots: the
# run manifest without its span tree, plus ts_unix.
ledger="$out/.divide-cache/runs.jsonl"
python3 - "$ledger" <<'PY'
import json, sys

lines = [l for l in open(sys.argv[1]) if l.strip()]
assert len(lines) >= 1, "no ledger record appended"
rec = json.loads(lines[-1])
assert rec["schema"] == "leo-obs/run-ledger/v3", rec["schema"]
assert rec["command"] == "all" and rec["wall_ms"] > 0, rec
stages = {s["name"]: s for s in rec["stages"]}
assert "dataset" in stages, sorted(stages)
assert rec["resources"].get("peak_heap_bytes", 0) > 0, rec["resources"]
# Per-stage parallel-efficiency fields: the dataset stage always
# dispatches (or serially accounts) fan-outs, so its record carries
# parallel.busy_ns/chunks — zero is fine on a serial host, absence is
# not.
parallel = stages["dataset"]["parallel"]
assert "busy_ns" in parallel and "chunks" in parallel, parallel
print("[tier1] run appended a valid run-ledger/v3 record")
PY

echo "[tier1] divide fig2 --quiet stays quiet and writes a valid manifest"
quiet_err="$out/quiet_stderr.txt"
./target/release/divide --scale small fig2 --out "$out" --quiet 2>"$quiet_err"
if grep -q '\[info\]' "$quiet_err"; then
    echo "[tier1] --quiet leaked info-level stderr:" >&2
    cat "$quiet_err" >&2
    exit 1
fi
python3 - "$out/run_manifest.json" <<'PY'
import json, sys

manifest = json.load(open(sys.argv[1]))
for key in ("schema", "command", "scale", "seed", "threads", "wall_ms",
            "stages", "spans", "metrics"):
    assert key in manifest, f"run manifest missing {key!r}"
assert manifest["schema"] == "leo-obs/run-manifest/v1", manifest["schema"]
assert manifest["command"] == "fig2", manifest["command"]
assert manifest["seed"] == 7, manifest["seed"]
assert manifest["threads"] >= 1, manifest["threads"]
assert "counters" in manifest["metrics"], sorted(manifest["metrics"])
stage_names = [s["name"] for s in manifest["stages"]]
assert stage_names[0] == "dataset", stage_names
assert "fig2" in stage_names, stage_names
print("[tier1] manifest validates")
PY

echo "[tier1] cold vs warm cached runs produce identical artifact trees"
# The cache lives OUTSIDE both output trees so `diff -r` compares only
# artifacts; run_manifest.json is excluded (it records wall-clock).
cachedir="$work/cache"
cold="$work/cold"
warm="$work/warm"
./target/release/divide --scale small all --out "$cold" --cache "$cachedir" -q
./target/release/divide --scale small all --out "$warm" --cache "$cachedir" -q
diff -r --exclude run_manifest.json "$cold" "$warm" \
    || { echo "[tier1] warm run artifacts differ from cold" >&2; exit 1; }
python3 - "$cold/run_manifest.json" "$warm/run_manifest.json" <<'PY'
import json, sys

cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))

def span_names(spans, acc):
    for s in spans:
        acc.add(s["name"])
        span_names(s["children"], acc)
    return acc

# The cold run generated and wrote snapshots.
cc = cold["metrics"]["counters"]
assert cc.get("cache.miss", 0) >= 1, cc
assert cc.get("cache.bytes_written", 0) > 0, cc
assert "demand.generate" in span_names(cold["spans"], set()), "cold run did not generate"

# The warm run was a pure cache hit: no generation span at all.
wc = warm["metrics"]["counters"]
assert wc.get("cache.hit", 0) >= 1, wc
assert wc.get("cache.bytes_read", 0) > 0, wc
names = span_names(warm["spans"], set())
assert "demand.generate" not in names, f"warm run regenerated: {sorted(names)}"
assert "cache.decode" in names, sorted(names)
print("[tier1] warm run hit the cache and skipped generation")
PY

echo "[tier1] --no-cache run matches the cached runs byte for byte"
nocache="$work/nocache"
./target/release/divide --scale small all --out "$nocache" --no-cache -q
diff -r --exclude run_manifest.json "$cold" "$nocache" \
    || { echo "[tier1] --no-cache artifacts differ" >&2; exit 1; }

echo "[tier1] paper-scale runs reproduce the committed results/ byte for byte"
# The committed artifacts are the oracle: a cold 1-thread run and a
# warm 2-thread run (sharing one snapshot cache) must both regenerate
# every committed CSV and SVG exactly. paper_run.txt is a console log,
# not an artifact, so it is not compared.
paper_cache="$work/paper_cache"
paper1="$work/paper1"
paper2="$work/paper2"
./target/release/divide --scale paper --threads 1 all --out "$paper1" --cache "$paper_cache" -q >/dev/null
./target/release/divide --scale paper --threads 2 all --out "$paper2" --cache "$paper_cache" -q >/dev/null
compared=0
for f in results/*.csv results/*.svg; do
    for run in "$paper1" "$paper2"; do
        cmp -s "$f" "$run/$(basename "$f")" \
            || { echo "[tier1] $f differs from a fresh paper-scale run ($run)" >&2; exit 1; }
    done
    compared=$((compared + 1))
done
[ "$compared" -ge 16 ] || { echo "[tier1] only $compared committed artifacts compared" >&2; exit 1; }
echo "[tier1] $compared committed artifacts match at 1 thread (cold) and 2 threads (warm)"
# The two large artifacts stay out of git (.gitignore); their SHA-256
# digests are committed instead and pinned the same way.
digests="$PWD/results/large_artifacts.sha256"
for run in "$paper1" "$paper2"; do
    (cd "$run" && sha256sum --quiet -c "$digests") \
        || { echo "[tier1] a large artifact in $run differs from $digests" >&2; exit 1; }
done
echo "[tier1] fig1_map.svg and dataset_cells.csv match their committed digests"
rm -rf "$paper_cache" "$paper1" "$paper2"

echo "[tier1] stale-schema snapshot fails closed and regenerates"
# Rewind the on-disk dataset container to schema v1 (the little-endian
# u32 at byte 12, after the 8-byte magic and 4-byte container version).
# The next run must treat it as cache.invalid, regenerate byte-identical
# artifacts, and re-save the snapshot at the current schema.
python3 - "$cachedir" <<'PY'
import glob, sys

snaps = glob.glob(f"{sys.argv[1]}/dataset-*.snap")
assert snaps, "no dataset snapshot to age"
for path in snaps:
    body = bytearray(open(path, "rb").read())
    body[12:16] = (1).to_bytes(4, "little")
    open(path, "wb").write(bytes(body))
PY
stale="$work/stale"
./target/release/divide --scale small all --out "$stale" --cache "$cachedir" -q
diff -r --exclude run_manifest.json "$cold" "$stale" \
    || { echo "[tier1] stale-schema regeneration artifacts differ" >&2; exit 1; }
python3 - "$stale/run_manifest.json" <<'PY'
import json, sys

counters = json.load(open(sys.argv[1]))["metrics"]["counters"]
assert counters.get("cache.invalid", 0) >= 1, counters
assert counters.get("cache.bytes_written", 0) > 0, counters
print("[tier1] v1-schema container invalidated, regenerated, re-saved")
PY

echo "[tier1] --trace writes a valid Chrome trace without touching artifacts"
traced="$work/traced"
# Threshold 0 disables the serial-threshold probe so every fan-out is
# forced through the pool — worker lanes must exist however fast the
# host runs small-scale chunks.
DIVIDE_PAR_THRESHOLD_NS=0 \
./target/release/divide --scale small all --out "$traced" --no-cache \
    --threads 4 --trace -q
diff -r --exclude run_manifest.json --exclude trace.json --exclude trace.folded \
    "$cold" "$traced" \
    || { echo "[tier1] --trace changed artifact bytes" >&2; exit 1; }
python3 - "$traced" <<'PY'
import collections, json, sys

traced = sys.argv[1]
doc = json.load(open(f"{traced}/trace.json"))
events = doc["traceEvents"]
assert events, "empty trace"

# Lane names: main plus one lane per worker index at --threads 4,
# plus the memory counter lane.
lanes = {e["args"]["name"]: e["tid"] for e in events
         if e.get("ph") == "M" and e.get("name") == "thread_name"}
for lane in ("main", "worker-0", "worker-1", "worker-2", "worker-3", "mem"):
    assert lane in lanes, f"missing lane {lane}: {sorted(lanes)}"

# Span boundaries sample the heap onto the mem lane as "C" events.
heap_samples = [e for e in events
                if e.get("ph") == "C" and e.get("name") == "heap_bytes"]
assert len(heap_samples) >= 2, f"{len(heap_samples)} heap counter events"
assert any(e["args"].get("bytes", 0) > 0 for e in heap_samples), heap_samples[:3]

# Balanced B/E and non-decreasing timestamps per lane.
balance = collections.Counter()
last_ts = {}
for e in events:
    ph = e["ph"]
    if ph == "M":
        continue
    tid = e["tid"]
    assert e["ts"] >= last_ts.get(tid, 0.0), f"ts went backwards in tid {tid}"
    last_ts[tid] = e["ts"]
    if ph == "B":
        balance[tid] += 1
    elif ph == "E":
        balance[tid] -= 1
assert all(v == 0 for v in balance.values()), f"unbalanced B/E: {balance}"

# Folded stacks must agree with the manifest's span totals (<=1% or
# 50 us of slack; the shared-timestamp design makes it exact today).
manifest = json.load(open(f"{traced}/run_manifest.json"))

# --threads 4 must have spawned the 3 persistent workers behind lanes
# worker-1..worker-3.
counters = manifest["metrics"]["counters"]
assert counters.get("parallel.pool_spawned_threads", 0) >= 3, counters
# Main lane only: worker-lane chunks now carry their owning stage's
# span path as parent frames (so flamegraphs telescope), and that busy
# time is already inside the stage's inclusive main-lane total.
folded = collections.defaultdict(int)
worker_parented = 0
for line in open(f"{traced}/trace.folded"):
    stack, ns = line.rsplit(" ", 1)
    frames = stack.split(";")
    if frames[0].startswith("worker-"):
        if any(f.startswith("stage.") for f in frames[1:]):
            worker_parented += 1
        continue
    if frames[0] != "main":
        continue
    for frame in set(frames[1:]):
        folded[frame] += int(ns)
for span in manifest["spans"]:
    name, total = span["name"], span["total_ns"]
    got = folded.get(name, 0)
    assert abs(got - total) <= max(0.01 * total, 5e4), \
        f"span {name}: manifest {total} ns vs folded {got} ns"
assert worker_parented >= 1, \
    "no worker chunk telescoped under a stage.* parent frame"

# Per-stage parallel attribution (DESIGN.md §15) is the one record of
# pool work: with the probe off every fan-out pools, so the dataset
# stage carries a parallel section with pooled fan-outs and >= 4 chunks.
stage_par = {s["name"]: s["parallel"] for s in manifest["stages"]
             if "parallel" in s}
assert "dataset" in stage_par, sorted(s["name"] for s in manifest["stages"])
assert stage_par["dataset"]["fanouts"] >= 1, stage_par["dataset"]
assert stage_par["dataset"]["chunks"] >= 4, stage_par["dataset"]
for name, par in stage_par.items():
    assert sum(par["per_worker_busy_ns"]) == par["busy_ns"], (name, par)
# No second copy of it: metrics hold counters only, no parallel.*
# counter besides pool growth, stalls and the memo, and no chunk spans.
assert sorted(manifest["metrics"]) == ["counters"], sorted(manifest["metrics"])
pool_counters = {"parallel.pool_spawned_threads", "parallel.pool_stalls",
                 "parallel.memo_hits", "parallel.memo_misses"}
extra = [c for c in counters if c.startswith("parallel.") and c not in pool_counters]
assert not extra, extra

def leaves(spans):
    for s in spans:
        yield s["name"]
        yield from leaves(s["children"])
chunk_spans = [n for n in leaves(manifest["spans"]) if n.startswith("parallel.")]
assert not chunk_spans, chunk_spans
print(f"[tier1] trace validates: {len(events)} events, {len(lanes)} lanes; "
      f"{len(stage_par)} stages carry the parallel record")
PY

echo "[tier1] divide report gates on regressions"
./target/release/divide report \
    --baseline "$traced/run_manifest.json" \
    --candidate "$traced/run_manifest.json" >/dev/null \
    || { echo "[tier1] self-diff report should exit 0" >&2; exit 1; }
python3 - "$traced/run_manifest.json" "$out/slowed_manifest.json" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
for stage in doc["stages"]:
    if stage["name"] == "dataset":
        stage["wall_ms"] = max(stage["wall_ms"] * 10, 100.0)
json.dump(doc, open(sys.argv[2], "w"))
PY
if ./target/release/divide report \
    --baseline "$traced/run_manifest.json" \
    --candidate "$out/slowed_manifest.json" >/dev/null; then
    echo "[tier1] report missed a 10x dataset-stage regression" >&2
    exit 1
fi

echo "[tier1] divide history trends over the cold+warm ledger"
# The cold and warm runs above share $cachedir, so its ledger holds two
# comparable records; a healthy pair must render a table and exit 0.
# Lenient thresholds on purpose: this smoke checks plumbing and exit
# codes, not this box's perf (scripts/bench.sh owns that) — with the
# defaults, scheduler noise on a loaded host can swing a small stage
# past 20% and flake the "healthy" half. The injected 10x regression
# below (+900%) still trips the 300% gate.
history_gate="--max-regress-pct 300 --min-wall-ms 50"
history_out="$(./target/release/divide history --ledger "$cachedir/runs.jsonl" $history_gate)" \
    || { echo "[tier1] healthy history should exit 0" >&2; exit 1; }
grep -q 'total wall' <<<"$history_out"
grep -q 'dataset wall' <<<"$history_out"
# Append a 10x-slower clone of the newest record: history must gate.
python3 - "$cachedir/runs.jsonl" <<'PY'
import json, sys

path = sys.argv[1]
rec = json.loads([l for l in open(path) if l.strip()][-1])
rec["wall_ms"] = max(rec["wall_ms"] * 10, 1000.0)
for stage in rec["stages"]:
    stage["wall_ms"] = max(stage["wall_ms"] * 10, 1000.0)
open(path, "a").write(json.dumps(rec) + "\n")
PY
if ./target/release/divide history --ledger "$cachedir/runs.jsonl" $history_gate >/dev/null; then
    echo "[tier1] history missed a 10x regression" >&2
    exit 1
fi

echo "[tier1] chaos smoke (scripts/chaos.sh, 6 seeded plans)"
# Full 20-plan sweeps belong to scripts/chaos.sh runs; tier-1 keeps a
# small always-on slice so a broken fault path or torn write can't land.
CHAOS_PLANS=6 ./scripts/chaos.sh

echo "[tier1] divide --help exits 0 and lists every command"
# Capture first: `grep -q` closing the pipe early would EPIPE divide.
help_out="$(./target/release/divide --help)"
grep -q timeline <<<"$help_out"
grep -q 'no-cache' <<<"$help_out"
grep -q 'trace' <<<"$help_out"
grep -q 'report' <<<"$help_out"
grep -q 'history' <<<"$help_out"
grep -q DIVIDE_ALLOC <<<"$help_out"
grep -q DIVIDE_LEDGER <<<"$help_out"
grep -q 'fault-plan' <<<"$help_out"
grep -q DIVIDE_POOL_TIMEOUT_MS <<<"$help_out"
grep -q 'exit codes' <<<"$help_out"

echo "[tier1] OK"

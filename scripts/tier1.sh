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
[ "$examples" -ge 7 ] || { echo "[tier1] only $examples examples ran" >&2; exit 1; }
echo "[tier1] $examples examples ran"
# The committed artifacts cover one dataset (seed 7, paper scale), and
# that only through rounded renderings. dataset_digest prints a digest
# of every column of six datasets (seeds 7, 2 and 2024 at small and
# paper scale); each must equal its committed digest.
diff "$work/example_dataset_digest.txt" results/dataset_digests.txt \
    || { echo "[tier1] a generated dataset differs from results/dataset_digests.txt" >&2; exit 1; }
echo "[tier1] six dataset digests match results/dataset_digests.txt"

out="$work/smoke"

echo "[tier1] divide --scale small all --out $out"
./target/release/divide --scale small all --out "$out"

# The smoke run must actually produce artifacts, plus the run manifest.
for f in fig1_cdf.csv fig2_sweep.csv fig3_tail.csv fig4_affordability.csv table2.csv \
         run_manifest.json; do
    [ -s "$out/$f" ] || { echo "[tier1] missing artifact: $f" >&2; exit 1; }
done

# Read this manifest now: the fig2 run below overwrites it.
python3 - "$out/run_manifest.json" <<'PY'
import json, sys

manifest = json.load(open(sys.argv[1]))
counters = manifest["metrics"]["counters"]

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
# Item and thread counts alone decide whether a fan-out pools, so two
# runs doing the same computation at the same thread count record the
# same pool work in every stage.
python3 - "$cold/run_manifest.json" "$nocache/run_manifest.json" <<'PY'
import json, sys

def pool_work(path):
    keys = ("fanouts", "serial_calls", "chunks", "items")
    return {s["name"]: tuple(s.get("parallel", {}).get(k) for k in keys)
            for s in json.load(open(path))["stages"]}

cold, nocache = pool_work(sys.argv[1]), pool_work(sys.argv[2])
assert cold == nocache, {n: (cold.get(n), nocache.get(n))
                         for n in cold.keys() | nocache.keys()
                         if cold.get(n) != nocache.get(n)}
print(f"[tier1] cold and --no-cache runs record the same pool work in all {len(cold)} stages")
PY

echo "[tier1] paper-scale runs reproduce the committed results/ byte for byte"
# The committed artifacts are the oracle: paper `all` at 1, 4 and 8
# threads, each cold and warm, plus a warm 2-thread run, must all
# regenerate every committed CSV and SVG exactly, and print exactly the
# console text committed as results/paper_run.txt. The cold 1-, 4- and
# 8-thread runs each fill a snapshot cache of their own; every warm run
# reruns on one of them. At 4 threads the side lane runs beside a
# 3-thread main lane while the cold dataset's snapshots stage.
paper_cache="$work/paper_cache"
paper4_cache="$work/paper4_cache"
paper8c_cache="$work/paper8c_cache"
# "<name> <threads> <cache>", in run order: a warm run follows the
# cold run that filled its cache.
paper_runs=(
    "paper1 1 $paper_cache"
    "paper2 2 $paper_cache"
    "paper8 8 $paper_cache"
    "paper1w 1 $paper_cache"
    "paper4 4 $paper4_cache"
    "paper4w 4 $paper4_cache"
    "paper8c 8 $paper8c_cache"
)
paper_dirs=()
for spec in "${paper_runs[@]}"; do
    read -r run threads cache <<<"$spec"
    ./target/release/divide --scale paper --threads "$threads" all --out "$work/$run" \
        --cache "$cache" -q >"$work/$run.stdout"
    cmp -s results/paper_run.txt "$work/$run.stdout" \
        || { echo "[tier1] $run's stdout differs from results/paper_run.txt" >&2; exit 1; }
    paper_dirs+=("$work/$run")
done
paper1="$work/paper1"
paper2="$work/paper2"
paper4="$work/paper4"
echo "[tier1] stdout at 1, 4 and 8 threads (cold and warm) and 2 threads (warm) matches results/paper_run.txt"
# The manifest lists each stage once, in the run's order: the dataset
# build, then STAGES (crates/cli/src/stages.rs), however the two lanes
# of a multi-thread run interleave.
python3 - "${paper_dirs[@]/%//run_manifest.json}" <<'PY'
import json, sys

want = ["dataset", "table1", "table2", "fig1", "fig2", "fig3", "fig4", "findings",
        "qoe", "orbit-validate", "strict", "sensitivity", "latency", "uplink",
        "cost", "timeline", "export"]
for path in sys.argv[1:]:
    got = [s["name"] for s in json.load(open(path))["stages"]]
    assert got == want, (path, got)
print(f"[tier1] {len(sys.argv) - 1} paper manifests list dataset, then STAGES in order")
PY
compared=0
for f in results/*.csv results/*.svg; do
    for run in "${paper_dirs[@]}"; do
        cmp -s "$f" "$run/$(basename "$f")" \
            || { echo "[tier1] $f differs from a fresh paper-scale run ($run)" >&2; exit 1; }
    done
    compared=$((compared + 1))
done
[ "$compared" -ge 16 ] || { echo "[tier1] only $compared committed artifacts compared" >&2; exit 1; }
echo "[tier1] $compared committed artifacts match in all ${#paper_dirs[@]} paper runs"
# The two large artifacts stay out of git (.gitignore); their SHA-256
# digests are committed instead and pinned the same way.
digests="$PWD/results/large_artifacts.sha256"
for run in "${paper_dirs[@]}"; do
    (cd "$run" && sha256sum --quiet -c "$digests") \
        || { echo "[tier1] a large artifact in $run differs from $digests" >&2; exit 1; }
done
echo "[tier1] fig1_map.svg and dataset_cells.csv match their committed digests"
# The cold run ranks the demand cells by certified approximate scores
# (DESIGN.md §18): only near-ties take the exact score, so the exact
# re-scores stay a sliver of the cells scored.
python3 - "$paper1/run_manifest.json" <<'PY'
import json, sys

counters = json.load(open(sys.argv[1]))["metrics"]["counters"]
scored = counters.get("demand.cells_scored", 0)
exact = counters.get("demand.score_exact", 0)
assert scored > 30000, counters
assert exact <= scored // 100, f"{exact} exact re-scores of {scored} cells"
print(f"[tier1] {exact} of {scored} demand cells re-scored exactly")
PY
# The orbit Monte-Carlo kernels decide almost every sample by their
# prefilters (DESIGN.md §16): the work and the in-band count are
# pinned, and the exact path stays a sliver of the samples.
python3 - "$paper1/run_manifest.json" "$paper2/run_manifest.json" <<'PY'
import json, sys

for path in sys.argv[1:]:
    counters = json.load(open(path))["metrics"]["counters"]
    samples = counters.get("orbit.mc_samples", 0)
    in_band = counters.get("orbit.mc_in_band", 0)
    exact = counters.get("orbit.mc_exact", 0)
    assert samples == 1807280, (path, counters)
    assert in_band == 48034, (path, counters)
    assert exact <= samples // 1000, f"{path}: {exact} exact orbit tests of {samples} samples"
print(f"[tier1] orbit: {samples} samples, {in_band} in band, {exact} exact tests at 1 and 2 threads")
PY
# A cold run at another thread count must write the same snapshots as
# the cold 1-thread run (its fig2 artifacts were compared above).
for cache in "$paper4_cache" "$paper8c_cache"; do
    snaps=0
    for snap in "$cache"/*.snap; do
        cmp -s "$snap" "$paper_cache/$(basename "$snap")" \
            || { echo "[tier1] $snap differs from the cold 1-thread run's" >&2; exit 1; }
        snaps=$((snaps + 1))
    done
    [ -n "$(ls "$cache"/dataset-*.snap 2>/dev/null)" ] && [ "$snaps" -ge 2 ] \
        || { echo "[tier1] the cold run into $cache wrote $snaps snapshots" >&2; exit 1; }
done
echo "[tier1] cold 4- and 8-thread all wrote the cold 1-thread run's $snaps snapshots"
# The cold generate fans out three times at 4 threads: the polyfill
# rows, the scoring and the county lookup (DESIGN.md §19). A fan-out
# that falls back to serial shows up as a serial call here.
python3 - "$paper4/run_manifest.json" <<'PY'
import json, sys

stages = {s["name"]: s for s in json.load(open(sys.argv[1]))["stages"]}
par = stages["dataset"]["parallel"]
assert (par["fanouts"], par["serial_calls"]) == (3, 0), par
print(f"[tier1] cold 4-thread dataset stage: {par['fanouts']} fan-outs, "
      f"{par['serial_calls']} serial calls")
PY
rm -rf "$paper_cache" "$paper4_cache" "$paper8c_cache" "${paper_dirs[@]}"

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
# Every fan-out of two or more items pools at --threads 4, so the
# worker lanes exist however fast the host runs small-scale chunks.
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

# The manifest lists each stage once: the dataset build, then STAGES.
assert [s["name"] for s in manifest["stages"]] == [
    "dataset", "table1", "table2", "fig1", "fig2", "fig3", "fig4", "findings",
    "qoe", "orbit-validate", "strict", "sensitivity", "latency", "uplink",
    "cost", "timeline", "export"], [s["name"] for s in manifest["stages"]]

# At --threads 4 `all` computes qoe, orbit-validate and latency on a
# side lane: the pool's last worker, leo-par-2, a named lane of its own.
side = "leo-par-2"
assert side in lanes, f"missing side lane {side}: {sorted(lanes)}"

# --threads 4 must have spawned the 3 persistent workers behind lanes
# worker-1..worker-3.
counters = manifest["metrics"]["counters"]
assert counters.get("parallel.pool_spawned_threads", 0) >= 3, counters
# Thread lanes only, main and side: a top-level span's calls ran on
# one or both of them (a side stage's body on the side lane, its output
# on main), and their folded time sums to the manifest's total.
# Worker-lane chunks carry their owning stage's span path as parent
# frames (so flamegraphs telescope), and that busy time is already
# inside the stage's inclusive total on the lane that dispatched it.
folded = collections.defaultdict(int)
side_stages = set()
worker_parented = 0
for line in open(f"{traced}/trace.folded"):
    stack, ns = line.rsplit(" ", 1)
    frames = stack.split(";")
    if frames[0].startswith("worker-"):
        if any(f.startswith("stage.") for f in frames[1:]):
            worker_parented += 1
        continue
    if frames[0] not in ("main", side):
        continue
    if frames[0] == side:
        side_stages.add(frames[1])
    for frame in set(frames[1:]):
        folded[frame] += int(ns)
for span in manifest["spans"]:
    name, total = span["name"], span["total_ns"]
    got = folded.get(name, 0)
    assert abs(got - total) <= max(0.01 * total, 5e4), \
        f"span {name}: manifest {total} ns vs folded {got} ns"
assert worker_parented >= 1, \
    "no worker chunk telescoped under a stage.* parent frame"
assert side_stages == {"stage.qoe", "stage.orbit-validate", "stage.latency"}, side_stages

# Per-stage parallel attribution (DESIGN.md §15) is the one record of
# pool work: every fan-out of two or more items pools, so the dataset
# stage carries a parallel section with pooled fan-outs and >= 4 chunks.
stage_par = {s["name"]: s["parallel"] for s in manifest["stages"]
             if "parallel" in s}
assert "dataset" in stage_par, sorted(s["name"] for s in manifest["stages"])
assert stage_par["dataset"]["fanouts"] >= 1, stage_par["dataset"]
assert stage_par["dataset"]["chunks"] >= 4, stage_par["dataset"]
for name, par in stage_par.items():
    assert sum(par["per_worker_busy_ns"]) == par["busy_ns"], (name, par)
# No second copy of it: metrics hold counters only, no parallel.*
# counter besides pool growth, and no chunk spans.
assert sorted(manifest["metrics"]) == ["counters"], sorted(manifest["metrics"])
pool_counters = {"parallel.pool_spawned_threads"}
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

echo "[tier1] divide history trends over the cold, warm and regenerate ledger"
# The cold, warm and stale-schema runs above share $cachedir, so its
# ledger holds three records. The newest, the stale-schema run,
# regenerated the dataset, so history judges it against the earlier
# run that also generated it (the cold run) and leaves the warm run
# out; a healthy ledger must render a table and exit 0.
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
# Instrumentation has one configuration: HELP names no variable. (A
# bare `! grep` would not stop the script: set -e ignores a negated
# status.)
! grep -q DIVIDE_ <<<"$help_out" \
    || { echo "[tier1] divide --help names a DIVIDE_ variable" >&2; exit 1; }
grep -q 'fault-plan' <<<"$help_out"
grep -q 'exit codes' <<<"$help_out"

echo "[tier1] OK"

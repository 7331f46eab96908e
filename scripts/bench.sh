#!/usr/bin/env bash
# Bench harness: paper-scale cold and warm cached runs of the full
# pipeline (`divide --scale paper all`) at 1 worker thread and at one
# per CPU (`nproc`, at least 2), read from each run's
# run_manifest.json and merged into BENCH_tier1.json at the repo root.
# The warm runs must be pure cache hits; the JSON records both
# wall-clocks so the snapshot cache's win is a tracked number, not an
# anecdote. The JSON also carries a `host` section
# (cpu_cores, kernel) so numbers from different boxes are never
# compared blind.
#
# Four overhead legs share one A/B helper and one estimator (`ab`
# below) and land in the JSON as `<leg>_overhead_pct`; one budget table
# gates three of them:
#
#   trace      --trace recorder on vs off           recorded, not gated
#   alloc      tracking allocator on vs off         < 2% (DESIGN.md §12)
#   fault      inert fault plan vs none             < 1% (DESIGN.md §13)
#   obs_scope  DIVIDE_OBS on vs off, allocator off  < 2% (DESIGN.md §15)
#
# The JSON also records `thread_scaling` — the threads_N/threads_1
# wall-clock ratios (cold and warm), N = one worker per CPU, so the
# wide leg never oversubscribes the host. On hosts with >= 4 cores a
# ratio >= 1.0 means adding workers made the run *slower* (the
# negative scaling bug ROADMAP item 1 tracked) and the script fails.
# Below 4 cores the check is skipped: the ratio is recorded but
# meaningless.
#
# The JSON further records `decode_throughput_mbps` (warm snapshot
# payload bytes over the warm dataset stage's wall-clock) and a
# `kernels` section of per-kernel medians parsed from the criterion
# harness's KERNELS_JSON line (Fig 2 row scan, unserved fold,
# stratified sampling, polyfill-carried centers, snapshot
# encode/decode, the orbit density, coverage and gateway-path kernels,
# the paper-scale Fig 1 map render, the strict-bound table and the
# certified demand-cell order).
#
# The canonical warm runs append to a persistent run ledger
# (--ledger .bench-runs.jsonl at the repo root, gitignored) so
# successive bench invocations build a history; every other run
# appends to its own throwaway cache directory.
#
# Usage:
#   scripts/bench.sh          regenerate BENCH_tier1.json
#   scripts/bench.sh --gate   regenerate, then gate through the shared
#                             report/history gate (DESIGN.md §10):
#                             `divide report` of the fresh
#                             BENCH_tier1.json against HEAD's (its *_ms
#                             fields, kernel medians and decode
#                             throughput), then `divide history` of the
#                             newest warm run against the ledger's
#                             prior median. Either exits 3 when a
#                             metric is worse by more than 20%.
set -euo pipefail

cd "$(dirname "$0")/.."

gate=0
if [ "${1:-}" = "--gate" ]; then
    gate=1
    shift
fi
[ $# -eq 0 ] || { echo "usage: scripts/bench.sh [--gate]" >&2; exit 2; }

echo "[bench] cargo build --release -p divide-cli"
cargo build --release -p divide-cli

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

ledger=.bench-runs.jsonl
# One worker per CPU, at least 2: more would oversubscribe the host
# and measure the scheduler, not the pool.
cores="$(nproc 2>/dev/null || echo 1)"
wide=$((cores > 2 ? cores : 2))

for threads in 1 "$wide"; do
    cachedir="$work/cache-$threads"
    for phase in cold warm; do
        echo "[bench] divide --scale paper all --threads $threads ($phase)"
        # Only the canonical warm runs append to the trend ledger; the
        # others land in their cache directory's runs.jsonl.
        ledger_flag=""
        [ "$phase" = warm ] && ledger_flag="--ledger $ledger"
        # $ledger_flag is deliberately unquoted: zero or two words.
        ./target/release/divide --scale paper all $ledger_flag \
            --out "$work/$phase-$threads" --cache "$cachedir" --threads "$threads" -q >/dev/null
    done
    # Warm must be byte-identical to cold — a bench that changed the
    # artifacts would be measuring a different program.
    diff -r --exclude run_manifest.json "$work/cold-$threads" "$work/warm-$threads" \
        || { echo "[bench] warm artifacts differ at $threads threads" >&2; exit 1; }
done

# One overhead leg: $pairs adjacent on/off pairs of the warm
# single-threaded run, the "on" side under the environment in $2 plus
# the extra flags in $4 and the "off" side under $3 plus $5
# (space-separated VAR=value words and flag words). Each run's
# manifest is kept as ab-<leg>-<side>-<pair>.json, and both sides must
# reproduce the warm run's artifacts. The score is the median of the
# per-pair CPU-time deltas:
#
#   * One thread: on an oversubscribed box the pool adds condvar-wake
#     and context-switch churn whose CPU cost is scheduler luck and
#     would swamp a sub-percent signal; the costs measured here are per
#     operation and do not depend on the thread count.
#   * CPU time (cpu_ms, nanosecond schedstat; wall_ms off Linux): the
#     costs are pure CPU, and CPU time shrugs off the preemption that
#     makes wall-clock flap.
#   * Order-alternating pairs and their median delta: a box that
#     throttles every other run cannot charge one side, the two runs of
#     a pair share the host's performance phase so a bimodal CPU floor
#     cancels, and the median discards the pairs a phase change splits.
pairs=10
ab() { # $1 = leg, $2/$3 = on/off environment, $4/$5 = on/off flags
    local leg=$1 pair order side vars flags
    echo "[bench] $leg on/off: divide --scale paper all --threads 1 (warm, $pairs pairs)"
    for pair in $(seq "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="on off"; else order="off on"; fi
        for side in $order; do
            if [ "$side" = on ]; then vars=$2 flags=${4:-}; else vars=$3 flags=${5:-}; fi
            # $vars and $flags are deliberately unquoted: one word per
            # assignment or flag.
            env $vars ./target/release/divide --scale paper all --out "$work/ab-$leg-$side" \
                --cache "$work/cache-1" --threads 1 -q $flags >/dev/null
            cp "$work/ab-$leg-$side/run_manifest.json" "$work/ab-$leg-$side-$pair.json"
        done
    done
    for side in on off; do
        diff -r --exclude run_manifest.json --exclude trace.json --exclude trace.folded \
            "$work/warm-1" "$work/ab-$leg-$side" \
            || { echo "[bench] $leg $side changed artifact bytes" >&2; exit 1; }
    done
}
ab trace "" "" "--trace"
ab alloc "DIVIDE_ALLOC=on" "DIVIDE_ALLOC=off"
# Every fault site probes the engine on every call; an inert plan (p=0,
# so nothing ever fires) adds one hash-and-compare per probe.
ab fault "" "" "--fault-plan seed=1;io.write:p=0,mode=err"
# The allocator is off on both sides so only the scope machinery (span
# stack, the registry lock, counters, scope propagation through the
# pool) is in the delta.
ab obs_scope "DIVIDE_ALLOC=off DIVIDE_OBS=on" "DIVIDE_ALLOC=off DIVIDE_OBS=off"

# Per-kernel medians: bench_kernels ends with a machine-readable
# KERNELS_JSON line (and asserts each rewritten kernel is bit-identical
# to its scalar baseline — a gate in itself).
echo "[bench] cargo bench -p leo-bench --bench bench_kernels"
cargo bench -p leo-bench --bench bench_kernels > "$work/kernels.out" 2>&1 \
    || { cat "$work/kernels.out" >&2; exit 1; }
sed -n 's/^KERNELS_JSON: //p' "$work/kernels.out" > "$work/kernels.json"
[ -s "$work/kernels.json" ] \
    || { echo "[bench] bench_kernels printed no KERNELS_JSON line" >&2; exit 1; }

python3 - "$work" BENCH_tier1.json "$pairs" "$wide" <<'PY'
import json, os, platform, statistics, sys

work, out_path, pairs, wide = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
# Overhead budgets in percent of CPU time; None records a leg without
# gating it.
BUDGETS = {"trace": None, "alloc": 2.0, "fault": 1.0, "obs_scope": 2.0}

def manifest(name):
    with open(f"{work}/{name}") as f:
        return json.load(f)

def stage_ms(m, name):
    return next((s["wall_ms"] for s in m["stages"] if s["name"] == name), None)

result = {
    "schema": "divide/bench-tier1/v1",
    "scale": "paper",
    "command": "all",
    "host": {"cpu_cores": os.cpu_count() or 1, "kernel": platform.release()},
    "runs": {},
}
for threads in (1, wide):
    cold = manifest(f"cold-{threads}/run_manifest.json")
    warm = manifest(f"warm-{threads}/run_manifest.json")
    wc, res = warm["metrics"]["counters"], warm["resources"]
    assert wc.get("cache.hit", 0) >= 1, f"warm run at {threads} threads missed the cache: {wc}"
    # The resource telemetry must have measured the run (DESIGN.md §12).
    assert res.get("alloc_bytes_total", 0) > 0, res
    assert res.get("peak_rss_kb", 0) > 0, res
    result["runs"][f"threads_{threads}"] = {
        "cold_wall_ms": cold["wall_ms"],
        "warm_wall_ms": warm["wall_ms"],
        "cold_dataset_stage_ms": stage_ms(cold, "dataset"),
        "warm_dataset_stage_ms": stage_ms(warm, "dataset"),
        "warm_speedup": cold["wall_ms"] / warm["wall_ms"],
        "cache_bytes_written": cold["metrics"]["counters"].get("cache.bytes_written", 0),
        "cache_bytes_read": wc.get("cache.bytes_read", 0),
        "alloc_bytes_total": res["alloc_bytes_total"],
        "peak_heap_bytes": res.get("peak_heap_bytes", 0),
        "peak_rss_kb": res["peak_rss_kb"],
    }
# Each overhead leg: the median of its per-pair CPU-time deltas (see
# `ab` for why).
cost = lambda m: m["resources"].get("cpu_ms") or m["wall_ms"]
for leg in BUDGETS:
    deltas = []
    for pair in range(1, pairs + 1):
        on = cost(manifest(f"ab-{leg}-on-{pair}.json"))
        off = cost(manifest(f"ab-{leg}-off-{pair}.json"))
        deltas.append(100.0 * (on - off) / off)
    result[f"{leg}_overhead_pct"] = round(statistics.median(deltas), 2)
# Thread scaling: wide wall over 1-thread wall. < 1.0 means the
# worker pool is paying off; >= 1.0 is the negative-scaling regression
# the pool was built to fix (gated below on hosts with enough cores).
t1, tn = result["runs"]["threads_1"], result["runs"][f"threads_{wide}"]
result["thread_scaling"] = {
    "cold": round(tn["cold_wall_ms"] / t1["cold_wall_ms"], 4),
    "warm": round(tn["warm_wall_ms"] / t1["warm_wall_ms"], 4),
}
# End-to-end warm decode throughput: snapshot payload bytes read over
# the single-threaded warm dataset stage's wall-clock (MB/s) — the
# number the columnar v2 codec is meant to move.
dataset_ms = t1["warm_dataset_stage_ms"] or 0.0
result["decode_throughput_mbps"] = (
    round(t1["cache_bytes_read"] / 1e6 / (dataset_ms / 1e3), 2) if dataset_ms else 0.0)
# Per-kernel criterion medians (bench_kernels' KERNELS_JSON line).
with open(f"{work}/kernels.json") as f:
    result["kernels"] = json.load(f)
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
for name, run in result["runs"].items():
    print(f"[bench] {name}: cold {run['cold_wall_ms']:.0f} ms, "
          f"warm {run['warm_wall_ms']:.0f} ms ({run['warm_speedup']:.2f}x), "
          f"peak rss {run['peak_rss_kb']} kB")
scaling = result["thread_scaling"]
print(f"[bench] thread scaling (threads_{wide} / threads_1): "
      f"cold {scaling['cold']:.2f}x, warm {scaling['warm']:.2f}x")
print(f"[bench] warm decode throughput: {result['decode_throughput_mbps']:.1f} MB/s; "
      f"snapshot_decode median {result['kernels']['snapshot_decode_ms']:.3f} ms")
print(f"[bench] wrote {out_path}")
over = []
for leg, budget in BUDGETS.items():
    pct = result[f"{leg}_overhead_pct"]
    verdict = "recorded, not gated" if budget is None else f"budget < {budget}%"
    print(f"[bench] {leg} overhead (paired-median 1-thread cpu): {pct:+.2f}% ({verdict})")
    if budget is not None and pct >= budget:
        over.append(f"{leg} {pct:+.2f}% >= {budget}%")
if over:
    sys.exit(f"[bench] overhead over budget: {'; '.join(over)}")
print("[bench] overhead budgets passed")
PY

# Negative-scaling gate: with >= 4 cores, one worker per core must
# beat 1 thread on both the cold and warm paper-scale runs.
if [ "$cores" -ge 4 ]; then
    python3 - BENCH_tier1.json "$wide" <<'PY'
import json, sys

scaling = json.load(open(sys.argv[1]))["thread_scaling"]
bad = {k: v for k, v in scaling.items() if v >= 1.0}
if bad:
    sys.exit(f"[bench] negative thread scaling: {bad} (threads_{sys.argv[2]} should be faster)")
print(f"[bench] thread-scaling gate passed: {sys.argv[2]} threads beat 1 thread")
PY
else
    echo "[bench] $cores core(s) < 4: thread-scaling gate skipped (ratio recorded only)"
fi

# Gates (--gate only), both through the one report/history gate: the
# fresh BENCH_tier1.json against the committed one (a decode-throughput
# drop regresses like a slower stage; a branch with no committed
# baseline skips this), then the newest warm run, which the runs above
# appended to $ledger, against the median of its predecessors (same
# command/scale/threads; the first invocation has nothing to gate
# against and passes). Time metrics under 10 ms never gate: at paper
# scale the few-millisecond stages are scheduler noise.
if [ $gate -eq 1 ]; then
    gate_flags=(--max-regress-pct 20 --min-wall-ms 10)
    if git show HEAD:BENCH_tier1.json > "$work/bench-base.json" 2>/dev/null; then
        echo "[bench] gating BENCH_tier1.json against HEAD's"
        ./target/release/divide report --baseline "$work/bench-base.json" \
            --candidate BENCH_tier1.json "${gate_flags[@]}"
    else
        echo "[bench] no committed BENCH_tier1.json: record gate skipped"
    fi
    echo "[bench] gating the newest warm run against the ledger trend"
    ./target/release/divide history --ledger "$ledger" "${gate_flags[@]}"
fi

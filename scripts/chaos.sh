#!/usr/bin/env bash
# Chaos harness: run N seeded fault plans against `divide --scale small
# all` and assert the robustness contract (DESIGN.md §13) — every run
# either produces artifacts byte-identical to a fault-free reference or
# exits with a typed nonzero code; never a raw panic, never a torn or
# partial artifact, never a leftover *.tmp staging file. Each plan
# prints one line with its plan and exit code, so two builds' logs can
# be diffed plan by plan.
#
#   CHAOS_PLANS=N   number of seeded plans to run (default 20)
#
# Exits non-zero on the first contract violation.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=./target/release/divide
PLANS="${CHAOS_PLANS:-20}"

if [ ! -x "$BIN" ]; then
    echo "[chaos] building divide (release)"
    cargo build --release -q -p divide-cli
fi

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
cache="$scratch/cache"
ref="$scratch/ref"

echo "[chaos] fault-free reference run (prewarms the shared cache)"
"$BIN" --scale small all --out "$ref" --cache "$cache" -q >/dev/null

# Plan templates cycled over the seeds. Sites chosen to hit every
# choke point: artifact writes (io.write at staging, io.fsync and
# io.rename at the commit, plus a panic mid-commit), warm-cache decode,
# the ledger appender, a stage abort, and worker-chunk panic/delay on
# the pool.
templates=(
    "io.write:p=0.4"
    "io.rename:nth=2"
    "io.fsync:p=0.6"
    "cache.decode:nth=1"
    "ledger.append:p=1"
    "stage.fig3:nth=1"
    "pool.chunk:nth=3,mode=panic"
    "pool.chunk:nth=2,mode=delay,delay_ms=20"
    "io.fsync:nth=1,mode=panic"
)

fail() {
    echo "[chaos] FAIL (plan \"$plan\"): $1" >&2
    sed 's/^/[chaos]   stderr: /' "$errfile" | tail -20 >&2
    exit 1
}

identical=0
typed=0
for i in $(seq 1 "$PLANS"); do
    tmpl="${templates[$(( (i - 1) % ${#templates[@]} ))]}"
    plan="seed=$i;$tmpl"
    out="$scratch/run$i"
    errfile="$scratch/run$i.stderr"
    set +e
    "$BIN" --threads 4 --scale small all \
        --out "$out" --cache "$cache" --fault-plan "$plan" -q \
        >"$scratch/run$i.stdout" 2>"$errfile"
    code=$?
    set -e

    # 1. Typed exit codes only: 0 (survived, possibly degraded) or
    #    1 (typed runtime failure). 101 is an uncaught panic; anything
    #    else is an unclassified crash.
    case "$code" in
        0|1) ;;
        *) fail "untyped exit code $code" ;;
    esac

    # 2. Zero raw panics on stderr.
    if grep -q "panicked at" "$errfile"; then
        fail "raw panic output on stderr"
    fi

    # 3. No *.tmp staging files left anywhere.
    leftover="$(find "$out" "$cache" -name '*.tmp*' 2>/dev/null || true)"
    if [ -n "$leftover" ]; then
        fail "leftover staging files: $leftover"
    fi

    # 4. Every artifact that exists is whole: JSON parses, CSV/SVG/
    #    folded files end in a newline (a torn write would not).
    python3 - "$out" <<'PY' || fail "torn or truncated artifact"
import json, pathlib, sys

out = pathlib.Path(sys.argv[1])
for p in sorted(out.iterdir()):
    if not p.is_file():
        continue
    body = p.read_bytes()
    assert body, f"empty artifact {p.name}"
    if p.suffix == ".json":
        json.loads(body)
    else:
        assert body.endswith(b"\n"), f"unterminated artifact {p.name}"
PY

    # 5. A surviving run's artifacts are byte-identical to the
    #    fault-free reference. The manifest (timings, fault counters)
    #    is bookkeeping, not an artifact.
    if [ "$code" -eq 0 ]; then
        diff -r --exclude run_manifest.json "$ref" "$out" >/dev/null \
            || fail "exit-0 run artifacts differ from the reference"
        identical=$((identical + 1))
    else
        typed=$((typed + 1))
    fi
    echo "[chaos] plan $i \"$plan\": exit $code"
    rm -rf "$out"
done
echo "[chaos] $PLANS plans: $identical survived byte-identical, $typed failed typed"

echo "[chaos] interrupt-then-rerun leg"
# A run that aborts before its commit leaves no file behind: every
# artifact is staged until the commit after the last stage, so the
# output directory stays empty and the cache keeps its exact files
# (no snapshot, no ledger line). At 2 threads qoe computes on the side
# lane while the main lane stages the outputs of the stages before it,
# so this checks that staged files never land. Rerunning the same
# command into the same --out completes the run.
rout="$scratch/rerun"
errfile="$scratch/rerun.stderr"
plan="seed=99;stage.qoe:nth=1"
cache_before="$(cd "$cache" && find . -type f -exec sha256sum {} + | sort)"
set +e
"$BIN" --threads 2 --scale small all --out "$rout" --cache "$cache" \
    --fault-plan "$plan" -q >/dev/null 2>"$errfile"
code=$?
set -e
[ "$code" -eq 1 ] || fail "interrupted run expected exit 1, got $code"
left="$(find "$rout" -type f 2>/dev/null || true)"
[ -z "$left" ] || fail "aborted run left files in its output: $left"
[ "$(cd "$cache" && find . -type f -exec sha256sum {} + | sort)" = "$cache_before" ] \
    || fail "aborted run changed the cache"
plan="rerun without faults"
"$BIN" --threads 2 --scale small all --out "$rout" --cache "$cache" -q \
    >/dev/null 2>"$errfile" \
    || fail "rerun failed"
diff -r --exclude run_manifest.json "$ref" "$rout" >/dev/null \
    || fail "rerun differs from the reference"
echo "[chaos] rerun after the interrupt is byte-identical to the reference"

echo "[chaos] OK"

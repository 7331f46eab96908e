#!/usr/bin/env bash
# Lint gate: formatting and clippy, both as hard failures. Covers the
# whole workspace including the vendored shims (they are workspace
# members and compile into every build).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "[lint] cargo metadata --offline --locked (root and benchmark lock files)"
# A change to the crate graph that leaves a lock file stale fails here,
# not in the benchmark's --locked build.
for manifest in Cargo.toml benchmark/Cargo.toml; do
    cargo metadata --offline --locked --format-version 1 --manifest-path "$manifest" >/dev/null
done

echo "[lint] bash -n scripts/*.sh"
# Syntax-checks every script, including bench.sh, which tier-1 never
# runs.
for script in scripts/*.sh; do
    bash -n "$script"
done

echo "[lint] cargo fmt --all --check"
cargo fmt --all --check

echo "[lint] cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "[lint] unwrap/expect deny-list (scripts/unwrap_allowlist.txt)"
# A panic on bad input is not a typed failure (DESIGN.md §13): new
# non-test code must return errors. Provable invariants go on the
# allowlist, keyed by "<path>: <trimmed line>". An entry that matches
# no line any more fails too, so the list cannot outlive its code.
python3 - <<'PY'
import pathlib, re, sys

allow = set()
for raw in open("scripts/unwrap_allowlist.txt"):
    raw = raw.rstrip("\n")
    if raw and not raw.startswith("#"):
        allow.add(raw)

pat = re.compile(r"\.unwrap\(\)|\.expect\(")
bad, used = [], set()
for f in sorted(pathlib.Path("crates").glob("*/src/**/*.rs")):
    in_test = False
    for line in f.read_text().splitlines():
        # Test modules tail every file in this workspace; stop scanning
        # at the first cfg(test) marker.
        if "#[cfg(test)]" in line:
            in_test = True
        if in_test:
            continue
        s = line.strip()
        if s.startswith("//") or not pat.search(s):
            continue
        key = f"{f}: {s}"
        if key in allow:
            used.add(key)
        else:
            bad.append(key)

stale = sorted(allow - used)
if bad:
    print("[lint] .unwrap()/.expect( in non-test code (return a typed",
          file=sys.stderr)
    print("[lint] error, or allowlist a provable invariant):",
          file=sys.stderr)
    for key in bad:
        print(f"[lint]   {key}", file=sys.stderr)
if stale:
    print("[lint] stale allowlist entries (delete them from",
          file=sys.stderr)
    print("[lint] scripts/unwrap_allowlist.txt):", file=sys.stderr)
    for key in stale:
        print(f"[lint]   {key}", file=sys.stderr)
if bad or stale:
    sys.exit(1)
print(f"[lint] unwrap deny-list clean ({len(used)} allowlisted)")
PY

echo "[lint] OK"

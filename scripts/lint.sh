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

echo "[lint] cargo check --locked benchmark/Cargo.toml"
# The benchmark reads the workspace crates' public API; a change that
# breaks it fails here, not only in the benchmark's own build. The
# target dir sits under target/, so nothing is written in benchmark/.
cargo check --offline --locked --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir target/benchmark-check

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

echo "[lint] every DIVIDE_* variable the code reads is in divide --help"
# HELP in crates/cli/src/main.rs is the one list of every option. A
# variable is read where its name appears as a string literal in
# non-test crate code; HELP must list exactly those.
python3 - <<'PY'
import pathlib, re, sys

main = pathlib.Path("crates/cli/src/main.rs").read_text()
help_text = main.split('const HELP: &str = "', 1)[1].split('";', 1)[0]
listed = set(re.findall(r"\bDIVIDE_[A-Z_]+", help_text))

read = {}
for f in sorted(pathlib.Path("crates").glob("*/src/**/*.rs")):
    for line in f.read_text().split("#[cfg(test)]", 1)[0].splitlines():
        if line.strip().startswith("//"):
            continue
        for name in re.findall(r'"(DIVIDE_[A-Z_]+)"', line):
            read.setdefault(name, str(f))

missing = sorted(set(read) - listed)
stale = sorted(listed - set(read))
for name in missing:
    print(f"[lint] {read[name]} reads {name}, which divide --help omits",
          file=sys.stderr)
for name in stale:
    print(f"[lint] divide --help lists {name}, which no code reads",
          file=sys.stderr)
if missing or stale:
    sys.exit(1)
print(f"[lint] divide --help lists all {len(read)} DIVIDE_* variables")
PY

echo "[lint] OK"

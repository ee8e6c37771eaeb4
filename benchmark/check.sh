#!/usr/bin/env bash
# Builds the benchmark offline, runs its unit tests and the --smoke scale
# of every workload (untraced, at the other engine width, and traced), and
# verifies that BENCHMARK.json and the runner name the same workloads and
# metrics, one to one. The hook a CI job calls; exits non-zero on any
# mismatch or failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/yala-benchmark"

# The contract file is generated from the runner's tables; it must not
# have been edited by hand since.
"$bin" describe | diff -u BENCHMARK.json - || {
    echo "BENCHMARK.json differs from 'yala-benchmark describe'" >&2
    exit 1
}

out=".bench_out/check.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT
"$bin" run --smoke --trace 1 --out "$out" | tee "$out/log"

python3 - "$out/log" <<'PY'
import json, sys

spec = json.load(open("BENCHMARK.json"))
want = {
    0: [m["name"] for m in spec["end_to_end"]],
    1: [m["name"] for m in spec["per_layer"]],
}
units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
workloads = [w["name"] for w in spec["workloads"]]

seen = {}  # (workload, traced) -> metric names of the result line
current = None
for line in open(sys.argv[1]):
    if line.startswith("workload "):
        current = (line.split()[1], int("[traced]" in line))
    elif line.startswith('{"correct":'):
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["attempted"] >= 1, (current, result)
        for name, m in result["metrics"].items():
            assert m["unit"] == units.get(name), (current, name, m["unit"])
        seen[current] = list(result["metrics"])

bad = 0
for w in workloads:
    for traced in (0, 1):
        got = seen.get((w, traced))
        if got != want[traced]:
            bad += 1
            missing = sorted(set(want[traced]) - set(got or []))
            extra = sorted(set(got or []) - set(want[traced]))
            print(f"{w} trace={traced}: missing {missing} extra {extra}", file=sys.stderr)
extra_workloads = {w for w, _ in seen} - set(workloads)
if extra_workloads:
    bad += 1
    print(f"runner has workloads BENCHMARK.json lacks: {sorted(extra_workloads)}", file=sys.stderr)
if bad:
    sys.exit(1)
print(f"check.sh: {len(workloads)} workloads, {len(want[0])} end-to-end and "
      f"{len(want[1])} per-layer metrics match BENCHMARK.json one to one")
PY

#!/usr/bin/env bash
# Reconciliation + schema self-test of the ppmark harness: unit tests,
# then a smoke run (tiny scales, well under a minute) checked from the
# outside. This is what CI will call.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target}

cargo test --offline --quiet --manifest-path "$here/Cargo.toml"

log=$here/out/selftest.log
mkdir -p "$here/out"
"$here/run.sh" --smoke --seed "${1:-1}" >"$log"

python3 - "$root/BENCHMARK.json" "$log" "$here/out" <<'EOF'
import json, re, sys

decl = json.load(open(sys.argv[1]))
log = open(sys.argv[2]).read().splitlines()
out_dir = sys.argv[3]
groups = {"0": decl["end_to_end"], "1": decl["per_layer"]}
name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Split the log into one section per child run.
sections, current = [], None
for line in log:
    m = re.match(r"^== ppmark (\S+) seed=\S+ seconds=\S+ trace=([01])$", line)
    if m:
        current = {"workload": m.group(1), "trace": m.group(2), "lines": []}
        sections.append(current)
    elif current is not None:
        current["lines"].append(line)

want = {(w["name"], t) for w in decl["workloads"] for t in "01"}
got = {(s["workload"], s["trace"]) for s in sections}
assert got == want, f"runs differ from workloads x trace: {sorted(got ^ want)}"

per_layer = {}
for s in sections:
    where = f'{s["workload"]} trace={s["trace"]}'
    declared = {m["name"]: m["unit"] for m in groups[s["trace"]]}
    printed = {}
    for line in s["lines"]:
        if line.startswith(("env.", "{", "FAILED", "==")):
            continue
        parts = line.split()
        assert len(parts) == 3, f"{where}: unexpected line {line!r}"
        name, value, unit = parts
        assert name_re.match(name), f"{where}: bad metric name {name!r}"
        assert name not in printed, f"{where}: {name} printed twice"
        assert declared.get(name) == unit, f"{where}: {name} printed as {unit}, declared {declared.get(name)}"
        float(value)
        printed[name] = float(value)
    missing = set(declared) - set(printed)
    assert not missing, f"{where}: declared but not printed: {sorted(missing)}"
    result = json.loads([l for l in s["lines"] if l.startswith("{")][-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result['failed']} failed"
    assert set(result["metrics"]) == set(declared), where
    if s["trace"] == "1":
        per_layer[s["workload"]] = {k: v["value"] for k, v in result["metrics"].items()}

for workload, metrics in per_layer.items():
    spans = json.load(open(f"{out_dir}/trace-{workload}.json"))
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end_us"] >= s["start_us"], f"{workload}: span {s['name']} ends before it starts"
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["trial"] == s["trial"], f"{workload}: {s['name']} leaves its parent's trial"
            assert p["start_us"] - 1 <= s["start_us"] and s["end_us"] <= p["end_us"] + 1, \
                f"{workload}: {s['name']} lies outside its parent {p['name']}"
    run = next(s for s in spans if s["name"] == "pipeline.run")
    run_s = (run["end_us"] - run["start_us"]) / 1e6
    kernels = sum(s["end_us"] - s["start_us"] for s in spans
                  if s["parent"] == run["id"] and s["name"].startswith("pipeline.kernel")) / 1e6
    rebuilt = kernels + metrics["core.validate.s"]
    assert abs(rebuilt / run_s - 1) <= 0.05, \
        f"{workload}: kernel spans + core.validate.s = {rebuilt:.4f} s vs traced run {run_s:.4f} s"
    assert metrics["serve.service.jobs_conserved"] == 1, workload

print(f"selftest: {len(sections)} runs, every declared metric printed once with its unit; traces reconcile")
EOF

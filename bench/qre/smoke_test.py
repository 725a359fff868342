#!/usr/bin/env python3
"""Smoke test of the benchmark (ctest bench_qre_smoke).

Runs every workload of BENCHMARK.json at TPC-H scale 0.001 for half a second,
untraced and traced, and checks that each run is correct with no failed
operation, that the untraced result names every end-to-end metric and the
traced one every per-layer metric, and that trace spans cover at least 95%
of the replay's wall time (a run whose replay diverged from the engine
reports correct = false).
"""

import argparse
import json
import subprocess
import sys

MIN_TRACE_COVERAGE = 0.95


def run(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", "42", "--seconds", "0.5",
           "--trace", "1" if trace else "0", "--scale", "0.001"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    proc.returncode,
                                                    proc.stderr))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark-json", required=True)
    args = ap.parse_args()
    with open(args.benchmark_json) as f:
        spec = json.load(f)

    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((False, spec["end_to_end"]),
                              (True, spec["per_layer"])):
            try:
                result = run(args.binary, name, trace)
            except (AssertionError, subprocess.TimeoutExpired,
                    ValueError) as e:
                failures.append("%s: %s" % (name, e))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (name, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: %d of %d operations failed" % (
                    name, result["failed"], result["attempted"]))
            if result["attempted"] < 1:
                failures.append("%s: nothing attempted" % name)
            missing = [m["name"] for m in wanted
                       if m["name"] not in result["metrics"]]
            if missing:
                failures.append("%s: missing metrics %s" % (name, missing))
            if trace:
                coverage = result["metrics"].get("trace.coverage", {})
                if coverage.get("value", 0) < MIN_TRACE_COVERAGE:
                    failures.append("%s: trace.coverage %s < %s" % (
                        name, coverage.get("value"), MIN_TRACE_COVERAGE))
        print("%s: checked" % name)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

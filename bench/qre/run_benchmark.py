#!/usr/bin/env python3
"""Runs the whole benchmark N times and records or compares the results.

    python3 bench/qre/run_benchmark.py [--runs 5] [--seed 42] [--seconds S]
                                       [--out FILE]
    python3 bench/qre/run_benchmark.py --compare A.json B.json

The first form builds bench_qre (run.py), runs every workload of
BENCHMARK.json in its own process --runs times at --seed, plus one traced
run, prints every metric with its unit (median and quartiles over the
runs), and writes bench/qre/results/<git sha>.json (or --out). It exits
nonzero if any run reported an incorrect answer or if a workload's
answers_digest differed between runs.

--compare labels each (end-to-end metric, workload) pair of two results
files, A the parent and B the change, using the bounds in BENCHMARK.json:
  better       B's median beats A's by more than A's quartile spread;
  worse        B's median is worse than A's by more than the bound;
  unresolved   a side's quartile spread exceeds the bound, unless every B
               run beats (or loses to) every A run;
  within bound otherwise.
It exits nonzero if any pair is worse or unresolved. Quartiles are
statistics.quantiles(method="inclusive"): with 5 runs they are the 2nd and
4th values, so one outlying run does not decide the spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
import run  # noqa: E402  (builds and launches one run; in this directory)


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=ROOT, capture_output=True, text=True)
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = med
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def one_run(binary, workload, seed, seconds, trace):
    cmd = run.command(binary, workload, seed, seconds, trace)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s produced no result:\n%s" % (workload,
                                                           proc.stderr))
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        if key in ("answers_digest", "scale"):
            result[key] = value
    return result


def record(args):
    spec = load_benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    binary = run.build()
    if binary is None:
        return 2
    sha, dirty = git_sha()
    out = {"git_sha": sha, "src_dirty": dirty, "build_type": "Release",
           "nproc": os.cpu_count(), "seed": args.seed, "seconds": seconds,
           "runs": args.runs, "workloads": {}}
    ok = True
    for w in [workload["name"] for workload in spec["workloads"]]:
        runs = [one_run(binary, w, args.seed, seconds, False)
                for _ in range(args.runs)]
        traced = [one_run(binary, w, args.seed, seconds, True)]
        digests = sorted({r.get("answers_digest") for r in runs + traced})
        entry = {
            "scale": float(runs[0].get("scale", 0)),
            "answers_digest": digests,
            "correct": [r["correct"] for r in runs + traced],
            "attempted": [r["attempted"] for r in runs + traced],
            "failed": [r["failed"] for r in runs + traced],
            "metrics": {}, "per_layer": {},
        }
        for target, results in (("metrics", runs), ("per_layer", traced)):
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                entry[target][name] = dict(
                    unit=results[0]["metrics"][name]["unit"],
                    **summarize(values))
        out["workloads"][w] = entry
        good = all(entry["correct"]) and len(digests) == 1
        ok = ok and good
        print("%s (scale %s, %d runs, digest %s)%s" % (
            w, entry["scale"], args.runs, ",".join(digests),
            "" if good else "  FAILED"))
        for target in ("metrics", "per_layer"):
            for name, m in entry[target].items():
                print("  %-30s %14.4f %-6s [%.4f, %.4f]" % (
                    name, m["median"], m["unit"], m["q1"], m["q3"]))
    path = args.out or os.path.join(HERE, "results", sha + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + path)
    return 0 if ok else 1


def label(metric, a, b):
    """Labels one (metric, workload) pair; a and b are summaries."""
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    sign = 1 if lower else -1  # positive change = worse

    def rel_spread(s):
        return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0

    change = sign * (b["median"] - a["median"]) / a["median"]
    if lower:
        all_better = max(b["values"]) < min(a["values"])
        all_worse = min(b["values"]) > max(a["values"])
    else:
        all_better = min(b["values"]) > max(a["values"])
        all_worse = max(b["values"]) < min(a["values"])
    if max(rel_spread(a), rel_spread(b)) > bound:
        if all_better:
            return "better", change
        if all_worse:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if -change > rel_spread(a):
        return "better", change
    return "within bound", change


def compare(path_a, path_b):
    spec = load_benchmark_spec()
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bad = 0
    print("A = %s, B = %s" % (a["git_sha"], b["git_sha"]))
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            print("%-10s missing from a results file" % name)
            bad += 1
            continue
        for metric in spec["end_to_end"]:
            ma = a["workloads"][name]["metrics"].get(metric["name"])
            mb = b["workloads"][name]["metrics"].get(metric["name"])
            if ma is None or mb is None:
                print("%-10s %-18s missing" % (name, metric["name"]))
                bad += 1
                continue
            verdict, change = label(metric, ma, mb)
            bad += verdict in ("worse", "unresolved")
            print("%-10s %-18s %12.4f -> %12.4f %-6s %+7.2f%% worse  "
                  "(bound %.0f%%)  %s" % (
                      name, metric["name"], ma["median"], mb["median"],
                      metric["unit"], 100 * change, 100 * metric["bound"],
                      verdict))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=0,
                    help="measured seconds per run (default: run_seconds "
                         "from BENCHMARK.json)")
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())

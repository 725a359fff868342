#!/usr/bin/env python3
"""Builds and runs one benchmark run (README.md in this directory).

    python3 bench/qre/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench_qre from source with CMake into $CARGO_TARGET_DIR/qre
(default: .bench_build/qre under the repository root), then runs it. The
last line of stdout is the run's result JSON. A traced run also writes its
spans to trace_<workload>.json in the build directory. Exits nonzero,
without a result, when the FastQRE sources are missing or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# A run measures for --seconds plus set-up and verification; anything
# beyond this is a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "qre")


def build():
    """Returns the path of a freshly built bench_qre, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: FastQRE sources not found under " + ROOT,
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "bench_qre"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, "bench_qre")


def command(binary, workload, seed, seconds, trace):
    """The bench_qre command line of one run."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "trace_%s.json" % workload)]
    return cmd


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    cmd = command(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.flush()
    # A terminated run.py still stops and reaps the run (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CLI-level partial-result contract test for `fastqre reverse`.

Drives the real binary end to end:

  1. gen-tpch a tiny deterministic database into a scratch directory,
  2. demo-rout L01 to get an R_out with a known generating query,
  3. reverse with FASTQRE_FAULTS=answer-found=cancel@1 and --stats-json:
     the run proves one answer, then the injected cancel truncates the
     enumeration.  The contract under test (tools/fastqre_cli.cc): exit
     code 3, the proved SQL still printed, and every --stats-json line —
     including the truncation tail with "failure_reason":"cancelled" —
     valid JSON,
  4. the same reverse without faults: exit 0 and a found:true JSON line,
  5. reverse with no arguments, or with a malformed or out-of-range
     numeric flag: usage error, exit 2 (the latter naming the flag).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

FAILURES = []


def check(cond, message):
    if not cond:
        FAILURES.append(message)
        print("FAIL: " + message)
    return cond


def run(binary, args, extra_env=None):
    env = dict(os.environ)
    env.pop("FASTQRE_FAULTS", None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [binary] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        timeout=300,
    )
    return proc


def stats_json_lines(stdout):
    """Parses every --stats-json line (the ones that are JSON objects)."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            out.append(json.loads(line))  # raises on invalid JSON = test bug
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True, help="path to the fastqre CLI")
    opts = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="fastqre_cli_test_") as scratch:
        db = os.path.join(scratch, "db")
        rout = os.path.join(scratch, "rout.csv")

        proc = run(opts.binary, ["gen-tpch", "--out", db, "--scale", "0.001",
                                 "--seed", "3"])
        check(proc.returncode == 0, "gen-tpch failed: " + proc.stderr)

        proc = run(opts.binary, ["demo-rout", "--db", db, "--query", "L01",
                                 "--out", rout])
        check(proc.returncode == 0, "demo-rout failed: " + proc.stderr)

        # --- Stopped run: proved prefix + cancelled tail, exit 3. ---------
        proc = run(
            opts.binary,
            ["reverse", "--db", db, "--rout", rout, "--all", "5",
             "--stats-json"],
            extra_env={"FASTQRE_FAULTS": "answer-found=cancel@1"},
        )
        check(proc.returncode == 3,
              "stopped run: want exit 3, got %d (stderr: %s)"
              % (proc.returncode, proc.stderr))
        check("no generating query: cancelled" in proc.stdout,
              "stopped run: missing cancelled tail line in stdout:\n"
              + proc.stdout)
        check("SELECT" in proc.stdout,
              "stopped run: the answer proved before the stop must still be "
              "printed:\n" + proc.stdout)
        stats = stats_json_lines(proc.stdout)
        check(len(stats) >= 2,
              "stopped run: want >=2 stats-json lines (proved + tail), got %d"
              % len(stats))
        if stats:
            check(stats[0].get("found") is True,
                  "stopped run: first stats line must be the proved answer: "
                  + json.dumps(stats[0]))
            tail = stats[-1]
            check(tail.get("found") is False,
                  "stopped run: last stats line must be the truncation tail: "
                  + json.dumps(tail))
            check(tail.get("failure_reason") == "cancelled",
                  "stopped run: tail failure_reason must be 'cancelled': "
                  + json.dumps(tail))
            check(tail.get("cancelled") is True,
                  "stopped run: tail must report cancelled:true: "
                  + json.dumps(tail))

        # --- Clean run: exit 0, found:true JSON. --------------------------
        proc = run(opts.binary,
                   ["reverse", "--db", db, "--rout", rout, "--stats-json"])
        check(proc.returncode == 0,
              "clean run: want exit 0, got %d (stderr: %s)"
              % (proc.returncode, proc.stderr))
        stats = stats_json_lines(proc.stdout)
        check(len(stats) == 1 and stats[0].get("found") is True,
              "clean run: want one found:true stats line, got: "
              + proc.stdout)

        # --- Usage error: exit 2. -----------------------------------------
        proc = run(opts.binary, ["reverse"])
        check(proc.returncode == 2,
              "usage error: want exit 2, got %d" % proc.returncode)
        # A malformed or out-of-range numeric flag is a usage error that
        # names the flag, never a silent fallback to its default.
        for flag, value in (("--budget", "5s"), ("--threads", "x"),
                            ("--walk-cache-mb", "1e3"), ("--all", "0")):
            proc = run(opts.binary, ["reverse", "--db", db, "--rout", rout,
                                     flag, value])
            check(proc.returncode == 2,
                  "%s %s: want exit 2, got %d" % (flag, value,
                                                  proc.returncode))
            check(flag in proc.stderr,
                  "%s %s: stderr must name the flag: %s"
                  % (flag, value, proc.stderr))

    if FAILURES:
        print("%d check(s) failed" % len(FAILURES))
        return 1
    print("cli_partial_results: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

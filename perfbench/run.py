#!/usr/bin/env python3
"""Simulate->analyze benchmark of p2pgen.

Builds the `perfbench` binary from this checkout's sources (Release, into
.bench_build/perfbench) and runs one workload:

    python3 perfbench/run.py --workload materialized-clean --seed 20040315 \
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer ledger with --trace 1.  At the default seed the
trace digest, Table-2 rows and fit digest are compared with the values
pinned in perfbench/ledger.json (`--ledger` substitutes another file; the
self-test uses that to plant a wrong pin).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("materialized-clean", "durable-streaming", "reanalyze-streaming")
# A measured run must end well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(BUILD_DIR, "perfbench")


def pin_args(ledger_path, workload, seed):
    with open(ledger_path) as f:
        pins = json.load(f)["pins"]
    pin = pins["workloads"].get(workload)
    if seed != pins["seed"] or pin is None:
        return []
    return ["--pin-digest", pin["trace_digest"],
            "--pin-filters", ",".join(str(v) for v in pin["table2_rows"]),
            "--pin-fits", pin["fits_digest"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20040315)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", default=os.path.join(HERE, "ledger.json"))
    args = parser.parse_args()

    binary = build()
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", work,
           "--spans-out", os.path.join(
               spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    cmd += pin_args(args.ledger, args.workload, args.seed)
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

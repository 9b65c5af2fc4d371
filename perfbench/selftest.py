#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

Runs materialized-clean at the default seed twice, briefly: once with the
pins of perfbench/ledger.json, which must report no failed check, and once
with a copy whose pinned trace digest is wrong, which must report
ops_failed_frac > 0.  Exits 0 when both hold.

    python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = "materialized-clean"


def run(ledger_path):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
           "--seed", "20040315", "--seconds", "1", "--trace", "0",
           "--ledger", ledger_path]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.exit("selftest: benchmark exited with %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    good_path = os.path.join(HERE, "ledger.json")
    with open(good_path) as f:
        ledger = json.load(f)
    pin = ledger["pins"]["workloads"][WORKLOAD]
    digest = pin["trace_digest"]
    pin["trace_digest"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    bad_path = os.path.join(ROOT, ".bench_build", "selftest-ledger.json")
    os.makedirs(os.path.dirname(bad_path), exist_ok=True)
    with open(bad_path, "w") as f:
        json.dump(ledger, f)

    good = run(good_path)
    bad = run(bad_path)
    frac = bad["failed"] / bad["attempted"]
    print("true pins:  correct=%s failed=%d of %d" %
          (good["correct"], good["failed"], good["attempted"]))
    print("wrong pin:  correct=%s failed=%d of %d, ops_failed_frac=%.4f" %
          (bad["correct"], bad["failed"], bad["attempted"], frac))
    if good["failed"] != 0 or not good["correct"]:
        sys.exit("selftest: FAILED - the true pins do not pass")
    if frac <= 0 or bad["correct"]:
        sys.exit("selftest: FAILED - a wrong pin went unnoticed")
    print("selftest: ok")


if __name__ == "__main__":
    main()

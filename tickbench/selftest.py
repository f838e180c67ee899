#!/usr/bin/env python3
"""Self-tests of the tick benchmark.

    python3 tickbench/selftest.py

1. `tick_bench --selftest`: for every workload the same seed builds the same
   inputs and assessments, another seed builds other inputs, and the layer
   decomposition equals RiskMonitor::update on a 200-tick prefix.
2. The default-seed digests equal tickbench/digests.json (README.md says how
   to regenerate it when a change is meant to alter inputs or assessments).
3. Per workload, run.py with --trace 0 and twice with --trace 1 prints exactly
   BENCHMARK.json's metric names and units with no failed tick, and the two
   traced runs report identical work counts.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the entry point's build and metric helpers)

WORKLOADS = [w["name"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
TIMED_UNITS = {"us", "ns", "s"}
TIMED_FRACTIONS = {"tick.unattributed_frac", "trace.overhead_frac"}


def check(ok, message):
    if not ok:
        run.fail("selftest: " + message)


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    check(proc.returncode == 0, f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace}: correct={result['correct']} failed={result['failed']}")
    run.check_metrics(result["metrics"], trace)
    return result["metrics"]


def work_counts(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] not in TIMED_UNITS and name not in TIMED_FRACTIONS}


def main():
    run.build()
    proc = subprocess.run([str(run.BINARY), "--selftest", "--require-release"],
                          stdout=subprocess.PIPE, text=True, timeout=600)
    check(proc.returncode == 0, f"tick_bench --selftest exited with {proc.returncode}")
    digests = json.loads(proc.stdout.strip().splitlines()[-1])
    stored_path = HERE / "digests.json"
    check(digests == json.loads(stored_path.read_text()),
          f"default-seed digests {digests} differ from {stored_path}")

    for workload in WORKLOADS:
        seed = digests[workload]["seed"]
        run_once(workload, seed, 0)
        first = work_counts(run_once(workload, seed, 1))
        second = work_counts(run_once(workload, seed, 1))
        check(first == second, f"{workload}: work counts differ between runs: {first} vs {second}")
        print(f"selftest {workload}: metrics match BENCHMARK.json, "
              f"{len(first)} work counts repeat exactly")
    print("selftest: ok")


if __name__ == "__main__":
    main()

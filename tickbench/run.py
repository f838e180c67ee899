#!/usr/bin/env python3
"""Tick benchmark entry point.

Builds tick_bench from source (tickbench/CMakeLists.txt, Release, into
.bench_build/tickbench), runs one workload, checks the result, and prints the
result object as the last line of standard output:

    python3 tickbench/run.py --workload typology_mix --seed 7 --seconds 20 --trace 0

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics (and writes the span trace to .bench_build/traces/). The
line before the result carries the run context (machine, compiler, sources,
digests). Any failed build, gate, digest or metric-name check exits non-zero
without printing a result.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "tickbench"
BINARY = BUILD / "tick_bench"
TRACES = ROOT / ".bench_build" / "traces"
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"tickbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "tick_bench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_context():
    """Git sha when the checkout is a repository, plus a hash of src/."""
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            tree.update(str(path.relative_to(ROOT)).encode())
            tree.update(path.read_bytes())
    return {"git_sha": sha.stdout.strip() if sha and sha.returncode == 0 else "unavailable",
            "src_sha256": tree.hexdigest()}


def check_digests(result):
    """For the stored default seed, inputs and assessments must be unchanged."""
    stored = json.loads((HERE / "digests.json").read_text()).get(result["workload"])
    if stored is None or stored["seed"] != result["seed"]:
        return
    for key in ("input_digest", "assessment_digest"):
        if stored[key] != result[key]:
            fail(f"{result['workload']} seed {result['seed']}: {key} {result[key]} "
                 f"!= stored {stored[key]}")


def check_metrics(metrics, trace):
    """Every printed metric is one BENCHMARK.json names, with its unit."""
    expected = expected_metrics(trace)
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != expected:
        fail(f"metrics {sorted(printed.items())} do not match BENCHMARK.json "
             f"{sorted(expected.items())}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", "--require-release"]
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={TRACES / f'{args.workload}-seed{args.seed}.json'}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"tick_bench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"tick_bench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("tick_bench printed no result")
    result = json.loads(lines[-1])

    check_digests(result)
    check_metrics(result["metrics"], args.trace)
    context = dict(result["context"], **source_context())
    print(json.dumps({"workload": result["workload"], "context": context,
                      "input_digest": result["input_digest"],
                      "assessment_digest": result["assessment_digest"]}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()

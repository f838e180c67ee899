#!/usr/bin/env python3
"""Compares a `tick_bench --selftest` output file with tickbench/digests.json.

    tick_bench --selftest > selftest.out
    python3 tools/check_selftest_digests.py selftest.out

`tick_bench --selftest` replays both workloads at their stored seed and
prints their input and assessment digests as one JSON object on its last
line. Any difference from tickbench/digests.json means an assessment (or an
input) moved. Exits non-zero on a mismatch or an empty file.
"""

import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent.parent / "tickbench" / "digests.json"


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} SELFTEST_OUTPUT")
    lines = Path(argv[1]).read_text().splitlines()
    got = json.loads(lines[-1]) if lines else None
    want = json.loads(DIGESTS.read_text())
    if got != want:
        sys.exit(f"tick_bench --selftest printed {got}, expected {want}")
    print("tick_bench --selftest digests == tickbench/digests.json")


if __name__ == "__main__":
    main(sys.argv)

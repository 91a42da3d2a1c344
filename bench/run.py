"""Benchmark entry point: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload tpcc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every correctness check passed.

The measuring process runs with a fixed ``PYTHONHASHSEED``: string hash
randomisation changes dict and set layouts, which moves host time from
one process to the next without changing any simulated result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
#: Where the traced run writes its spans (ignored by git).
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("tpcc", "ch", "serve", "tpcc-2pc")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds to keep repeating units for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print("error: %s holds no repro package; run from a full checkout"
              % SOURCE, file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run([sys.executable, os.path.abspath(__file__)]
                              + list(argv), env=env).returncode
    sys.path[:0] = [SOURCE, ROOT]
    from bench.harness import run

    report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 out_dir=OUT_DIR if args.trace else None)
    for line in report["lines"]:
        print(line)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }))
    sys.stdout.flush()
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

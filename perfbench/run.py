#!/usr/bin/env python3
"""rbpda benchmark: one workload per invocation, result as JSON on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload erm_single_sample --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload's fixed traced solves and reports the per-layer metrics.
``--seed`` is the solver seed (streams ``0 .. --streams - 1`` are cycled);
``--data-seed`` is the ERM data seed.  The defaults are those of the c09
acceptance check.  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="solver seed")
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="timed window (end-to-end mode)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=7, help="ERM data seed")
    parser.add_argument("--streams", type=int, default=10, help="solver streams cycled per seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pinned before numpy loads: OpenBLAS starts one thread per core by
    # default, and those threads would compete with the solver loop.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["RBPDA_WORKERS"] = "1"
    if not (SRC / "rbpda" / "__init__.py").is_file():
        print(f"error: rbpda sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())

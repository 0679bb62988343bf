"""Paired in-process A/B timing of one benchmark workload on two source trees.

    python tools/ab_runs.py TREE_A TREE_B WORKLOAD [--rounds N]

TREE_A and TREE_B are checkouts of this repository.  Each tree's
``src/rbpda`` is copied to a scratch package of its own (``rbpda_a``,
``rbpda_b``), and each tree's ``perfbench/workloads.py`` is loaded against
its copy, so both sides run the workload's own set-up, solver configs and
calls, unedited, in one process.  Every round is a pair: one call of the
workload on each tree, on the same stream, in alternating order.  The two
calls must give the same bits (iterates, averages, their weights and budget
counts), else the script fails.

It prints the median of the per-pair time ratio B/A, its quartiles and the
number of pairs in which B was faster.  Separate-process benchmark rounds
drift by a few percent between processes; the pairs here share one process,
one heap and one host state, so a ratio of a few percent can be told apart.
The seeds are ``perfbench/run.py``'s defaults: solver seed 1, ERM data seed 7
and 10 streams.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SEED, DATA_SEED, STREAMS = 1, 7, 10  # perfbench/run.py's defaults
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_workloads(tree: Path, label: str, scratch: Path):
    """``tree``'s perfbench workloads module, running on a copy of ``tree``'s rbpda named ``rbpda_<label>``."""
    name = f"rbpda_{label}"
    shutil.copytree(tree / "src" / "rbpda", scratch / name, ignore=shutil.ignore_patterns("__pycache__"))
    for path in sorted((scratch / name).glob("*.py")):
        importlib.import_module(name if path.stem == "__init__" else f"{name}.{path.stem}")
    # workloads.py imports ``rbpda``: while it loads, that name is the copy
    copies = {key: mod for key, mod in sys.modules.items() if key == name or key.startswith(name + ".")}
    aliases = {"rbpda" + key[len(name):]: mod for key, mod in copies.items()}
    if any(key in sys.modules for key in aliases):
        raise RuntimeError("rbpda is already imported; the copies would not be told apart")
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{label}", tree / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    finally:
        for key in aliases:
            del sys.modules[key]
    return module


class Side:
    """One tree's workload, set up once, and the results of its latest call."""

    def __init__(self, module, workload: str, scratch: Path):
        self.wl = module.WORKLOADS[workload]
        self.run = module.experiments.run
        self.ctx = self.wl.setup(DATA_SEED)
        self.scratch = scratch
        self.results = []

    def recording_run(self, problem, config, reference=None, f_star=None):
        result = self.run(problem, config, reference=reference, f_star=f_star)
        self.results.append(result)
        return result

    def call(self, index: int) -> float:
        """Seconds one call of the workload takes; its results replace the last call's."""
        self.results = []
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        t0 = time.perf_counter()
        errors = self.wl.call(self.ctx, SEED, index, STREAMS, self.recording_run, out)
        seconds = time.perf_counter() - t0
        shutil.rmtree(out)
        if errors:
            raise SystemExit(f"call {index}: failed output checks: {errors}")
        return seconds


def fingerprint(results) -> list:
    """The bits of each run's iterates, averages, weights and counts."""
    return [
        (r.x.tobytes(), r.y.tobytes(), r.x_bar.tobytes(), r.y_bar.tobytes(),
         [float(w).hex() for w in r.ergodic_weights],
         r.grad_budget, r.dual_grad_evals, r.restarts, r.iterations)
        for r in results
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--rounds", type=int, default=20, help="pairs of calls to time")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    # pinned before numpy loads, as perfbench/run.py pins them
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["RBPDA_WORKERS"] = "1"
    with tempfile.TemporaryDirectory(prefix="ab_runs_") as tmp:
        scratch = Path(tmp)
        sys.path.insert(0, str(scratch))
        sides = [Side(load_workloads(tree.resolve(), label, scratch), args.workload, scratch)
                 for tree, label in ((args.tree_a, "a"), (args.tree_b, "b"))]
        times = {0: [], 1: []}
        for r in range(-1, args.rounds):  # round -1 warms both sides up, untimed
            index = max(r, 0)
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for s in order:
                times[s].append(sides[s].call(index))
            if fingerprint(sides[0].results) != fingerprint(sides[1].results):
                print(f"round {r}: the trees' results differ in their bits", file=sys.stderr)
                return 1
    ratios = [b / a for a, b in zip(times[0][1:], times[1][1:])]
    median = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else (median,) * 3
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"{args.workload}: {len(ratios)} pairs, same bits; "
          f"A {statistics.median(times[0][1:]) * 1e3:.2f} ms, B {statistics.median(times[1][1:]) * 1e3:.2f} ms per call")
    print(f"B/A median {median:.4f}, quartiles {q1:.4f} .. {q3:.4f}, B faster in {wins}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

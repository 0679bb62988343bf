"""Benchmark workloads and the checks on their outputs.

Every ERM workload solves the robust-classification instance of the c09
acceptance check: ``generate_robust_erm(data_seed, 200, 500, 0.1)`` with
radius 10 and M = 10 primal blocks, against the reference
``erm_reference(problem, iters=20_000, plateau_tol=3e-7)``.  The workloads
differ in which layer of rbpda their time lands in, so that a change to one
layer moves one workload and leaves another alone:

* ``erm_single_sample`` -- N = 200 [0, 1] dual boxes, single-sample steps.
  Many cheap iterations of three component gradients each: the cost is
  per-iteration overhead (step-size evaluation, 1-row ``batch_grad_x``
  calls, prox, full-vector copies, ergodic sums).
* ``erm_increasing_batch`` -- N = 200, increasing batch with restarts and a
  checkpoint every 50 iterations.  Few heavy iterations with batches growing
  to p = 200: row gathers in ``batch_grad_x`` and checkpoint evaluation
  dominate, while the constant step schedule costs nothing.  4000 iterations
  let restarts fire.
* ``erm_entropy`` -- N = 1 entropy-simplex dual block, single-sample steps.
  The only workload where ``grad_y`` reads all 200 rows and the entropy prox
  runs.
* ``game_experiment`` -- ``run_experiment`` on the runner's 4x4 box game with
  2 x 2 blocks, increasing batch, 10 repeats, sup-gap checkpoints every 100
  iterations, one worker.  A tiny problem whose time is Python/numpy call
  overhead, sampling, box prox, sup-gap metrics and the runner itself.

A workload is set up once per measurement (:meth:`setup`) and then called
repeatedly (:meth:`call`); each call performs one or more solver runs through
the ``run_fn`` it is given, which the benchmark wraps for timing and tracing.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import rbpda.experiments as experiments
from rbpda import SaddleProblem, SolverConfig
from rbpda.problems import generate_robust_erm, robust_erm_problem
from rbpda.solver import SolverError

DOMAIN_SLACK = 1e-9  # the solver's own checkpoint tolerance


@dataclass
class Solve:
    """One solver run as seen from outside: its inputs, wall time and outcome."""

    problem: SaddleProblem
    reference: Optional[tuple]
    config: SolverConfig
    wall: float
    result: Optional[object] = None
    error: Optional[str] = None
    scale: float = 1.0  # host-speed factor of the call the solve ran in


@dataclass
class SolveLog:
    """Collects every solver run made through :meth:`timed` wrappers."""

    solves: list = field(default_factory=list)

    def timed(self, run_fn):
        """``run``-compatible callable that times and records each solve."""

        def timed_run(problem, config, reference=None, f_star=None):
            t0 = time.perf_counter()
            try:
                result = run_fn(problem, config, reference=reference, f_star=f_star)
            except SolverError as exc:
                self.solves.append(
                    Solve(problem, reference, config, time.perf_counter() - t0, error=str(exc))
                )
                raise
            self.solves.append(Solve(problem, reference, config, time.perf_counter() - t0, result))
            return result

        return timed_run


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErmWorkload:
    """c09-derived robust-ERM solves, one solver run per call."""

    name: str
    why: str
    mode: str
    n_blocks: int
    iters: int
    checkpoint_every: int
    restart: bool = False
    traced_calls: int = 3
    setup_repeats: int = 3
    min_calls: int = 3
    n: int = 200
    m: int = 500
    m_blocks: int = 10
    radius: float = 10.0
    flip_prob: float = 0.1
    ref_iters: int = 20_000
    ref_plateau_tol: float = 3e-7
    runs_per_call: int = 1

    @property
    def single_sample(self) -> bool:
        return self.mode == "single_sample"

    def setup(self, data_seed: int):
        """Data, problem and reference oracle: everything before the first solve."""
        data = generate_robust_erm(data_seed, self.n, self.m, self.flip_prob)
        problem = robust_erm_problem(
            data, radius=self.radius, m_blocks=self.m_blocks, n_blocks=self.n_blocks
        )
        reference = experiments.erm_reference(
            problem, iters=self.ref_iters, plateau_tol=self.ref_plateau_tol
        )
        return problem, reference

    def config(self, seed: int, stream: int) -> SolverConfig:
        return SolverConfig(
            mode=self.mode,
            eta=0.0,
            max_iters=self.iters,
            seed=seed,
            stream=stream,
            restart_enabled=self.restart,
            checkpoint_every=self.checkpoint_every,
            compute_sup_gap=False,
        )

    def call(self, ctx, seed: int, index: int, streams: int, run_fn, scratch) -> list:
        """Solve stream ``index % streams``; returns call-level check failures."""
        problem, reference = ctx
        try:
            run_fn(problem, self.config(seed, index % streams), reference=reference)
        except SolverError:
            pass  # recorded by the solve log and counted as a failed solve
        return []


@dataclass(frozen=True)
class GameWorkload:
    """``run_experiment`` on the runner's box game; one experiment per call."""

    name: str
    why: str
    iters: int
    repeats: int = 10
    checkpoint_every: int = 100
    traced_calls: int = 1
    setup_repeats: int = 100
    min_calls: int = 3
    single_sample: bool = False

    @property
    def runs_per_call(self) -> int:
        return self.repeats

    def spec(self, seed: int, out: str) -> experiments.ExperimentSpec:
        return experiments.ExperimentSpec(
            name="game",
            problem="box_game",
            mode="increasing_batch",
            blocks_m=2,
            blocks_n=2,
            iters=self.iters,
            repeats=self.repeats,
            seed=seed,
            checkpoint_every=self.checkpoint_every,
            out=out,
        )

    def setup(self, data_seed: int):
        """Problem build, which ``run_experiment`` also does first.

        The box game has fixed data and a closed-form reference, so there is
        no data seed to use here.
        """
        return experiments.build_problem(self.spec(1, ""))

    def call(self, ctx, seed: int, index: int, streams: int, run_fn, scratch) -> list:
        """One whole experiment writing into ``scratch``, its solver runs routed
        through ``run_fn``; returns failed checks of the experiment's outputs."""
        original = experiments.run
        experiments.run = run_fn
        try:
            out = experiments.run_experiment(self.spec(seed, str(scratch)))
        finally:
            experiments.run = original
        return check_experiment_outputs(out, self.repeats)


WORKLOADS = {
    wl.name: wl
    for wl in (
        ErmWorkload(
            name="erm_single_sample",
            why=(
                "c09 ERM 200x500, M=10, N=200 boxes, single_sample, 2000 iters: cheap 3-gradient "
                "iterations, so per-iteration overhead (step sizes, copies, averaging) dominates"
            ),
            mode="single_sample",
            n_blocks=200,
            iters=2000,
            checkpoint_every=2000,
        ),
        ErmWorkload(
            name="erm_increasing_batch",
            why=(
                "c09 ERM, N=200 boxes, increasing_batch with restarts, 4000 iters, checkpoint "
                "every 50: batches grow to p=200, so row gathers and checkpoints dominate"
            ),
            mode="increasing_batch",
            n_blocks=200,
            iters=4000,
            checkpoint_every=50,
            restart=True,
            traced_calls=2,
            min_calls=14,
        ),
        ErmWorkload(
            name="erm_entropy",
            why=(
                "c09 ERM data, N=1 entropy-simplex dual, single_sample, 2000 iters: the only "
                "workload where grad_y reads all 200 rows and the entropy prox runs"
            ),
            mode="single_sample",
            n_blocks=1,
            iters=2000,
            checkpoint_every=2000,
        ),
        GameWorkload(
            name="game_experiment",
            why=(
                "run_experiment on the 4x4 box game, 2x2 blocks, increasing_batch, 10 repeats, "
                "sup-gap every 100: call overhead, sampling, box prox, metrics and the runner"
            ),
            iters=500,
        ),
    )
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_solve(solve: Solve, single_sample: bool) -> list:
    """Problems found in one solve's outputs; an empty list means it passed."""
    if solve.error is not None:
        return [f"SolverError: {solve.error}"]
    res, problem = solve.result, solve.problem
    errors = []
    # The class method, not the instance attribute, so a traced run's
    # instrumentation never sees the benchmark's own checks.
    if not SaddleProblem.in_domain(problem, res.x, res.y, DOMAIN_SLACK):
        errors.append("final iterate outside the domain")
    if not SaddleProblem.in_domain(problem, res.x_bar, res.y_bar, DOMAIN_SLACK):
        errors.append("ergodic average outside the domain")
    for row in res.trace.rows:
        values = [v for v in vars(row).values() if v is not None]
        if not all(math.isfinite(v) for v in values):
            errors.append(f"non-finite trace value at k={row.k}")
            break
    if single_sample and res.grad_budget != 3 * res.iterations:
        errors.append(f"grad_budget {res.grad_budget} != 3 * {res.iterations} iterations")
    return errors


def check_repeats(solves: list) -> list:
    """Solves of one (seed, stream) must give a bit-identical ``x_bar``."""
    first = {}
    errors = []
    for s in solves:
        if s.result is None:
            continue
        key = (s.config.seed, s.config.stream)
        x_bar = np.asarray(s.result.x_bar)
        if key not in first:
            first[key] = x_bar
        elif first[key].tobytes() != x_bar.tobytes():
            errors.append(f"x_bar of (seed, stream) {key} differs between two solves")
    return errors


def has_repeat(solves: list) -> bool:
    keys = [(s.config.seed, s.config.stream) for s in solves if s.result is not None]
    return len(set(keys)) < len(keys)


def check_experiment_outputs(out_dir, repeats: int) -> list:
    """``STATUS`` is 0 and the summary has one ``ok`` row per repeat."""
    out_dir = Path(out_dir)
    errors = []
    status = (out_dir / "STATUS").read_text(encoding="utf-8").strip()
    if status != "0":
        errors.append(f"STATUS is {status}")
    with open(out_dir / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r["status"] for r in rows if r["status"] != "ok"]
    if bad:
        errors.append(f"summary rows not ok: {bad}")
    if len(rows) != repeats:
        errors.append(f"summary has {len(rows)} rows, expected {repeats}")
    return errors

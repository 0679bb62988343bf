"""The layer boundaries the traced run wraps, and the per-layer metrics it derives.

Each wrapped callable is one that rbpda looks up at call time, so replacing it
from outside puts a span around every call without editing the package:

* ``rbpda.solver`` module globals used by ``run`` and ``rbpda_step``;
* ``StepSchedule`` and ``ErgodicAccumulator`` methods;
* the ``grad_y``, ``batch_grad_x`` and ``in_domain`` attributes of each
  problem instance a traced solve receives;
* ``rbpda.experiments`` globals: ``run_experiment``,
  ``estimate_component_noise`` and ``deterministic_baseline_run`` (the
  reference oracle behind ``erm_reference``).

Which end-to-end metric each layer should move, and on which workload, is
listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import numpy as np

import rbpda.experiments as experiments
import rbpda.solver as solver
from rbpda.metrics import sup_gap
from rbpda.solver import ErgodicAccumulator
from rbpda.stepsize import StepSchedule


def _count_prox(rec, args, out):
    kind = "entropy" if args[0].is_entropy else "euclid"
    rec.counts[f"bregman.prox_{kind}.calls"] += 1


def _count_batch(rec, args, out):
    # next_batch_size(schedule, counters, i_k, k, p) -> v
    v = int(out)
    rec.counts["sampling.components"] += v
    rec.counts["sampling.batch_max"] = max(rec.counts["sampling.batch_max"], v)
    rec.counts[("selected", int(args[2]))] += 1


def _count_batch_rows(rec, args, out):
    rec.counts["problems.batch_grad_x.rows"] += len(args[0])


def _count_dual_rows(rec, args, out):
    rec.counts["problems.grad_y.rows"] += len(out)


def _count_reference(rec, args, out):
    rec.counts["experiments.reference_iters"] += out.iterations


SOLVER_GLOBALS = (
    ("rbpda_step", "solver.step", None),
    ("restart_if_saturated", "solver.restart_check", None),
    ("prox_step", "bregman.prox", _count_prox),
    ("draw_block", "sampling.draw_block", None),
    ("next_batch_size", "sampling.next_batch_size", _count_batch),
    ("sample_indices", "sampling.sample_indices", None),
    ("estimate_partial_grad_x", "sampling.estimate", None),
    ("evaluate_checkpoint", "metrics.checkpoint", None),
)


def instrument_experiments(rec) -> None:
    rec.patch(experiments, "run_experiment", "experiments.run_experiment")
    rec.patch(experiments, "estimate_component_noise", "experiments.noise_probe")
    rec.patch(experiments, "deterministic_baseline_run", "experiments.reference", _count_reference)


def instrument_solver(rec) -> None:
    for attr, name, hook in SOLVER_GLOBALS:
        rec.patch(solver, attr, name, hook)
    for attr in ("tau", "sigma", "theta", "t"):
        rec.patch(StepSchedule, attr, f"stepsize.{attr}")
    for attr in ("update", "finalize", "total_weights"):
        rec.patch(ErgodicAccumulator, attr, "solver.ergodic")


def instrument_problem(rec, problem) -> None:
    rec.patch(problem, "grad_y", "problems.grad_y", _count_dual_rows)
    rec.patch(problem, "batch_grad_x", "problems.batch_grad_x", _count_batch_rows)
    rec.patch(problem, "in_domain", "blocks.in_domain")


def traced_run(rec):
    """``run`` inside a ``solver.run`` span; instruments each new problem first."""
    run = rec.wrap("solver.run", solver.run)
    seen = set()  # instrumented problems stay alive through rec's patch records

    def run_traced(problem, config, reference=None, f_star=None):
        if id(problem) not in seen:
            seen.add(id(problem))
            instrument_problem(rec, problem)
        return run(problem, config, reference=reference, f_star=f_star)

    return run_traced


def _final_sup_gap(solve) -> float:
    """Sup-gap at the final averages; from the trace, else computed like a checkpoint."""
    last = solve.result.trace.rows[-1].sup_gap
    if last is not None:
        return float(last)
    res = solve.result
    candidates = [] if solve.reference is None else [solve.reference]
    return float(sup_gap(solve.problem, (res.x_bar, res.y_bar), candidates))


def _gap_ratio(solve) -> float:
    """Final over initial gap, preferring the sup-gap as the experiment runner does.

    Against the box game's origin reference the Lagrangian gap is identically
    zero, so only the sup-gap is informative there.
    """
    trace = solve.result.trace
    gaps = trace.column("sup_gap")
    if np.isnan(gaps).all():
        gaps = trace.column("gap_ref")
    return float(gaps[-1] / gaps[0])


def layer_metrics(rec, traced: list, plain: list) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}`` from one traced run.

    ``traced`` and ``plain`` are the same solves with and without tracing;
    both must have succeeded.  Times are unscaled, except that the tracing
    overhead compares solve times at reference host speed.  Layers a workload
    never enters report 0.
    """
    lay = rec.layers()
    dur, _ = rec.durations()
    names = np.asarray(rec.names)
    parents = np.asarray(rec.parents, dtype=np.int64)
    counts = rec.counts

    def pick(prefix):
        return [v for k, v in lay.items() if k == prefix or k.startswith(prefix + ".")]

    def calls(prefix):
        return sum(v["calls"] for v in pick(prefix))

    def self_s(*prefixes):
        return sum(v["self_s"] for p in prefixes for v in pick(p))

    def total_s(name):
        return float(lay[name]["dur"].sum()) if name in lay else 0.0

    def pct_us(name, q):
        return float(np.percentile(lay[name]["dur"], q) * 1e6) if name in lay else 0.0

    solve_s = total_s("solver.run")
    runs_in_experiments = (names == "solver.run") & np.isin(
        parents, np.flatnonzero(names == "experiments.run_experiment")
    )
    selected = [v for k, v in counts.items() if isinstance(k, tuple) and k[0] == "selected"]
    batch_calls = calls("sampling.next_batch_size")
    results = [s.result for s in traced]
    out = {
        "stepsize.calls": (calls("stepsize"), "count"),
        "stepsize.self_s": (self_s("stepsize"), "s"),
        "stepsize.share": (self_s("stepsize") / solve_s, "ratio"),
    }
    for key in ("problems.batch_grad_x", "problems.grad_y"):
        out[f"{key}.calls"] = (calls(key), "count")
        out[f"{key}.rows"] = (counts[f"{key}.rows"], "count")
        out[f"{key}.self_s"] = (self_s(key), "s")
    out.update(
        {
            "bregman.prox_euclid.calls": (counts["bregman.prox_euclid.calls"], "count"),
            "bregman.prox_entropy.calls": (counts["bregman.prox_entropy.calls"], "count"),
            "bregman.self_s": (self_s("bregman"), "s"),
            "sampling.draws": (calls("sampling.draw_block"), "count"),
            "sampling.components": (counts["sampling.components"], "count"),
            "sampling.batch_mean": (counts["sampling.components"] / max(batch_calls, 1), "count"),
            "sampling.batch_max": (counts["sampling.batch_max"], "count"),
            "sampling.block_count_spread": (max(selected) / max(min(selected), 1), "ratio"),
            "sampling.self_s": (self_s("sampling"), "s"),
            "solver.step.calls": (calls("solver.step"), "count"),
            "solver.step_us_p50": (pct_us("solver.step", 50), "us"),
            "solver.step_us_p99": (pct_us("solver.step", 99), "us"),
            "solver.step.self_s": (self_s("solver.step"), "s"),
            "solver.ergodic.self_s": (self_s("solver.ergodic"), "s"),
            "solver.restarts": (sum(r.restarts for r in results), "count"),
            "solver.run.self_s": (self_s("solver.run"), "s"),
            "solver.iterations": (sum(r.iterations for r in results), "count"),
            "solver.gap_ratio": (float(np.median([_gap_ratio(s) for s in traced])), "ratio"),
            "solver.sup_gap_final": (float(np.median([_final_sup_gap(s) for s in traced])), "gap"),
            "metrics.checkpoint.calls": (calls("metrics.checkpoint"), "count"),
            "metrics.checkpoint.self_s": (self_s("metrics.checkpoint"), "s"),
            "metrics.checkpoint_us_p50": (pct_us("metrics.checkpoint", 50), "us"),
            "blocks.in_domain.calls": (calls("blocks.in_domain"), "count"),
            "blocks.in_domain.self_s": (self_s("blocks.in_domain"), "s"),
            "experiments.reference_s": (total_s("experiments.reference"), "s"),
            "experiments.reference_iters": (counts["experiments.reference_iters"], "count"),
            "experiments.noise_probe_s": (total_s("experiments.noise_probe"), "s"),
            "experiments.run_overhead_s": (
                total_s("experiments.run_experiment") - float(dur[runs_in_experiments].sum()),
                "s",
            ),
            "trace.overhead_frac": (
                sum(s.wall * s.scale for s in traced) / sum(s.wall * s.scale for s in plain) - 1.0,
                "ratio",
            ),
        }
    )
    return out

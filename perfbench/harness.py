"""Measurement flows behind ``perfbench/run.py``.

End-to-end mode (tracing off) sets a workload up ``setup_repeats`` times,
then calls it in a closed loop -- the next solve starts when the previous one
returns -- until ``--seconds`` have passed and at least ``min_calls`` calls
are done, and reports medians over the solves.  Traced mode runs a fixed list
of calls once untraced and once traced, so its counts repeat exactly at a
seed, and derives the per-layer metrics from the traced spans.

Both modes check every solve's outputs and count the items that fail.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import layers
import rbpda.solver as solver
from spans import SpanRecorder
from workloads import WORKLOADS, SolveLog, check_repeats, check_solve, has_repeat

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"  # scratch outputs and span files, inside the checkout

END_TO_END_UNITS = {
    "setup_s": "s",
    "iter_us": "us/iter",
    "grads_per_s": "grads/s",
    "runs_per_s": "runs/s",
    "peak_rss_mb": "MiB",
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "RBPDA_WORKERS": os.environ.get("RBPDA_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _check_items(wl, solves, call_errors) -> list:
    """(label, errors) per checked item: each solve, each call, the repeat check."""
    items = [
        (f"solve seed={s.config.seed} stream={s.config.stream}", check_solve(s, wl.single_sample))
        for s in solves
    ]
    items += [(f"call {i}", errs) for i, errs in enumerate(call_errors)]
    items.append(("repeat determinism", check_repeats(solves)))
    return items


class HostSpeed:
    """Tracks the host's current speed with a fixed kernel timed between measurements.

    On a shared host the same code runs up to ~1.6x slower for minutes at a
    time, so raw wall times of two runs are not comparable.  The kernel --
    row products, slicing and clipping on a fixed 200x500 matrix, driven by a
    Python loop like the solver -- is timed before and after every measured
    call; the call's time is scaled by ``REFERENCE_MS`` over the mean of the
    two kernel times, i.e. reported at the host speed where the kernel takes
    ``REFERENCE_MS``.  The kernel is part of the benchmark and never changes
    with rbpda, so a slower program still reads slower.
    """

    REFERENCE_MS = 4.0  # about the kernel's median time on a 2.1 GHz Xeon VM core

    def __init__(self):
        self.rows = np.random.default_rng(0).standard_normal((200, 500))
        self.last_ms = self._kernel_ms()

    def _kernel_ms(self) -> float:
        rows, x, acc = self.rows, np.zeros(500), 0.0
        t0 = time.perf_counter()
        for k in range(400):
            r = float(rows[k % 200] @ x)
            blk = slice((k % 10) * 50, (k % 10 + 1) * 50)
            x[blk] = np.clip(x[blk] - 0.01 * (r + 1.0) * rows[k % 200, blk], -1.0, 1.0)
            acc += r
        return (time.perf_counter() - t0) * 1e3

    def factor(self) -> float:
        """Scale for the call that ran since the previous :meth:`factor`."""
        before, self.last_ms = self.last_ms, self._kernel_ms()
        return self.REFERENCE_MS / (0.5 * (before + self.last_ms))


def _note(values, what, raw=None) -> str:
    """Sample count, median and the highest percentile with ten samples beyond it."""
    note = f"median of {len(values)} {what}"
    if len(values) >= 20:
        q = 100.0 * (1.0 - 10.0 / len(values))
        lo, hi = np.percentile(values, [100 - q, q])
        note += f", p{100 - q:.0f}..p{q:.0f} {lo:.6g}..{hi:.6g}"
    if raw is not None:
        note += f"; unscaled median {np.median(raw):.6g}"
    return note


def _call(wl, ctx, seed, index, streams, run, scratch, log, host):
    """One workload call; stamps its solves with the call's host scale.

    Returns the call's wall time, host scale and failed call-level checks.
    """
    first = len(log.solves)
    t0 = time.perf_counter()
    errors = wl.call(ctx, seed, index, streams, run, scratch)
    wall = time.perf_counter() - t0
    scale = host.factor()
    for s in log.solves[first:]:
        s.scale = scale
    return wall, scale, errors


def measure_end_to_end(wl, seed, data_seed, streams, seconds, scratch):
    """End-to-end metrics ``{name: (value, unit)}``, their sample notes and check items."""
    host = HostSpeed()
    setup_raw, setup_scale = [], []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        ctx = wl.setup(data_seed)
        setup_raw.append(time.perf_counter() - t0)
        setup_scale.append(host.factor())

    log = SolveLog()
    run = log.timed(solver.run)
    calls = []  # (wall, scale, errors) per call
    start = time.perf_counter()
    while len(calls) < wl.min_calls or time.perf_counter() - start < seconds:
        calls.append(_call(wl, ctx, seed, len(calls), streams, run, scratch, log, host))
    timed = [s for s in log.solves if s.result is not None]
    if not has_repeat(log.solves):
        # untimed second solve of the first (seed, stream), for the determinism check
        wl.call(ctx, seed, 0, streams, run, scratch)

    runs = wl.runs_per_call
    samples = {  # name: (per-sample values at reference host speed, what, unscaled)
        "setup_s": (
            [t * f for t, f in zip(setup_raw, setup_scale)], "set-ups", setup_raw
        ),
        "iter_us": (
            [s.wall * s.scale / s.result.iterations * 1e6 for s in timed],
            "solves",
            [s.wall / s.result.iterations * 1e6 for s in timed],
        ),
        "grads_per_s": (
            [s.result.grad_budget / (s.wall * s.scale) for s in timed],
            "solves",
            [s.result.grad_budget / s.wall for s in timed],
        ),
        "runs_per_s": (
            [runs / (wall * f) for wall, f, _ in calls],
            f"calls of {runs} runs",
            [runs / wall for wall, _, _ in calls],
        ),
    }
    out = {k: (float(np.median(v)), END_TO_END_UNITS[k]) for k, (v, _, _) in samples.items()}
    notes = {k: _note(v, what, raw) for k, (v, what, raw) in samples.items()}
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    notes["peak_rss_mb"] = "process peak"
    return out, notes, _check_items(wl, log.solves, [errors for _, _, errors in calls])


def measure_layers(wl, seed, data_seed, streams, scratch, spans_path):
    """Per-layer metrics ``{name: (value, unit)}`` and check items from one traced run."""
    rec = SpanRecorder()
    host = HostSpeed()
    try:
        layers.instrument_experiments(rec)
        ctx = wl.setup(data_seed)
        rec.restore()

        plain = SolveLog()
        run = plain.timed(solver.run)
        for index in range(wl.traced_calls):
            _call(wl, ctx, seed, index, streams, run, scratch, plain, host)

        layers.instrument_experiments(rec)
        layers.instrument_solver(rec)
        traced = SolveLog()
        run = traced.timed(layers.traced_run(rec))
        call_errors = []
        for index in range(wl.traced_calls):
            rec.run_id = index
            _, _, errors = _call(wl, ctx, seed, index, streams, run, scratch, traced, host)
            call_errors.append(errors)
    finally:
        rec.restore()
    rec.write(spans_path)

    items = _check_items(wl, plain.solves + traced.solves, call_errors)
    budget = sum(s.result.grad_budget for s in traced.solves if s.result is not None)
    components = rec.counts["sampling.components"]
    items.append(
        (
            "grad_budget vs sampled components",
            [] if budget == 3 * components else [f"grad_budget {budget} != 3 * {components}"],
        )
    )
    if any(s.result is None for s in plain.solves + traced.solves):
        return {}, items
    return layers.layer_metrics(rec, traced.solves, plain.solves), items


def main(args) -> int:
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        known = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("# env " + json.dumps(environment()))
    print(f"# workload {wl.name}: {wl.why}")
    with tempfile.TemporaryDirectory(prefix=f"{wl.name}-", dir=WORK) as scratch:
        if args.trace:
            spans_path = WORK / f"spans-{wl.name}-seed{args.seed}.npz"
            metrics, items = measure_layers(
                wl, args.seed, args.data_seed, args.streams, scratch, spans_path
            )
            notes = {}
            print(f"# spans written to {spans_path}")
        else:
            metrics, notes, items = measure_end_to_end(
                wl, args.seed, args.data_seed, args.streams, args.seconds, scratch
            )

    failed = [(label, errs) for label, errs in items if errs]
    for label, errs in failed:
        print(f"# FAILED {label}: {'; '.join(errs)}", file=sys.stderr)
    rows = [(name, value, unit, notes.get(name)) for name, (value, unit) in metrics.items()]
    rows.append(
        ("failed_frac", len(failed) / len(items), "ratio", f"{len(failed)} of {len(items)} checked")
    )
    for name, value, unit, note in rows:
        print(f"{wl.name:22s} {name:30s} {value:14.6g} {unit}" + (f"  ({note})" if note else ""))
    result = {
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0

"""Tests of the benchmark's own machinery.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import rbpda.solver as solver  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    SolveLog,
    check_experiment_outputs,
    check_repeats,
    check_solve,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Small instances of the real workloads, so the tests take seconds.
SMALL = {
    "erm_increasing_batch": replace(
        WORKLOADS["erm_increasing_batch"], n=20, m=40, m_blocks=4, n_blocks=20, ref_iters=400,
        iters=300, setup_repeats=1, min_calls=2,
    ),
    "erm_entropy": replace(
        WORKLOADS["erm_entropy"], n=20, m=40, m_blocks=4, ref_iters=400, iters=300,
        setup_repeats=1, min_calls=2,
    ),
    "game_experiment": replace(
        WORKLOADS["game_experiment"], iters=100, repeats=2, setup_repeats=2, min_calls=2,
    ),
}

EXACT_SUFFIXES = (".calls", ".rows")
EXACT_NAMES = ("sampling.components", "solver.restarts", "solver.gap_ratio")


def _traced(wl, tmp_path, name="a"):
    scratch = tmp_path / f"scratch-{name}"
    scratch.mkdir()
    return harness.measure_layers(wl, 1, 7, 10, scratch, tmp_path / f"spans-{name}.npz")


def _failures(items):
    return [(label, errs) for label, errs in items if errs]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_at_one_seed(name, tmp_path):
    wl = SMALL[name]
    first, items_a = _traced(wl, tmp_path, "a")
    second, items_b = _traced(wl, tmp_path, "b")
    assert not _failures(items_a) and not _failures(items_b)
    assert sorted(first) == sorted(m["name"] for m in BENCH["per_layer"])
    exact = [k for k in first if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES]
    assert len(exact) >= 12
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["solver.step.calls"][0] == first["solver.iterations"][0] > 0


def test_traced_solve_is_bit_identical_and_patches_are_undone():
    wl = SMALL["erm_increasing_batch"]
    problem, reference = wl.setup(7)
    originals = {attr: getattr(solver, attr) for attr, _, _ in layers.SOLVER_GLOBALS}
    plain = solver.run(problem, wl.config(1, 3), reference=reference)

    rec = SpanRecorder()
    layers.instrument_solver(rec)
    try:
        traced = layers.traced_run(rec)(problem, wl.config(1, 3), reference=reference)
    finally:
        rec.restore()

    assert traced.restarts > 0  # the instance exercises the restart path
    for field in ("x", "y", "x_bar", "y_bar"):
        assert getattr(traced, field).tobytes() == getattr(plain, field).tobytes()
    assert [vars(r) for r in traced.trace.rows] == [vars(r) for r in plain.trace.rows]
    assert rec.layers()["solver.step"]["calls"] == wl.iters
    assert {attr: getattr(solver, attr) for attr in originals} == originals
    assert "grad_y" not in vars(problem) or problem.grad_y.__name__ != "traced"
    assert "in_domain" not in vars(problem)


def _one_solve(wl):
    problem, reference = wl.setup(7)
    log = SolveLog()
    log.timed(solver.run)(problem, wl.config(1, 0), reference=reference)
    return log.solves[0]


def test_output_checks_reject_corrupted_results():
    wl = SMALL["erm_entropy"]
    solve = _one_solve(wl)
    assert check_solve(solve, single_sample=True) == []

    res = solve.result
    x_bar = res.x_bar.copy()
    res.x_bar[0] = wl.radius + 1.0  # pushed outside the primal box
    assert any("ergodic average" in e for e in check_solve(solve, True))
    res.x_bar[:] = x_bar

    res.trace.rows[-1].gap_ref = float("nan")
    assert any("non-finite" in e for e in check_solve(solve, True))
    res.trace.rows[-1].gap_ref = 0.0

    res.grad_budget += 1
    assert any("grad_budget" in e for e in check_solve(solve, True))
    res.grad_budget -= 1

    twin = replace(solve, result=replace(res, x_bar=x_bar + 1e-15))
    assert check_repeats([solve, solve]) == []
    assert check_repeats([solve, twin]) != []


def test_benchmark_json_records_each_workload_definition():
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }


def test_experiment_check_rejects_failed_status(tmp_path):
    (tmp_path / "STATUS").write_text("1\n")
    (tmp_path / "summary.csv").write_text("config,status\ngame,ok\ngame,failed: boom\n")
    errors = check_experiment_outputs(tmp_path, repeats=2)
    assert any("STATUS" in e for e in errors)
    assert any("not ok" in e for e in errors)


@pytest.mark.parametrize("name", ["game_experiment", "erm_increasing_batch"])
def test_end_to_end_reports_every_declared_metric(name, tmp_path):
    metrics, notes, items = harness.measure_end_to_end(SMALL[name], 1, 7, 10, 0.2, tmp_path)
    assert not _failures(items)
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())
    assert set(notes) == set(declared)


def test_span_self_time_subtracts_direct_children():
    rec = SpanRecorder()
    rec.starts, rec.ends = [0.0, 1.0, 1.5, 4.0], [10.0, 3.0, 2.0, 5.0]
    rec.names, rec.parents, rec.runs = ["a", "b", "c", "b"], [-1, 0, 1, 0], [0, 0, 0, 0]
    _, own = rec.durations()
    assert own.tolist() == [7.0, 1.5, 0.5, 1.0]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game_experiment", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

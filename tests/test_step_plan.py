"""The step plan: run() against the one-function reference step and fold, the calls a run makes, and plan rebuilds."""

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import rbpda.experiments as experiments
import rbpda.solver as solver
from rbpda.problems import box_game_problem, generate_robust_erm, robust_erm_problem
from rbpda.sampling import BatchSchedule, make_rng
from rbpda.solver import RunState, SolverConfig, StepPlan, build_schedule, rbpda_step, run
from rbpda.stepsize import BlockLipschitz, FreeParams, StepSchedule, aggregate_constants, default_free_params

from reference_step import reference_run
from test_solver import LOCKSTEP_BUILTINS, lockstep_problem, scalar_bilinear_problem

REFERENCE_CONFIGS = {
    "single_sample_eta0": dict(mode="single_sample", eta=0.0),
    "single_sample_eta03": dict(mode="single_sample", eta=0.3),
    "increasing_restarts": dict(mode="increasing_batch", restart_enabled=True, restart_threshold=0.5),
}


def bits(v):
    """A value's exact bits, for arrays, floats, None and NaN alike."""
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def assert_same_run(got, want):
    for attr in ("x", "y", "x_bar", "y_bar", "ergodic_weights"):
        assert bits(getattr(got, attr)) == bits(getattr(want, attr)), attr
    for attr in ("grad_budget", "dual_grad_evals", "restarts", "iterations"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert len(got.trace.rows) == len(want.trace.rows)
    for a, b in zip(got.trace.rows, want.trace.rows):
        assert [bits(v) for v in vars(a).values()] == [bits(v) for v in vars(b).values()], (a, b)


def cached(problem, on: bool):
    """The problem with its coupling cache switched off, or forced on for every batch size."""
    factory = problem.coupling_cache
    if not on:
        problem.coupling_cache = None
    elif factory is not None:
        problem.coupling_cache = lambda x, y, x_prev, y_prev, v: factory(x, y, x_prev, y_prev, problem.p)
    return problem


@pytest.mark.parametrize("cache", [False, True])
@pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
@pytest.mark.parametrize("name", LOCKSTEP_BUILTINS)
def test_run_equals_the_reference_step_bitwise(name, config, cache):
    # iterates, averages and their weights, budgets, restarts and every
    # trace row, sup-gaps included, are the reference's bits; the reference
    # run folds from its own copies of the iterates
    prob = cached(lockstep_problem(name), cache)
    cfg = SolverConfig(max_iters=400, seed=3, stream=1, checkpoint_every=100, **REFERENCE_CONFIGS[config])
    got = run(prob, cfg)
    want = reference_run(prob, cfg)
    assert_same_run(got, want)
    assert not np.array_equal(got.x, prob.start_x)
    if config == "increasing_restarts":
        assert got.restarts >= 1


@pytest.mark.parametrize("cache", [False, True])
@pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
def test_wide_box_dual_blocks_equal_the_reference_step_bitwise(config, cache):
    # robust ERM in N = 2 box blocks of 20 rows, wider than SMALL: the step
    # forms their linear term, N g + N M theta (g - g_old) negated, as arrays
    # in place, with N * g for N > 1
    data = generate_robust_erm(5, 40, 12, 0.1)
    prob = cached(robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=2), cache)
    assert 40 // 2 > solver.SMALL
    cfg = SolverConfig(max_iters=300, seed=3, stream=1, checkpoint_every=100, **REFERENCE_CONFIGS[config])
    got = run(prob, cfg)
    assert_same_run(got, reference_run(prob, cfg))
    assert not np.array_equal(got.y, prob.start_y)


@pytest.mark.parametrize("n_blocks", [200, 1])
def test_benchmark_erm_runs_equal_the_reference_step_bitwise(n_blocks):
    # the c09 problem of the ERM workloads: N = 200 boxes with the float
    # dual path, and the N = 1 entropy simplex, whose run amplifies a
    # one-ulp change in any step
    data = generate_robust_erm(7, 200, 500, 0.1)
    prob = robust_erm_problem(data, radius=10.0, m_blocks=10, n_blocks=n_blocks)
    for stream in (0, 1):
        cfg = SolverConfig(mode="single_sample", eta=0.0, max_iters=1500, seed=1, stream=stream,
                           checkpoint_every=500, compute_sup_gap=False)
        assert_same_run(run(prob, cfg), reference_run(prob, cfg))


@pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
@pytest.mark.parametrize("width", [solver.SMALL, solver.SMALL + 1])
def test_blocks_step_in_floats_up_to_small_coordinates(width, config, monkeypatch):
    # a box game of two blocks a side, each of SMALL coordinates (the list
    # kernel's path) or SMALL + 1 (the array path), equals the reference's
    # array steps bit for bit either way
    A = np.random.default_rng(width).standard_normal((2 * width, 2 * width))
    assert np.linalg.matrix_rank(A) == 2 * width
    prob = box_game_problem(A, m_blocks=2, n_blocks=2)[0]
    listed = []  # the block widths the list kernels were called on
    inner = solver.prox_kernel

    def counted(geom, spec, form="array", factored=None):
        kernel = inner(geom, spec, form, factored)
        if form != "list":
            return kernel

        def prox_list(linear, step, x_bar):
            listed.append(len(x_bar))
            return kernel(linear, step, x_bar)

        return prox_list

    monkeypatch.setattr(solver, "prox_kernel", counted)
    cfg = SolverConfig(max_iters=300, seed=3, stream=1, checkpoint_every=100, **REFERENCE_CONFIGS[config])
    assert_same_run(run(prob, cfg), reference_run(prob, cfg))
    assert listed == ([width] * 600 if width <= solver.SMALL else [])


def count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(solver, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(solver, name, counted)
    return calls


ERM_WORKLOADS = {
    # (n_blocks, config) of perfbench's ERM workloads, with fewer iterations
    "erm_single_sample": (200, dict(mode="single_sample", checkpoint_every=300)),
    "erm_increasing_batch": (200, dict(mode="increasing_batch", restart_enabled=True, checkpoint_every=50)),
    "erm_entropy": (1, dict(mode="single_sample", checkpoint_every=300)),
}


@pytest.mark.parametrize("workload", sorted(ERM_WORKLOADS))
def test_each_iteration_calls_the_step_and_the_batch_rule_once(workload, monkeypatch):
    # the benchmark's traced mode wraps these two module globals; a run must
    # call each exactly once per iteration, restarts included
    n_blocks, config = ERM_WORKLOADS[workload]
    data = generate_robust_erm(7, 200, 500, 0.1)
    prob = robust_erm_problem(data, radius=10.0, m_blocks=10, n_blocks=n_blocks)
    calls = count_calls(monkeypatch, ("rbpda_step", "next_batch_size"))
    res = run(prob, SolverConfig(eta=0.0, max_iters=600, seed=1, compute_sup_gap=False, **config))
    assert calls == {"rbpda_step": 600, "next_batch_size": 600}
    assert res.iterations == 600 and res.grad_budget > 0


def test_each_experiment_iteration_calls_the_step_and_the_batch_rule_once(tmp_path, monkeypatch):
    # the game workload: the runner's box game, 2 x 2 blocks, increasing batch
    calls = count_calls(monkeypatch, ("rbpda_step", "next_batch_size"))
    spec = experiments.ExperimentSpec(name="game", problem="box_game", mode="increasing_batch", blocks_m=2,
                                      blocks_n=2, iters=120, repeats=3, seed=1, checkpoint_every=40,
                                      out=str(tmp_path))
    experiments.run_experiment(spec)
    assert calls == {"rbpda_step": 360, "next_batch_size": 360}


def test_a_wrapped_batch_rule_calls_the_schedule_only_at_checkpoints(monkeypatch):
    # under wrappers on next_batch_size and rbpda_step, as in the benchmark's
    # traced mode, a single-sample run takes its steps, theta and t from the
    # chunked columns: the schedule's own methods run only at checkpoints
    prob = lockstep_problem("erm_box_scalar")
    count_calls(monkeypatch, ("next_batch_size",))
    stepping, calls = [], []
    inner_step = solver.rbpda_step

    def step(*args):
        stepping.append(1)
        inner_step(*args)
        stepping.pop()

    monkeypatch.setattr(solver, "rbpda_step", step)
    for attr in ("theta", "t", "tau", "sigma"):
        inner = getattr(StepSchedule, attr)
        monkeypatch.setattr(StepSchedule, attr,
                            lambda self, *args, _inner=inner: calls.append(bool(stepping)) or _inner(self, *args))
    cfg = SolverConfig(mode="single_sample", eta=0.3, max_iters=600, seed=2, checkpoint_every=200,
                       compute_sup_gap=False)
    assert run(prob, cfg).iterations == 600
    assert calls and not any(calls) and not stepping


def count_sum_folds(monkeypatch):
    """Count the folds that go through ``_LazySum.fold``, which only ``ErgodicAccumulator.update`` calls."""
    calls = []
    fold = solver._LazySum.fold
    monkeypatch.setattr(solver._LazySum, "fold", lambda self, *args: calls.append(1) or fold(self, *args))
    return calls


@pytest.mark.parametrize("name", ["erm_box_scalar", "erm_entropy", "qp"])
def test_run_folds_in_the_step_with_or_without_a_replaced_step_or_update(name, monkeypatch):
    # run() folds in its plan's step and never calls _LazySum.fold, also
    # with a wrapper on rbpda_step (called once per iteration, and taking
    # the run's plan) or on update (never called), to the same bits
    prob = lockstep_problem(name)
    cfg = SolverConfig(mode="single_sample", eta=0.3, max_iters=300, seed=2, stream=1, checkpoint_every=100)
    folds = count_sum_folds(monkeypatch)
    want = run(prob, cfg)
    assert folds == []
    for target, attr, count in ((solver, "rbpda_step", cfg.max_iters), (solver.ErgodicAccumulator, "update", 0)):
        calls = []
        inner = getattr(target, attr)
        with monkeypatch.context() as m:
            m.setattr(target, attr, lambda *args, **kw: calls.append(1) or inner(*args, **kw))
            got = run(prob, cfg)
        assert_same_run(got, want)
        assert len(calls) == count and folds == [], attr


def test_a_plan_builds_for_a_problem_like_object_without_grad_y():
    # the plan reads the optional oracles with getattr, with and without an accumulator
    prob = lockstep_problem("erm_box_scalar")
    like = SimpleNamespace(structure=prob.structure, p=prob.p, dual_prox=prob.dual_prox,
                           primal_prox=prob.primal_prox)
    sched = build_schedule(prob, SolverConfig(mode="single_sample"))
    acc = solver.ErgodicAccumulator(prob.structure.M, prob.structure.N, prob.start_x, prob.start_y, sched)
    for fold_with in (None, acc):
        plan = StepPlan(like, make_rng(1), sched, BatchSchedule.constant(1, prob.p), acc=fold_with, iters=10)
        assert callable(plan.step)


def overflowing_lipschitz():
    # C_x overflows to inf and (N - 1) * C_x**2 is 0 * inf: the terms are NaN
    return BlockLipschitz(np.array([[1e200]]), np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))


def test_non_finite_diminishing_terms_refused_before_any_step():
    with np.errstate(over="ignore", invalid="ignore"):
        agg = aggregate_constants(overflowing_lipschitz())
        sched = StepSchedule("diminishing", agg, FreeParams(1.0, 1.0, 1.0, 1.0, [1.0], [1.0]))
    assert math.isnan(sched.tau(0)[0])  # the schedule itself takes them
    prob = scalar_bilinear_problem()
    state = RunState.start(prob)
    with pytest.raises(ValueError, match="non-finite step-size denominator"):
        rbpda_step(state, prob, sched, BatchSchedule.constant(1, 1), make_rng(0))
    assert state.k == 0 and state.plan is None and state.grad_budget == 0


def test_run_refuses_non_finite_diminishing_terms():
    prob = scalar_bilinear_problem()
    prob.lipschitz = overflowing_lipschitz()
    cfg = SolverConfig(mode="single_sample", max_iters=5,
                       free_params=FreeParams(1.0, 1.0, 1.0, 1.0, [1.0], [1.0]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite step-size"):
        run(prob, cfg)


def test_a_plan_serves_only_its_schedule_and_batch_rule():
    # a hand-driven step that passes another schedule, an unequal batch
    # rule or another generator rebuilds the plan and forgets the kept dual
    # row; an equal batch rule keeps both
    prob = lockstep_problem("erm_box")
    agg = aggregate_constants(prob.lipschitz)
    sched = StepSchedule("constant", agg, default_free_params(agg, "constant"))
    other = StepSchedule("constant", agg, default_free_params(agg, "constant"))
    state, rng = RunState.start(prob), make_rng(2)
    forgotten = []  # whether the step met no kept row, seen from inside grad_y
    inner = prob.grad_y
    prob.grad_y = lambda j, pts, **kw: forgotten.append(state.dual_row is None) or inner(j, pts, **kw)
    rbpda_step(state, prob, sched, BatchSchedule.constant(2, prob.p), rng)
    plan = state.plan
    assert isinstance(plan, StepPlan)
    rbpda_step(state, prob, sched, BatchSchedule.constant(2, prob.p), rng)
    assert state.plan is plan and forgotten == [True, False]
    for sched_, batch, rng_ in ((other, BatchSchedule.constant(2, prob.p), rng),
                                (other, BatchSchedule.constant(3, prob.p), rng),
                                (other, BatchSchedule.constant(3, prob.p), make_rng(2))):
        previous = state.plan
        rbpda_step(state, prob, sched_, batch, rng_)
        rebuilt = state.plan
        assert rebuilt is not previous and forgotten[-1]
        rbpda_step(state, prob, sched_, BatchSchedule.constant(batch.v, prob.p), rng_)
        assert state.plan is rebuilt and not forgotten[-1]


def test_a_hand_driven_plan_is_rebuilt_when_an_oracle_is_replaced():
    # the plan reads grad_y and batch_grad_x when built; a wrapper set on
    # either between hand-driven steps gets a new plan, which forgets the
    # kept dual row and calls the wrapper in place of the one-row oracle, to
    # the bits of steps that never met a wrapper
    prob, twin = lockstep_problem("erm_box_scalar"), lockstep_problem("erm_box_scalar")
    sched = build_schedule(prob, SolverConfig(mode="single_sample", eta=0.3))
    batch = BatchSchedule.constant(1, prob.p)
    state, rng, ref, ref_rng = RunState.start(prob), make_rng(4), RunState.start(twin), make_rng(4)
    seen = []
    for it in range(30):
        if it in (10, 20):
            attr = "grad_y" if it == 10 else "batch_grad_x"
            inner = getattr(prob, attr)
            setattr(prob, attr, lambda *args, _attr=attr, _inner=inner, **kw: seen.append(_attr) or _inner(*args, **kw))
            previous = state.plan
        rbpda_step(state, prob, sched, batch, rng)
        rbpda_step(ref, twin, sched, batch, ref_rng)
        if it in (10, 20):
            assert state.plan is not previous
        assert state.x.tobytes() == ref.x.tobytes() and state.y.tobytes() == ref.y.tobytes(), it
    assert seen.count("grad_y") == 20 and seen.count("batch_grad_x") == 10


def test_a_run_reads_its_oracles_when_it_starts(monkeypatch):
    # a wrapper set on grad_y during a run, through a replaced rbpda_step,
    # is never called: the run's plan keeps the oracles it started with, and
    # with them its folds, so the run keeps its bits
    prob = lockstep_problem("erm_box_scalar")
    cfg = SolverConfig(mode="single_sample", eta=0.3, max_iters=200, seed=2, checkpoint_every=100)
    want = run(prob, cfg)
    seen, inner_step, inner = [], solver.rbpda_step, prob.grad_y

    def step(state, *args):
        if state.k == 100:
            prob.grad_y = lambda *a, **kw: seen.append(1) or inner(*a, **kw)
        return inner_step(state, *args)

    monkeypatch.setattr(solver, "rbpda_step", step)
    got = run(prob, cfg)
    assert_same_run(got, want)
    assert seen == [] and prob.grad_y is not inner


def test_a_plan_reads_the_batch_rule_when_built(monkeypatch):
    # the batch rule is the module's next_batch_size at build time: a plan
    # built before a replacement keeps the old one, a plan built after it
    # calls the replacement
    prob = lockstep_problem("box_game")
    sched = build_schedule(prob, SolverConfig())
    batch = BatchSchedule.constant(1, prob.p)
    state, rng = RunState.start(prob), make_rng(1)
    rbpda_step(state, prob, sched, batch, rng)
    seen = []
    inner = solver.next_batch_size
    monkeypatch.setattr(solver, "next_batch_size", lambda *args: seen.append(args[3]) or inner(*args))
    rbpda_step(state, prob, sched, batch, rng)
    assert seen == []
    state.plan = None
    rbpda_step(state, prob, sched, batch, rng)
    assert seen == [2]


def run_opcodes(problem, config) -> int:
    """The Python opcodes a run executes in rbpda's own code, counted by ``sys.settrace``."""
    package = os.path.dirname(solver.__file__)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run(problem, config)
    finally:
        sys.settrace(previous)
    return count


def opcodes_per_iteration(problem, iters: int, **config) -> float:
    """Opcodes per iteration of run(): the count of iters more iterations, so set-up and the
    final checkpoint cancel."""
    counts = [run_opcodes(problem, SolverConfig(max_iters=n, checkpoint_every=10**9, compute_sup_gap=False,
                                                **config))
              for n in (iters // 2, iters + iters // 2)]
    return (counts[1] - counts[0]) / iters


OPCODES_PER_SINGLE_SAMPLE_ITERATION = 751  # the test's count, measured on CPython 3.11
OPCODES_PER_ENTROPY_SINGLE_SAMPLE_ITERATION = 927  # likewise


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="opcode counts are CPython 3.11's")
def test_single_sample_iteration_opcodes():
    # a single-sample iteration's cost is mostly Python bookkeeping, so its
    # opcode count is a deterministic stand-in for its time: robust ERM with
    # one-row dual blocks and no cache, as in the benchmark's single-sample
    # workload, at a fixed seed and stream
    data = generate_robust_erm(3, 60, 120, 0.1)
    prob = robust_erm_problem(data, radius=10.0, m_blocks=4, n_blocks=60)
    assert prob.coupling_cache(prob.start_x, prob.start_y, prob.start_x, prob.start_y, 1) is None
    got = opcodes_per_iteration(prob, 500, mode="single_sample", eta=0.0, seed=5, stream=2)
    assert got <= 1.05 * OPCODES_PER_SINGLE_SAMPLE_ITERATION, f"{got:.1f} opcodes per iteration"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="opcode counts are CPython 3.11's")
def test_entropy_single_sample_iteration_opcodes():
    # the shape of the benchmark's entropy workload: one simplex dual block,
    # with the coupling cache the run builds for it
    data = generate_robust_erm(3, 60, 120, 0.1)
    prob = robust_erm_problem(data, radius=10.0, m_blocks=4, n_blocks=1)
    assert prob.coupling_cache(prob.start_x, prob.start_y, prob.start_x, prob.start_y, 1) is not None
    got = opcodes_per_iteration(prob, 500, mode="single_sample", eta=0.0, seed=5, stream=2)
    assert got <= 1.05 * OPCODES_PER_ENTROPY_SINGLE_SAMPLE_ITERATION, f"{got:.1f} opcodes per iteration"

"""The factored one-row primal step: the generic step's bits, its identity guard, and its finiteness verdicts."""

import copy
import dataclasses
import math

import numpy as np
import pytest

import rbpda.solver as solver
from rbpda.blocks import ProxSpec, validate_problem
from rbpda.bregman import EUCLIDEAN, prox_kernel
from rbpda.sampling import BatchSchedule, draw_block, make_rng, sample_indices
from rbpda.solver import RunState, SolverConfig, SolverError, StepPlan, build_schedule, rbpda_step, run

from reference_step import reference_run
from test_solver import FixedSchedule, lockstep_problem
from test_step_plan import assert_same_run, cached

FACTORED_CASES = {
    # (problem, coupling cache, config): every config draws v = 1 on some steps
    "erm_box_no_cache": ("erm_box_scalar", False, dict(mode="single_sample", eta=0.3)),
    "erm_entropy_cache": ("erm_entropy", True, dict(mode="single_sample", eta=0.0)),
    "erm_box_increasing": ("erm_box", False, dict(mode="increasing_batch", restart_enabled=True,
                                                  restart_threshold=0.5)),
    "box_game": ("box_game", False, dict(mode="single_sample", eta=0.0)),
    "qp": ("qp", False, dict(mode="single_sample", eta=0.0)),
}


def counted_one_row(prob):
    """Count the step's calls of the instance's one-row oracle; None for a problem without one."""
    inner = prob.one_row_grad_x
    if inner is None:
        return None
    calls = []

    def one_row(l, i, points, weights, cache):
        calls.append(l)
        return inner(l, i, points, weights, cache)

    prob.one_row_grad_x = one_row
    return calls


@pytest.mark.parametrize("case", sorted(FACTORED_CASES))
def test_factored_steps_equal_the_reference_step_bitwise(case, monkeypatch):
    # the reference step forms M * batch_grad_x(...) and calls prox_step on
    # it; run() takes the one-row oracle and the factored kernel wherever it
    # draws v = 1 on a problem that has one, and must reach the same bits
    name, cache, config = FACTORED_CASES[case]
    prob = cached(lockstep_problem(name), cache)
    cfg = SolverConfig(max_iters=400, seed=4, stream=2, checkpoint_every=100, **config)
    sizes = []
    inner = solver.next_batch_size
    monkeypatch.setattr(solver, "next_batch_size", lambda *args: sizes.append(inner(*args)) or sizes[-1])
    calls = counted_one_row(prob)
    got = run(prob, cfg)
    monkeypatch.undo()
    assert_same_run(got, reference_run(prob, cfg))
    if calls is None:
        assert name in ("box_game", "qp")
    else:
        assert len(calls) == sizes.count(1) > 0
        if cfg.mode == "increasing_batch":
            assert max(sizes) > 1 and got.restarts >= 1


def test_a_wrapper_on_batch_grad_x_switches_the_factored_path_off():
    # a wrapper set on the instance sees every call, also at v = 1, and the
    # run keeps its bits
    prob = lockstep_problem("erm_box_scalar")
    cfg = SolverConfig(mode="single_sample", max_iters=200, seed=2, checkpoint_every=100, compute_sup_gap=False)
    want = run(prob, cfg)
    calls = counted_one_row(prob)
    seen = []
    inner = prob.batch_grad_x
    prob.batch_grad_x = lambda idx, i, points, w, **kw: seen.append(len(idx)) or inner(idx, i, points, w, **kw)
    assert_same_run(run(prob, cfg), want)
    assert seen == [1] * 200 and calls == []


def counted_one_row_y(prob):
    """Count the step's calls of the instance's one-row dual oracle."""
    inner, calls = prob.one_row_grad_y, []
    prob.one_row_grad_y = lambda j, points, cache: calls.append(j) or inner(j, points, cache)
    return calls


def test_a_wrapper_on_grad_y_switches_the_float_dual_row_off():
    # one-coordinate dual blocks take their rows from one_row_grad_y; a
    # wrapper set on the instance's grad_y sees every call instead, and the
    # run keeps its bits
    prob = lockstep_problem("erm_box_scalar")
    assert set(prob.structure.dual.dims) == {1}
    cfg = SolverConfig(mode="single_sample", max_iters=200, seed=2, checkpoint_every=100, compute_sup_gap=False)
    rows = counted_one_row_y(prob)
    want = run(prob, cfg)
    assert len(rows) == 200
    rows.clear()
    seen = []
    inner = prob.grad_y
    prob.grad_y = lambda j, points, **kw: seen.append(len(points)) or inner(j, points, **kw)
    assert_same_run(run(prob, cfg), want)
    assert len(seen) == 200 and set(seen) <= {1, 2} and rows == []


def test_a_raising_one_row_y_oracle_fails_the_step_as_grad_y_would():
    prob = lockstep_problem("erm_box_scalar")

    def broken(j, points, cache):
        raise RuntimeError("broken")

    prob.one_row_grad_y = broken
    state = RunState.start(prob)
    sched = FixedSchedule([0.05] * prob.structure.M, [0.03] * prob.structure.N)
    with pytest.raises(SolverError, match=r"^grad_y failed at iteration 0, dual block \d+: broken$") as excinfo:
        rbpda_step(state, prob, sched, BatchSchedule.constant(1, prob.p), make_rng(1))
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    assert state.k == 0 and state.dual_grad_evals == 0 and state.grad_budget == 0
    assert np.array_equal(state.x, prob.start_x) and np.array_equal(state.y, prob.start_y)


def test_a_retried_hand_driven_step_is_the_step_a_fresh_plan_takes():
    # one_row_grad_y fails once, at k = 3, under the diminishing steps of a
    # single-sample schedule.  The retry takes the row of k = 3 anew, from
    # where the generator sits, so it and the steps after it equal, bit for
    # bit, those of a plan built afresh on a copy of the state and generator
    prob = lockstep_problem("erm_box_scalar")
    sched = build_schedule(prob, SolverConfig(mode="single_sample", eta=0.5))
    assert sched.mode == "diminishing"
    batch = BatchSchedule.constant(1, prob.p)
    inner, fail = prob.one_row_grad_y, []

    def once(j, points, cache):
        if fail:
            raise RuntimeError(fail.pop())
        return inner(j, points, cache)

    prob.one_row_grad_y = once
    state, rng = RunState.start(prob), make_rng(6)
    for _ in range(3):
        rbpda_step(state, prob, sched, batch, rng)
    fail.append("once")
    with pytest.raises(SolverError, match=r"^grad_y failed at iteration 3, dual block \d+: once$"):
        rbpda_step(state, prob, sched, batch, rng)
    assert state.k == 3 and not fail
    twin, twin_rng = copy.deepcopy(dataclasses.replace(state, plan=None)), make_rng(0)
    twin_rng.bit_generator.state = rng.bit_generator.state
    twin.plan = StepPlan(prob, twin_rng, sched, batch)
    for it in range(3, 12):
        rbpda_step(state, prob, sched, batch, rng)
        rbpda_step(twin, prob, sched, batch, twin_rng)
        assert state.k == twin.k == it + 1 and state.grad_budget == twin.grad_budget, it
        for got, want in ((state.x, twin.x), (state.y, twin.y), (state.x_prev, twin.x_prev),
                          (state.y_prev, twin.y_prev), (state.counters.counts, twin.counters.counts)):
            assert np.array_equal(got, want), it
        assert rng.bit_generator.state == twin_rng.bit_generator.state, it


def test_hand_driven_one_row_steps_draw_one_call_at_a_time():
    # float dual rows and single draws (index()) on a hand-driven plan: after
    # every step the generator sits where draw_block and sample_indices,
    # called in turn, leave it
    prob = lockstep_problem("erm_box_scalar")
    st = prob.structure
    rows, calls = counted_one_row_y(prob), counted_one_row(prob)
    sched = FixedSchedule([0.05] * st.M, [0.03] * st.N)
    state, rng, ref = RunState.start(prob), make_rng(8), make_rng(8)
    for it in range(40):
        v = 1 if it % 4 else 3
        rbpda_step(state, prob, sched, BatchSchedule.constant(v, prob.p), rng)
        draw_block(ref, st.N), draw_block(ref, st.M), sample_indices(ref, v, prob.p)
        assert rng.bit_generator.state == ref.bit_generator.state, it
    assert len(rows) == 40 and len(calls) == 30


def hand_step_with_coefficient(coef, factored: bool):
    """One hand-driven erm_box_scalar step whose one-row term has coefficient ``coef``.

    The factored path proxes ``(coef, row)``; the generic path, switched on
    by a wrapper on ``batch_grad_x``, proxes ``M * (coef * row)``.  Returns the
    state after the step, or the SolverError it raised, with the state.
    """
    prob = lockstep_problem("erm_box_scalar")
    one_row = prob.one_row_grad_x

    def scaled(l, i, points, weights, cache=None):
        _, row = one_row(l, i, points, weights, cache)
        return coef, row

    prob.one_row_grad_x = scaled
    if not factored:
        prob.batch_grad_x = lambda idx, i, points, w, **kw: np.multiply(*scaled(int(idx[0]), i, points, w))
    state = RunState.start(prob)
    state.x[:] = 0.5
    state.x_prev[:] = 0.5
    sched = FixedSchedule([0.05] * 3, [0.03] * 12)
    before = [v.copy() for v in (state.x, state.y, state.x_prev, state.y_prev)]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rbpda_step(state, prob, sched, BatchSchedule.constant(1, prob.p), make_rng(6))
        except SolverError as exc:
            for old, cur in zip(before, (state.x, state.y, state.x_prev, state.y_prev)):
                assert np.array_equal(old, cur)
            assert np.array_equal(state.y_next, state.y)
            return exc, state
    return None, state


@pytest.mark.parametrize("coef", [math.inf, -math.inf, math.nan])
def test_a_non_finite_coefficient_fails_the_step_as_the_generic_path_does(coef):
    got, _ = hand_step_with_coefficient(coef, factored=True)
    want, _ = hand_step_with_coefficient(coef, factored=False)
    assert isinstance(got, SolverError) and str(got) == str(want)
    assert "primal prox failed at iteration 0" in str(got)
    assert str(got).endswith("non-finite entries in the linear term")


@pytest.mark.parametrize("coef", [1e303, -1e303, 1e302])
def test_a_finite_coefficient_past_the_scalar_bound_steps_normally(coef):
    # past the bound the check runs entrywise: the term is still finite, so
    # the step goes on, to the generic path's bits
    prob = lockstep_problem("erm_box_scalar")
    assert abs(coef) * prob.structure.M * prob.row_bound > 2.0**1000  # beyond the one-comparison check
    got, state = hand_step_with_coefficient(coef, factored=True)
    want, ref = hand_step_with_coefficient(coef, factored=False)
    assert got is None and want is None and state.k == 1
    assert state.x.tobytes() == ref.x.tobytes() and state.y.tobytes() == ref.y.tobytes()
    assert np.isin(np.abs(state.x), [0.5, 2.0]).all() and (np.abs(state.x) == 2.0).any()


def test_factored_kernel_verdicts_and_bits_equal_the_array_kernel():
    # every kind with an in-place path, and one without, at coefficients on
    # both sides of the one-comparison bound, zero, signed zero and non-finite
    rng = np.random.default_rng(5)
    row = np.concatenate([rng.uniform(-3.0, 3.0, 6), [0.0, -3.0]])
    x_bar = rng.uniform(-1.0, 1.0, row.size)
    scale, bound = 4.0, 3.0
    limit = 2.0**1000 / (scale * bound)
    specs = [ProxSpec.box(-np.ones(row.size), np.ones(row.size)), ProxSpec.zero(), ProxSpec.nonneg(),
             ProxSpec.scaled_l1(0.5)]
    coefs = [0.0, -0.0, 1e-310, 0.7, -2.5, limit * 0.999, limit * 1.001, -limit * 1.001, 1e306, 1e308,
             math.inf, -math.inf, math.nan]
    for spec in specs:
        array = prox_kernel(EUCLIDEAN, spec)
        factored = prox_kernel(EUCLIDEAN, spec, factored=(scale, bound))
        for coef in coefs:
            for step in (0.3, 0.0):
                outcomes = []
                for kernel, linear in ((factored, (coef, row)), (array, None)):
                    with np.errstate(over="ignore", invalid="ignore"):
                        try:
                            term = scale * (coef * row) if linear is None else linear
                            outcomes.append(kernel(term, step, x_bar).tobytes())
                        except ValueError as exc:
                            outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (spec.kind, coef, step, outcomes)
        with pytest.raises(ValueError, match="dimension mismatch"):
            factored((1.0, row), 0.3, x_bar[:-1])


def test_factored_box_kernel_equals_the_array_kernel_at_ties_signed_zeros_and_nan():
    # bounds of +-0.0 and points that land on them, with either sign, or on a
    # bound exactly; a NaN point stays NaN.  Blocks of one coordinate and of
    # ten: numpy's clip ufunc, run in place on one element, keeps a -0.0
    # point at a +0.0 upper bound where minimum gives the bound (numpy
    # 2.4), so the kernel clips with maximum and then minimum, as the array
    # kernel does
    lower = np.array([0.0, -0.0, -1.0, -0.0, 0.0, -1.0, -1.0, 0.0, -0.0, -1.0])
    upper = np.array([0.0, 0.0, -0.0, 1.0, 1.0, 0.0, 1.0, 0.0, -0.0, -0.0])
    blocks = [slice(c, c + 1) for c in range(lower.size)] + [slice(None)]
    points = [-0.0, 0.0, -1.0, 1.0, 0.5, -2.0, -5e-324, math.nan]
    rng = np.random.default_rng(3)
    for blk in blocks:
        spec = ProxSpec.box(lower[blk], upper[blk])
        array = prox_kernel(EUCLIDEAN, spec)
        factored = prox_kernel(EUCLIDEAN, spec, factored=(2.0, 1.0))
        size = lower[blk].size
        for _ in range(60):
            x_bar = rng.choice(points, size)
            row = rng.choice([0.0, -0.0, 0.25, -0.5, 1.0], size)
            for coef in (0.0, -0.0, 1.0, -2.0):
                for step in (0.5, 1.0):
                    got = factored((coef, row), step, x_bar)
                    want = array(2.0 * (coef * row), step, x_bar)
                    assert got.tobytes() == want.tobytes(), (x_bar, row, coef, step, got, want)


def test_factored_kernel_never_writes_its_inputs():
    row, x_bar = np.array([1.0, -2.0, 0.5]), np.array([0.2, 0.1, -0.3])
    kernel = prox_kernel(EUCLIDEAN, ProxSpec.box(-np.ones(3), np.ones(3)), factored=(2.0, 2.0))
    out = kernel((0.75, row), 0.5, x_bar)
    assert out is not row and out is not x_bar
    assert row.tolist() == [1.0, -2.0, 0.5] and x_bar.tolist() == [0.2, 0.1, -0.3]


class TestValidateOneRowY:
    def test_built_in_erm_oracle_passes(self):
        prob = lockstep_problem("erm_box_scalar")
        assert prob.one_row_grad_y is not None and validate_problem(prob).ok
        for name in ("erm_box", "erm_entropy"):  # no one-coordinate dual block
            assert lockstep_problem(name).one_row_grad_y is None

    @pytest.mark.parametrize("fault,message", [
        ("ulp", "one_row_grad_y block 0: differs from grad_y's column in its bits"),
        ("ulp_at_all_probes", "one_row_grad_y block 0: differs from grad_y's column in its bits"),
        ("numpy_float", "one_row_grad_y block 0: not one Python float per point"),
        ("short", "one_row_grad_y block 0: not one Python float per point"),
        ("raises", "one_row_grad_y(0) raised: broken"),
    ])
    def test_broken_one_row_y_oracle_flagged(self, fault, message):
        prob = lockstep_problem("erm_box_scalar")
        inner = prob.one_row_grad_y

        def broken(j, points, cache):
            col = list(inner(j, points, cache))
            if fault == "raises":
                raise RuntimeError("broken")
            if fault == "ulp" or fault == "ulp_at_all_probes" and len(points) > 1:
                col[-1] = float(np.nextafter(col[-1], math.inf))
            elif fault == "numpy_float":
                col[0] = np.float64(col[0])
            elif fault == "short":
                col.pop()
            return col

        prob.one_row_grad_y = broken
        report = validate_problem(prob)
        assert any(message in msg for msg in report.failures), report.failures


class TestValidateOneRow:
    def test_row_bound_must_be_nonnegative(self):
        prob = lockstep_problem("erm_box")
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="row_bound must be nonnegative"):
                dataclasses.replace(prob, row_bound=bad)

    def test_built_in_erm_oracles_pass(self):
        for name in ("erm_box", "erm_box_scalar", "erm_entropy"):
            prob = lockstep_problem(name)
            assert prob.one_row_grad_x is not None
            assert validate_problem(prob).ok, name

    @pytest.mark.parametrize("fault,message", [
        ("coef_ulp", "coef * row differs from batch_grad_x([0]) in its bits"),
        ("float32_row", "the row is not a float64 (2,) array"),
        ("short_row", "the row is not a float64 (2,) array"),
        ("bound", "a row entry exceeds row_bound"),
        ("raises", "one_row_grad_x(0, 0) raised: broken"),
    ])
    def test_broken_one_row_oracle_flagged(self, fault, message):
        prob = lockstep_problem("erm_box")  # M = 3 blocks of 2 columns
        inner = prob.one_row_grad_x
        if fault == "bound":
            prob.row_bound = 1e-3

        def broken(l, i, points, weights, cache):
            coef, row = inner(l, i, points, weights, cache)
            if fault == "coef_ulp":
                return np.nextafter(coef, math.inf), row
            if fault == "float32_row":
                return coef, row.astype(np.float32)
            if fault == "short_row":
                return coef, row[:-1]
            if fault == "raises":
                raise RuntimeError("broken")
            return coef, row

        prob.one_row_grad_x = broken
        report = validate_problem(prob)
        assert any(message in msg for msg in report.failures), report.failures

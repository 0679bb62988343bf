"""Iteration semantics, ergodic averaging, restarts, budgets, and the baseline oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from rbpda import sampling
from rbpda.blocks import BlockStructure, ProxSpec, SaddleProblem
from rbpda.bregman import prox_step
from rbpda.problems import (
    ConstrainedSpec,
    MatrixGameSpec,
    _sigmoid,
    box_game_problem,
    constrained_qp_problem,
    generate_robust_erm,
    matrix_game_problem,
    robust_erm_problem,
)
from rbpda.sampling import (
    BatchSchedule,
    BlockCounters,
    draw_block,
    make_rng,
    next_batch_size,
    sample_indices,
)
from rbpda.solver import (
    ErgodicAccumulator,
    build_schedule,
    RunState,
    SolverConfig,
    SolverError,
    deterministic_baseline_run,
    rbpda_step,
    restart_if_saturated,
    run,
)
from rbpda.stepsize import (
    BlockLipschitz,
    StepSchedule,
    aggregate_constants,
    constant_stepsizes,
    default_free_params,
    schedule_t,
    schedule_theta,
)

from baseline_oracle import deterministic_baseline_step


def scalar_bilinear_problem():
    st = BlockStructure.from_dims([1], [1])
    lip = BlockLipschitz(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))
    return SaddleProblem(
        structure=st,
        p=1,
        primal_prox=[ProxSpec.zero()],
        dual_prox=[ProxSpec.zero()],
        component_grad_x=lambda l, i, x, y: y.copy(),
        grad_y=lambda j, points: np.array([x for x, _ in points]),
        lipschitz=lip,
        phi_value=lambda x, y: float(x @ y),
        phi_component=lambda l, x, y: float(x @ y),
        start_x=np.array([1.0]),
        start_y=np.array([1.0]),
    )


class FixedSchedule:
    """Constant schedule with caller-chosen steps, for hand simulations: what a step plan and the reference read."""

    mode = "constant"

    def __init__(self, tau, sigma):
        self._tau = np.atleast_1d(np.asarray(tau, float))
        self._sigma = np.atleast_1d(np.asarray(sigma, float))

    def tau(self, k):
        return self._tau

    def sigma(self, k):
        return self._sigma

    def columns(self, ks):
        return np.ones(len(ks)), np.ones(len(ks))

    def steps_at(self, primal_blocks, dual_blocks, theta, t):
        return self._tau[primal_blocks], self._sigma[dual_blocks]

    def theta(self, k):
        return 1.0

    def t(self, k):
        return 1.0


class TestRbpdaStep:
    def test_zero_coupling_fixed_point(self):
        st = BlockStructure.from_dims([2], [2])
        lip = BlockLipschitz(np.zeros((1, 1)), np.full((1, 1), 1e-9), np.zeros((1, 1)), np.full((1, 1), 1e-9))
        prob = SaddleProblem(
            structure=st,
            p=1,
            primal_prox=[ProxSpec.zero()],
            dual_prox=[ProxSpec.zero()],
            component_grad_x=lambda l, i, x, y: np.zeros(2),
            grad_y=lambda j, points: np.zeros((len(points), 2)),
            lipschitz=lip,
            start_x=np.array([1.0, -2.0]),
            start_y=np.array([0.5, 0.5]),
        )
        state = RunState.start(prob)
        for _ in range(10):
            rbpda_step(state, prob, FixedSchedule([0.3], [0.3]), BatchSchedule.constant(1, 1), make_rng(0))
        np.testing.assert_allclose(state.x, [1.0, -2.0])
        np.testing.assert_allclose(state.y, [0.5, 0.5])

    def test_scalar_bilinear_hand_simulation(self):
        prob = scalar_bilinear_problem()
        state = RunState.start(prob)
        rbpda_step(state, prob, FixedSchedule([0.5], [0.5]), BatchSchedule.constant(1, 1), make_rng(0))
        assert state.y[0] == pytest.approx(1.5)
        assert state.x[0] == pytest.approx(0.25)

    def test_budget_increments(self):
        prob = scalar_bilinear_problem()
        state = RunState.start(prob)
        rbpda_step(state, prob, FixedSchedule([0.5], [0.5]), BatchSchedule.constant(1, 1), make_rng(0))
        assert state.grad_budget == 3
        assert state.dual_grad_evals == 2

    def test_prox_error_carries_iteration_context(self):
        prob = scalar_bilinear_problem()

        def bad_grad(l, i, x, y):
            return np.array([np.nan])

        prob.component_grad_x = bad_grad
        prob.batch_grad_x = None
        prob.__post_init__()
        state = RunState.start(prob)
        with pytest.raises(SolverError, match="iteration 0"):
            rbpda_step(state, prob, FixedSchedule([0.5], [0.5]), BatchSchedule.constant(1, 1), make_rng(0))


def full_copy_step(state, problem, schedule, batch, rng):
    """Reference iteration: the step with whole-vector copies and step vectors.

    It builds y^(k+1) and x^(k+1) as fresh copies and overwrites all four
    iterate vectors, so it relies on no block-copy invariant.
    """
    st = problem.structure
    M, N, p = st.M, st.N, problem.p
    k = state.k
    theta = schedule.theta(k)
    x_k, y_k = state.x, state.y
    x_prev, y_prev = state.x_prev, state.y_prev

    j = draw_block(rng, N)
    # one point per call, independent of the two-point call in rbpda_step
    g_now = np.asarray(problem.grad_y(j, [(x_k, y_k)]), dtype=float)[0]
    g_old = np.asarray(problem.grad_y(j, [(x_prev, y_prev)]), dtype=float)[0]
    state.dual_grad_evals += 2
    s = N * g_now + N * M * theta * (g_now - g_old)
    spec = problem.dual_prox[j]
    blk_j = st.dual.block_range(j)
    y_next = y_k.copy()
    y_next[blk_j] = prox_step(spec.geometry, spec, -s, float(schedule.sigma(k)[j]), y_k[blk_j])

    i = draw_block(rng, M)
    v = next_batch_size(batch, state.counters, i, k, p)
    indices = np.arange(p) if v >= p else sample_indices(rng, v, p)
    # the estimator itself is checked against the component means in
    # test_weighted_batch_grad_matches_component_means; this reference takes
    # r = M (g_new + (N-1) theta (g_cur - g_old)) from one weighted call
    c = (N - 1) * theta
    points = [(x_k, y_next), (x_k, y_k), (x_prev, y_prev)]
    r = M * np.asarray(problem.batch_grad_x(indices, i, points, (1.0, c, -c)), dtype=float)
    state.grad_budget += 3 * v
    spec = problem.primal_prox[i]
    blk_i = st.primal.block_range(i)
    x_next = x_k.copy()
    x_next[blk_i] = prox_step(spec.geometry, spec, r, float(schedule.tau(k)[i]), x_k[blk_i])

    state.x_prev[:] = x_k
    state.y_prev[:] = y_k
    state.x[:] = x_next
    state.y[:] = y_next
    state.k += 1
    return state


def lockstep_problem(name):
    data = generate_robust_erm(3, 12, 6, 0.1)
    A3 = np.array([[1.0, -0.5, 0.2], [0.3, 0.8, -1.0], [-0.7, 0.1, 0.9]])
    A4 = np.array(
        [[1.0, 0.3, 0.2, 0.1], [0.3, 2.0, 0.1, 0.2], [0.2, 0.1, 1.0, 0.3], [0.1, 0.2, 0.3, 2.0]]
    )
    qp = ConstrainedSpec(
        Q=[[2.0, 0.3], [0.3, 1.0]], c=[0.5, -1.0], G=[[1.0, -1.0], [0.5, 1.0]], d=[0.5, 0.2]
    )
    builders = {
        "erm_box": lambda: robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=4),
        "erm_box_scalar": lambda: robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=12),
        "erm_entropy": lambda: robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=1),
        "game_euclidean": lambda: matrix_game_problem(MatrixGameSpec(A3))[0],
        "game_entropy": lambda: matrix_game_problem(MatrixGameSpec(A3, "negative_entropy"))[0],
        "box_game": lambda: box_game_problem(A4, m_blocks=2, n_blocks=2)[0],
        "qp": lambda: constrained_qp_problem(qp, m_blocks=2)[0],
    }
    return builders[name]()


def attach_cache(state, prob):
    """Give a hand-driven run state the problem's coupling cache, built for batches up to p."""
    state.cache = prob.coupling_cache(state.x, state.y, state.x_prev, state.y_prev, prob.p)
    return state


def assert_close(got, want, tol=1e-12):
    assert np.max(np.abs(got - want)) <= tol * max(1.0, float(np.max(np.abs(want))))


def run_lockstep(name, mode, cached):
    """Run the block-copy step beside the whole-vector reference for 60 iterations.

    Both start from the same seed and take one forced restart.  They must
    agree after every iteration: exactly without a cache, and to 1e-12 with
    the ERM margin cache (whose rank-block updates round differently), whose
    margins must also track A x and A x_prev.
    """
    prob = lockstep_problem(name)
    agg = aggregate_constants(prob.lipschitz)
    fp = default_free_params(agg, mode=mode)
    eta = 0.3 if mode == "diminishing" else 0.0
    if mode == "constant":
        batch = BatchSchedule.increasing(0.0)
    else:
        batch = BatchSchedule.constant(1, prob.p)
    new, ref = RunState.start(prob), RunState.start(prob)
    if cached:
        attach_cache(new, prob)
    sched_new, sched_ref = (
        StepSchedule(mode=mode, agg=agg, fp=fp, eta=eta) for _ in range(2)
    )
    rng_new, rng_ref = make_rng(11), make_rng(11)
    for it in range(60):
        rbpda_step(new, prob, sched_new, batch, rng_new)
        full_copy_step(ref, prob, sched_ref, batch, rng_ref)
        if it == 25:
            restart_if_saturated(new, prob.p, threshold=0.0)
            restart_if_saturated(ref, prob.p, threshold=0.0)
        for attr in ("x", "y", "x_prev", "y_prev"):
            got, want = getattr(new, attr), getattr(ref, attr)
            if cached:
                assert_close(got, want)
            else:
                assert np.array_equal(got, want), (attr, it)
        if cached:
            A = new.cache.A
            assert_close(new.cache.z, A @ new.x)
            assert_close(new.cache.z_prev, A @ new.x_prev)
        assert (new.k, new.grad_budget, new.dual_grad_evals, new.restarts) == (
            ref.k,
            ref.grad_budget,
            ref.dual_grad_evals,
            ref.restarts,
        )
        assert np.array_equal(new.counters.counts, ref.counters.counts)
    assert new.restarts == 1
    assert not np.array_equal(new.x, prob.start_x)


LOCKSTEP_BUILTINS = ["erm_box", "erm_entropy", "game_euclidean", "game_entropy", "box_game", "qp", "erm_box_scalar"]


@pytest.mark.parametrize("batch", [None, 2])
@pytest.mark.parametrize("name", LOCKSTEP_BUILTINS)
def test_run_draws_in_chunks_like_sequential_steps(name, batch, monkeypatch):
    # run() takes its draws ahead as buffered words, here in fills of 16
    # words, so that a run that takes words crosses at least three fills;
    # the whole-vector reference draws one call at a time from a fresh
    # generator of the same (seed, stream), and both must reach the same
    # iterates bit for bit (without the coupling cache, whose updates
    # round differently)
    monkeypatch.setattr(sampling, "WORD_CHUNK", 16)
    fills = []
    fill = sampling.WordDraws._fill
    monkeypatch.setattr(sampling.WordDraws, "_fill", lambda draws, need: fills.append(need) or fill(draws, need))
    prob = lockstep_problem(name)
    prob.coupling_cache = None
    p = prob.p
    v = 1 if batch is None else min(batch, p)
    cfg = SolverConfig(mode="single_sample", eta=0.3, max_iters=150, seed=5, stream=2,
                       batch=None if batch is None else v, checkpoint_every=40, compute_sup_gap=False)
    res = run(prob, cfg)
    st = prob.structure
    assert len(fills) >= 3 or (st.N == st.M == 1 and v >= p)  # only a run that takes no word fills none
    sched = build_schedule(prob, cfg)
    ref = RunState.start(prob)
    rng = make_rng(5, 2)
    for _ in range(150):
        full_copy_step(ref, prob, sched, BatchSchedule.constant(v, p), rng)
    assert np.array_equal(res.x, ref.x) and np.array_equal(res.y, ref.y)
    assert (res.grad_budget, res.dual_grad_evals) == (ref.grad_budget, ref.dual_grad_evals)
    assert not np.array_equal(res.x, prob.start_x)


@pytest.mark.parametrize("name", LOCKSTEP_BUILTINS)
def test_increasing_batch_run_draws_ahead_like_sequential_steps(name):
    # at p > 1 an increasing batch draws as many indices as the drawn
    # block's count asks for, and run() takes the generator's 32-bit words
    # ahead; the whole-vector reference draws one call at a time, restarts
    # as run() does, and both must reach the same state bit for bit
    # (without the coupling cache, whose updates round differently)
    prob = lockstep_problem(name)
    prob.coupling_cache = None
    cfg = SolverConfig(mode="increasing_batch", eta=0.5, max_iters=300, seed=5, stream=3,
                       restart_enabled=True, checkpoint_every=100, compute_sup_gap=False)
    res = run(prob, cfg)
    sched = build_schedule(prob, cfg)
    batch = BatchSchedule.increasing(cfg.eta)
    ref = RunState.start(prob)
    rng = make_rng(5, 3)
    for _ in range(cfg.max_iters):
        full_copy_step(ref, prob, sched, batch, rng)
        restart_if_saturated(ref, prob.p, cfg.restart_threshold, cfg.eta)
    assert np.array_equal(res.x, ref.x) and np.array_equal(res.y, ref.y)
    assert (res.grad_budget, res.dual_grad_evals, res.restarts) == (
        ref.grad_budget, ref.dual_grad_evals, ref.restarts
    )
    assert res.restarts >= 2 and not np.array_equal(res.x, prob.start_x)
    if prob.p > 1:  # the batches grew
        assert res.grad_budget > 3 * cfg.max_iters


def test_hand_driven_steps_draw_one_step_at_a_time():
    # a step driven by hand takes nothing ahead from its generator: after
    # every step it sits where the sequential draws leave it, across a
    # change of batch schedule, other use of the generator between steps,
    # a saved and restored generator state, and a new generator
    prob = lockstep_problem("erm_box")
    prob.coupling_cache = None
    p = prob.p
    agg = aggregate_constants(prob.lipschitz)
    fp = default_free_params(agg, mode="constant")
    sched_new, sched_ref = (StepSchedule(mode="constant", agg=agg, fp=fp) for _ in range(2))
    new, ref = RunState.start(prob), RunState.start(prob)
    rng_new, rng_ref = make_rng(3), make_rng(3)
    for it in range(40):
        if it == 30:
            rng_new, rng_ref = make_rng(4), make_rng(4)
        batch = BatchSchedule.constant(1 if it < 10 else 2, p)
        if it == 20:
            saved = rng_new.bit_generator.state
            rbpda_step(RunState.start(prob), prob, sched_new, batch, rng_new)
            rng_new.bit_generator.state = saved
        rbpda_step(new, prob, sched_new, batch, rng_new)
        full_copy_step(ref, prob, sched_ref, batch, rng_ref)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state, it
        assert np.array_equal(new.x, ref.x) and np.array_equal(new.y, ref.y), it
        if it % 7 == 0:
            assert rng_new.random() == rng_ref.random()


class TestBlockCopyLockstep:
    # erm_box_scalar has one-coordinate dual blocks, whose step runs in Python floats
    @pytest.mark.parametrize("mode", ["constant", "diminishing"])
    @pytest.mark.parametrize("name", LOCKSTEP_BUILTINS)
    def test_matches_full_copy_step_bitwise(self, name, mode):
        run_lockstep(name, mode, cached=False)

    @pytest.mark.parametrize("mode", ["constant", "diminishing"])
    @pytest.mark.parametrize("name", ["erm_box", "erm_entropy"])
    def test_cached_erm_matches_full_copy_step(self, name, mode):
        run_lockstep(name, mode, cached=True)

    def test_non_finite_dual_gradient_on_a_one_coordinate_block(self):
        prob = lockstep_problem("erm_box_scalar")
        state = RunState.start(prob)
        rng = make_rng(2)
        sched = FixedSchedule([0.05] * 3, [0.03] * 12)
        batch = BatchSchedule.constant(1, prob.p)
        for _ in range(3):
            rbpda_step(state, prob, sched, batch, rng)
        before = [v.copy() for v in (state.x, state.y, state.x_prev, state.y_prev)]
        inner = prob.grad_y
        for bad in (np.nan, np.inf, -np.inf):
            prob.grad_y = lambda j, points, **kw: np.full_like(inner(j, points, **kw), bad)
            message = r"dual prox failed at iteration 3, block \d+: non-finite"
            with pytest.raises(SolverError, match=message) as info:
                rbpda_step(state, prob, sched, batch, rng)
            assert isinstance(info.value.__cause__, ValueError)
            after = (state.x, state.y, state.x_prev, state.y_prev)
            for old, cur in zip(before, after):
                assert np.array_equal(old, cur)
            assert np.array_equal(state.y_next, state.y)
            assert state.k == 3

    def test_failed_step_leaves_iterates_unchanged(self):
        for name in ("box_game", "erm_box"):  # without and with a coupling cache
            self._check_failed_step(name)

    @staticmethod
    def _check_failed_step(name):
        prob = lockstep_problem(name)
        state = RunState.start(prob)
        if prob.coupling_cache is not None:
            attach_cache(state, prob)
        rng = make_rng(2)
        steps = {"box_game": ([0.05, 0.04], [0.03, 0.06]), "erm_box": ([0.05] * 3, [0.03] * 4)}
        sched = FixedSchedule(*steps[name])
        batch = BatchSchedule.constant(1, prob.p)
        for _ in range(3):
            rbpda_step(state, prob, sched, batch, rng)
        before = [v.copy() for v in (state.x, state.y, state.x_prev, state.y_prev)]
        if state.cache is not None:
            cache_before = (state.cache.z.copy(), state.cache.z_prev.copy(), state.cache.moves)
        inner = prob.batch_grad_x
        prob.batch_grad_x = lambda idx, i, points, w, **kw: np.full_like(
            inner(idx, i, points, w, **kw), np.nan
        )
        with pytest.raises(SolverError, match="primal prox failed"):
            rbpda_step(state, prob, sched, batch, rng)
        after = (state.x, state.y, state.x_prev, state.y_prev)
        for old, cur in zip(before, after):
            assert np.array_equal(old, cur)
        assert np.array_equal(state.y_next, state.y)
        if state.cache is not None:
            z, z_prev, moves = cache_before
            assert np.array_equal(state.cache.z, z)
            assert np.array_equal(state.cache.z_prev, z_prev)
            assert state.cache.moves == moves


@pytest.mark.parametrize(
    "name", ["erm_box", "erm_entropy", "game_euclidean", "game_entropy", "box_game", "qp"]
)
def test_three_point_batch_grad_equals_one_point_calls(name):
    # the solver's three points, the first two sharing the array x^k, in one
    # call whose weights select one point must give exactly what that
    # point's one-point call gives: the shared x^k work serves the right points
    prob = lockstep_problem(name)
    st = prob.structure
    rng = np.random.default_rng(4)
    for v in (1, 2, 7, prob.p):
        indices = np.arange(prob.p) if v == prob.p else rng.integers(0, prob.p, size=v)
        x_k, x_prev = rng.uniform(-1, 1, (2, st.m))
        y_next, y_k, y_prev = rng.uniform(0.05, 1, (3, st.n))
        points = ((x_k, y_next), (x_k, y_k), (x_prev, y_prev))
        for i in range(st.M):
            for k, point in enumerate(points):
                select = tuple(float(k == q) for q in range(3))
                fused = prob.batch_grad_x(indices, i, points, select)
                assert fused.shape == (st.primal.dims[i],)
                assert np.array_equal(fused, prob.batch_grad_x(indices, i, [point], (1.0,))), (v, i, k)


@pytest.mark.parametrize("name", ["erm_box", "erm_entropy"])
def test_cached_batch_grad_matches_uncached(name):
    # with the margin cache over (x_k, x_prev), a three-point call that
    # selects one point still equals its one-point call exactly, and the
    # weighted call equals the uncached oracle to 1e-12; v = p reads A in
    # place instead of gathering rows
    prob = lockstep_problem(name)
    st = prob.structure
    rng = np.random.default_rng(5)
    x_k, x_prev = rng.uniform(-1, 1, (2, st.m))
    y_next, y_k, y_prev = rng.uniform(0.05, 1, (3, st.n))
    cache = prob.coupling_cache(x_k, y_k, x_prev, y_prev, prob.p)
    points = ((x_k, y_next), (x_k, y_k), (x_prev, y_prev))
    for v in (1, 2, 7, prob.p):
        indices = np.arange(prob.p) if v == prob.p else rng.integers(0, prob.p, size=v)
        for i in range(st.M):
            for k, point in enumerate(points):
                select = tuple(float(k == q) for q in range(3))
                fused = prob.batch_grad_x(indices, i, points, select, cache=cache)
                assert np.array_equal(fused, prob.batch_grad_x(indices, i, [point], (1.0,), cache=cache))
            weights = (3.0, 1.5, -1.5)
            assert_close(prob.batch_grad_x(indices, i, points, weights, cache=cache),
                         prob.batch_grad_x(indices, i, points, weights))
    for j in range(st.N):
        for x, y in ((x_k, y_k), (x_prev, y_prev)):
            assert_close(prob.grad_y(j, [(x, y)], cache=cache), prob.grad_y(j, [(x, y)]))
    # an array the cache does not own is computed from scratch
    other = x_k.copy()
    assert np.array_equal(prob.grad_y(0, [(other, y_k)], cache=cache), prob.grad_y(0, [(other, y_k)]))


_WEIGHT = hst.one_of(hst.just(0.0), hst.floats(-2.0, 2.0, allow_nan=False))


@pytest.mark.parametrize("name", LOCKSTEP_BUILTINS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=hst.integers(0, 2**32 - 1),
    v=hst.sampled_from(["1", "2", "7", "p", "p drawn"]),
    sharing=hst.lists(hst.integers(0, 1), min_size=1, max_size=4),
    weights=hst.lists(_WEIGHT, min_size=4, max_size=4),
    cached=hst.booleans(),
)
def test_weighted_batch_grad_matches_component_means(name, seed, v, sharing, weights, cached):
    # one weighted call equals the weighted sum of the looped component
    # means, point by point; the points share two primal arrays in the
    # drawn pattern, the indices are read-only and hold duplicates
    prob = lockstep_problem(name)
    st, p = prob.structure, prob.p
    rng = np.random.default_rng(seed)
    if v == "p":
        indices = np.arange(p)
    else:
        indices = rng.integers(0, p, size=p if v == "p drawn" else int(v))
        indices[-1] = indices[0]
    indices.flags.writeable = False
    xs = list(rng.uniform(-1, 1, (2, st.m)))
    points = [(xs[a], rng.uniform(0.05, 1, st.n)) for a in sharing]
    weights = tuple(weights[: len(points)])
    kw = {}
    if cached and prob.coupling_cache is not None:
        kw["cache"] = prob.coupling_cache(xs[0], points[0][1], xs[1], points[0][1], p)
    for i in range(st.M):
        got = prob.batch_grad_x(indices, i, points, weights, **kw)
        want = sum(w * prob._batch_grad_x_looped(indices, i, [pt], (1.0,)) for w, pt in zip(weights, points))
        assert got.shape == (st.primal.dims[i],)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want)))), (i, v)


GOLDEN_CONFIGS = {
    "increasing_restarts": dict(mode="increasing_batch", restart_enabled=True, restart_threshold=0.5),
    "single_sample": dict(mode="single_sample", eta=0.3),
}


@pytest.mark.parametrize("config", sorted(GOLDEN_CONFIGS))
@pytest.mark.parametrize(
    "name", ["erm_box", "erm_entropy", "game_euclidean", "game_entropy", "box_game", "qp"]
)
def test_golden_trajectory_with_and_without_cache(name, config):
    # run() with the problem's coupling cache and with the factory removed:
    # iterates and averages agree to 1e-12, budgets and restarts exactly
    cached, plain = lockstep_problem(name), lockstep_problem(name)
    plain.coupling_cache = None
    built = []
    if cached.coupling_cache is not None:
        factory = cached.coupling_cache
        cached.coupling_cache = lambda *buffers: built.append(factory(*buffers)) or built[-1]
    for stream in (0, 1):
        cfg = SolverConfig(
            max_iters=400, seed=7, stream=stream, checkpoint_every=100, compute_sup_gap=False,
            **GOLDEN_CONFIGS[config],
        )
        got, want = run(cached, cfg), run(plain, cfg)
        for attr in ("x", "y", "x_bar", "y_bar"):
            assert_close(getattr(got, attr), getattr(want, attr))
        for attr in ("grad_budget", "dual_grad_evals", "restarts", "iterations"):
            assert getattr(got, attr) == getattr(want, attr), attr
        if config == "increasing_restarts":
            assert got.restarts >= 1
    assert len(built) == (2 if name.startswith("erm") else 0)


@pytest.mark.parametrize("name", ["erm_entropy", "game_euclidean", "box_game", "erm_box"])
def test_dual_row_is_reused_for_the_same_block(name):
    # a step's g(x^k, y^k) is the next step's g(x^(k-1), y^(k-1)): grad_y
    # takes one point when the drawn dual block repeats, two at the first
    # step and after each restart (every step on N = 1 otherwise), and
    # dual_grad_evals still counts two per step
    prob = lockstep_problem(name)
    calls = []
    inner = prob.grad_y
    prob.grad_y = lambda j, points, **kw: calls.append((j, len(points))) or inner(j, points, **kw)
    st = prob.structure
    state = RunState.start(prob)
    if prob.coupling_cache is not None:
        attach_cache(state, prob)
    agg = aggregate_constants(prob.lipschitz)
    fp = default_free_params(agg, mode="constant")
    sched = StepSchedule(mode="constant", agg=agg, fp=fp)
    rng = make_rng(9)
    for it in range(60):
        rbpda_step(state, prob, sched, BatchSchedule.increasing(0.0), rng)
        if it in (20, 41):
            restart_if_saturated(state, prob.p, threshold=0.0)
    assert state.restarts == 2 and state.dual_grad_evals == 2 * 60
    for it, (j, count) in enumerate(calls):
        fresh = it in (0, 21, 42) or j != calls[it - 1][0]
        assert count == (2 if fresh else 1), (it, j)
    if st.N == 1:
        assert [c for _, c in calls].count(2) == 3
    else:
        assert 0 < [c for _, c in calls].count(1) < 60


def test_dual_row_is_kept_only_under_the_same_cache_state():
    # a cached margin and a direct one can differ in the last bit, so a row
    # computed without the cache is not reused with it, nor the reverse: the
    # hand-driven state drops its cache and takes it back, synced, every
    # five steps
    data = generate_robust_erm(4, 40, 20, 0.1)
    prob = robust_erm_problem(data, radius=2.0, m_blocks=1, n_blocks=2)
    calls = []
    inner = prob.grad_y
    prob.grad_y = lambda j, points, **kw: (
        calls.append((j, len(points), "cache" in kw)) or inner(j, points, **kw)
    )
    state = attach_cache(RunState.start(prob), prob)
    cache = state.cache
    sched = FixedSchedule([0.05], [0.05, 0.05])
    rng = make_rng(6)
    for it in range(60):
        on = bool(it // 5 % 2)
        if on and state.cache is None:
            cache.sync()  # the steps without it did not move it
        state.cache = cache if on else None
        rbpda_step(state, prob, sched, BatchSchedule.constant(3, prob.p), rng)
    for it, (j, count, on) in enumerate(calls):
        fresh = it == 0 or (j, on) != (calls[it - 1][0], calls[it - 1][2])
        assert count == (2 if fresh else 1), it
    assert [c for _, c, _ in calls].count(1) > 10


def test_dual_row_is_forgotten_when_the_cache_resyncs():
    # a sync between hand-driven steps recomputes the cached x^(k-1)
    # margins that the rank-block moves had left a few ulps off, so the next
    # step computes g(x^(k-1), y^(k-1)) afresh: the run keeps the bits of
    # one that forgets the row before every step
    data = generate_robust_erm(5, 80, 20, 0.1)
    prob = robust_erm_problem(data, radius=2.0, m_blocks=4, n_blocks=8)
    calls = []
    inner = prob.grad_y
    prob.grad_y = lambda j, points, **kw: calls.append(len(points)) or inner(j, points, **kw)
    sched = FixedSchedule([0.05] * 4, [0.05] * 8)
    runs = []
    for forget in (False, True):
        calls.clear()
        state = attach_cache(RunState.start(prob), prob)
        rng = make_rng(6)
        resynced = []
        for it in range(200):
            if forget:
                state.dual_row = None
            if it % 7 in (3, 5):
                state.cache.sync()
                resynced.append(it)
            rbpda_step(state, prob, sched, BatchSchedule.constant(3, prob.p), rng)
        assert all(calls[it] == 2 for it in resynced)
        runs.append((state.x.copy(), state.y.copy(), list(calls)))
    (x_kept, y_kept, kept_calls), (x_fresh, y_fresh, _) = runs
    assert kept_calls.count(1) > 10
    assert np.array_equal(x_kept, x_fresh) and np.array_equal(y_kept, y_fresh)


@pytest.mark.parametrize("config", sorted(GOLDEN_CONFIGS))
@pytest.mark.parametrize("name", ["erm_box", "erm_entropy", "box_game", "qp"])
def test_dual_row_reuse_is_bitwise(name, config, monkeypatch):
    # run() with the kept dual row and with the row forgotten before every
    # step reach the same bits, also across the margin cache's syncs: an
    # increasing batch on erm_box keeps the cache from the first step and
    # syncs it at each restart
    import rbpda.solver as solver_mod

    prob = lockstep_problem(name)
    built = []
    if prob.coupling_cache is not None:
        factory = prob.coupling_cache
        prob.coupling_cache = lambda *buffers: built.append(factory(*buffers)) or built[-1]
    single = []
    inner = prob.grad_y
    prob.grad_y = lambda j, points, **kw: single.append(len(points) == 1) or inner(j, points, **kw)
    cfg = SolverConfig(max_iters=400, seed=7, stream=1, checkpoint_every=100, compute_sup_gap=False,
                       **GOLDEN_CONFIGS[config])
    kept = run(prob, cfg)
    assert any(single) or kept.restarts == kept.iterations  # p <= 2 restarts after every step
    step = solver_mod.rbpda_step

    def forgetting(state, *args):
        state.dual_row = None
        return step(state, *args)

    monkeypatch.setattr(solver_mod, "rbpda_step", forgetting)
    fresh = run(prob, cfg)
    for attr in ("x", "y", "x_bar", "y_bar"):
        assert np.array_equal(getattr(kept, attr), getattr(fresh, attr)), attr
    for attr in ("grad_budget", "dual_grad_evals", "restarts", "iterations"):
        assert getattr(kept, attr) == getattr(fresh, attr), attr
    if name == "erm_box" and config == "increasing_restarts":
        assert kept.restarts >= 1 and built[0] is not None and built[0].syncs > 1


def test_cached_slopes_move_with_the_margins():
    # a move hands the slopes of x^k on to x^(k-1) unchanged, a sync (here
    # by a restart) drops them, and fresh slopes equal the formula on the
    # cached margins bit for bit
    data = generate_robust_erm(3, 40, 60, 0.1)
    prob = robust_erm_problem(data, radius=10.0, m_blocks=6, n_blocks=40)
    neg_b = -data.b
    state = attach_cache(RunState.start(prob), prob)
    cache = state.cache
    sched = FixedSchedule(np.full(6, 0.5), np.full(40, 0.5))
    rng = make_rng(3)
    for it in range(30):
        s = cache.slopes(state.x)
        assert np.array_equal(s, neg_b * _sigmoid(neg_b * cache.z))
        rbpda_step(state, prob, sched, BatchSchedule.constant(5, prob.p), rng)
        assert cache.slopes(state.x_prev) is s
        if it % 10 == 9:
            restart_if_saturated(state, prob.p, threshold=0.0)
            assert cache.s is None and cache.s_prev is None
    assert state.restarts == 3


def test_cache_drift_stays_below_1e12_and_refresh_is_exact():
    # rank-block updates accumulate rounding; every `period` moves the cache
    # recomputes A x, so after 5 periods the margins still match A x and
    # A x_prev to 1e-12 relative, and exactly at each refresh
    data = generate_robust_erm(3, 40, 60, 0.1)
    prob = robust_erm_problem(data, radius=10.0, m_blocks=6, n_blocks=1)
    st = prob.structure
    state = attach_cache(RunState.start(prob), prob)
    cache = state.cache
    sched = FixedSchedule(np.full(st.M, 0.5), [0.5])  # large steps, far moves
    rng = make_rng(3)
    assert cache.period == st.M
    A = data.A
    for move in range(1, 5 * cache.period + 1):
        rbpda_step(state, prob, sched, BatchSchedule.constant(1, prob.p), rng)
        assert cache.moves == move % cache.period
        assert_close(cache.z, A @ state.x)
        assert_close(cache.z_prev, A @ state.x_prev)
        if cache.moves == 0:
            assert np.array_equal(cache.z, A @ state.x)
    assert np.max(np.abs(state.x)) > 1.0  # the iterate moved far from 0


def reduction_deviation(prob, iters=100, seed=3):
    """Max per-iterate deviation between RB-PDA at M=N=1, v=p and the baseline."""
    agg = aggregate_constants(prob.lipschitz)
    fp = default_free_params(agg, mode="constant")
    tau, sigma = constant_stepsizes(agg, fp)
    sched = StepSchedule(mode="constant", agg=agg, fp=fp)
    state = RunState.start(prob)
    rng = make_rng(seed)
    batch = BatchSchedule.constant(prob.p, prob.p)
    x = prob.start_x.copy()
    y = prob.start_y.copy()
    x_prev, y_prev = x.copy(), y.copy()
    worst = 0.0
    for _ in range(iters):
        rbpda_step(state, prob, sched, batch, rng)
        x_new, y_new = deterministic_baseline_step(x, y, x_prev, y_prev, prob, float(tau[0]), float(sigma[0]))
        x_prev, y_prev = x, y
        x, y = x_new, y_new
        worst = max(
            worst,
            float(np.max(np.abs(state.x - x))),
            float(np.max(np.abs(state.y - y))),
        )
    return worst


class TestReductionEquivalence:
    def test_matrix_game(self):
        prob, _ = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))
        assert reduction_deviation(prob) <= 1e-12

    def test_desk_erm(self):
        data = generate_robust_erm(11, 50, 100, 0.1)
        prob = robust_erm_problem(data, radius=10.0, m_blocks=1, n_blocks=1)
        assert reduction_deviation(prob) <= 1e-12

    def test_entropy_game(self):
        prob, _ = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0]), geometry="negative_entropy"))
        assert reduction_deviation(prob) <= 1e-12

    def test_constrained_qp(self):
        from rbpda.problems import ConstrainedSpec, constrained_qp_problem

        spec = ConstrainedSpec(Q=[[2.0]], c=[0.0], G=[[-1.0]], d=[-1.0])
        prob, _, _ = constrained_qp_problem(spec)
        assert reduction_deviation(prob) <= 1e-12

    def test_box_game(self):
        prob, _ = box_game_problem(np.array([[1.0, 0.4], [0.4, 2.0]]))
        assert reduction_deviation(prob) <= 1e-12


class TestErgodicAccumulator:
    def test_constant_iterates_average_to_constant(self):
        for mode in ("uniform", "weighted"):
            sched = StepSchedule(mode="diminishing", eta=0.0) if mode == "weighted" else None
            acc = ErgodicAccumulator(3, 2, np.full(3, 2.0), np.full(2, -1.0), sched)
            for k in range(25):
                acc.update(np.full(3, 2.0), np.full(2, -1.0), k)
            x_bar, y_bar = acc.finalize()
            np.testing.assert_allclose(x_bar, 2.0, atol=1e-12)
            np.testing.assert_allclose(y_bar, -1.0, atol=1e-12)

    def test_uniform_k1_equals_first_iterate(self):
        acc = ErgodicAccumulator(4, 2, np.zeros(2), np.zeros(2))
        acc.update(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 0)
        x_bar, y_bar = acc.finalize()
        np.testing.assert_allclose(x_bar, [1.0, 2.0])
        np.testing.assert_allclose(y_bar, [3.0, 4.0])

    def test_uniform_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        M, N, K = 3, 2, 17
        xs = rng.standard_normal((K, 4))
        ys = rng.standard_normal((K, 3))
        acc = ErgodicAccumulator(M, N, np.zeros(4), np.zeros(3))
        for k in range(K):
            acc.update(xs[k], ys[k], k)
        x_bar, y_bar = acc.finalize()
        # direct: (M x^K + sum_{k=1}^{K-1} x^k) / (K + M - 1), iterates 1-indexed
        direct_x = (M * xs[-1] + xs[:-1].sum(axis=0)) / (K + M - 1)
        direct_y = (N * ys[-1] + ys[:-1].sum(axis=0)) / (K + N - 1)
        np.testing.assert_allclose(x_bar, direct_x, atol=1e-12)
        np.testing.assert_allclose(y_bar, direct_y, atol=1e-12)

    def test_weighted_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        M, N, K, eta = 3, 2, 12, 0.5
        sched = StepSchedule(mode="diminishing", eta=eta)
        xs = rng.standard_normal((K, 2))
        ys = rng.standard_normal((K, 2))
        acc = ErgodicAccumulator(M, N, np.zeros(2), np.zeros(2), sched)
        for k in range(K):
            acc.update(xs[k], ys[k], k)
        x_bar, _ = acc.finalize()
        ts = [schedule_t(k, eta) for k in range(K + 1)]
        ths = [schedule_theta(k, eta) for k in range(K + 1)]
        num = sum(
            ts[k] * (1 + (M - 1) * (1 - 1 / ths[k + 1])) * xs[k] for k in range(K)
        ) + (M - 1) * ts[K] * xs[-1]
        den = M - 1 + sum(ts[:K])
        np.testing.assert_allclose(x_bar, num / den, atol=1e-12)

    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("eta", [0.0, 0.5])
    @pytest.mark.parametrize("K", [1, 10, 100])
    def test_weighted_total_weight_identity(self, M, eta, K):
        sched = StepSchedule(mode="diminishing", eta=eta)
        acc = ErgodicAccumulator(M, M, np.zeros(1), np.zeros(1), sched)
        for k in range(K):
            acc.update(np.ones(1), np.ones(1), k)
        w_x, w_y = acc.total_weights()
        T_K = sum(schedule_t(k, eta) for k in range(K))
        assert abs(w_x - (T_K + M - 1)) <= 1e-10
        assert abs(w_y - (T_K + M - 1)) <= 1e-10

    @pytest.mark.parametrize("mode", ["uniform", "weighted"])
    def test_update_copies_the_iterates(self, mode):
        # the solver updates its iterate arrays in place after each fold-in
        sched = StepSchedule(mode="diminishing", eta=0.0) if mode == "weighted" else None
        acc = ErgodicAccumulator(2, 2, np.zeros(2), np.zeros(1), sched)
        x, y = np.array([1.0, 2.0]), np.array([3.0])
        for k in range(3):
            acc.update(x, y, k)
        before = acc.finalize()
        x[:] = 50.0
        y[:] = -50.0
        for got, want in zip(acc.finalize(), before):
            assert np.array_equal(got, want)

    def test_zero_iterations_returns_start(self):
        acc = ErgodicAccumulator(2, 2, np.array([5.0]), np.array([-5.0]))
        x_bar, y_bar = acc.finalize()
        np.testing.assert_allclose(x_bar, [5.0])
        np.testing.assert_allclose(y_bar, [-5.0])


class TestRestart:
    def _state(self, counts, k):
        prob = scalar_bilinear_problem()
        state = RunState.start(prob)
        state.counters = BlockCounters(np.asarray(counts, dtype=np.int64))
        state.k = k
        return state

    def test_below_threshold_noop(self):
        state = self._state([5, 7], k=12)
        restart_if_saturated(state, p=10, threshold=0.9)
        assert state.counters.counts.tolist() == [5, 7]
        assert state.restarts == 0

    def test_reset_at_threshold(self):
        state = self._state([8, 9], k=17)
        state.x[:] = 3.0
        state.x_prev[:] = -1.0
        restart_if_saturated(state, p=10, threshold=0.9)
        assert state.counters.counts.tolist() == [0, 0]
        assert state.restarts == 1
        # iterates preserved, history collapsed
        assert state.x[0] == 3.0
        assert state.x_prev[0] == 3.0

    def test_next_batch_after_restart_is_one(self):
        state = self._state([8, 8], k=16)
        restart_if_saturated(state, p=10, threshold=0.9)
        sched = BatchSchedule.increasing(0.0)
        assert (
            __import__("rbpda.sampling", fromlist=["next_batch_size"]).next_batch_size(
                sched, state.counters, 0, state.k, 10
            )
            == 1
        )

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5, 0.9, 0.97, 1.0])
    def test_decision_equals_the_rule_over_all_blocks(self, eta, threshold):
        # the O(1) test at the least count against the rule over every block
        rng = np.random.default_rng(int(threshold * 100) + int(eta * 10))
        for _ in range(300):
            M, p, k = int(rng.integers(1, 6)), int(rng.integers(1, 60)), int(rng.integers(0, 400))
            counts = rng.integers(0, 80, size=M)
            state = self._state(counts.copy(), k)
            vs = np.minimum(p, np.ceil((counts + 1) * (k + 1) ** eta))
            want = bool(np.all(vs >= np.ceil(threshold * p)))
            restart_if_saturated(state, p=p, threshold=threshold, eta=eta)
            assert state.restarts == int(want), (counts, p, k)
            assert state.counters.counts.tolist() == ([0] * M if want else counts.tolist())
            assert state.counters.low == (0 if want else counts.min())


class TestRun:
    def test_zero_iterations(self):
        prob, ref = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))
        res = run(prob, SolverConfig(max_iters=0, checkpoint_every=10))
        np.testing.assert_allclose(res.x_bar, prob.start_x)
        np.testing.assert_allclose(res.y_bar, prob.start_y)
        assert len(res.trace) == 1 and res.trace.rows[0].k == 0

    def test_seed_reproducibility(self):
        prob, ref = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))
        cfg = SolverConfig(mode="increasing_batch", max_iters=300, seed=5, checkpoint_every=50)
        r1 = run(prob, cfg, reference=(ref.x, ref.y))
        r2 = run(prob, cfg, reference=(ref.x, ref.y))
        np.testing.assert_array_equal(r1.x, r2.x)
        np.testing.assert_array_equal(r1.y, r2.y)
        assert r1.trace.column("sup_gap").tolist() == r2.trace.column("sup_gap").tolist()

    def test_gap_improves_on_game(self):
        A4 = np.array(
            [[1.0, 0.3, 0.2, 0.1], [0.3, 2.0, 0.1, 0.2], [0.2, 0.1, 1.0, 0.3], [0.1, 0.2, 0.3, 2.0]]
        )
        prob, ref = box_game_problem(A4, m_blocks=2, n_blocks=2)
        cfg = SolverConfig(mode="increasing_batch", max_iters=10_000, seed=1, checkpoint_every=100)
        res = run(prob, cfg, reference=(ref.x, ref.y))
        gaps = res.trace.column("sup_gap")
        ks = res.trace.column("k")
        assert gaps[ks == 10_000][0] < gaps[ks == 100][0]

    def test_checkpointing_never_perturbs_trajectory(self):
        prob, ref = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))
        base = dict(mode="increasing_batch", max_iters=250, seed=11)
        r_sparse = run(prob, SolverConfig(checkpoint_every=250, **base), reference=(ref.x, ref.y))
        r_dense = run(prob, SolverConfig(checkpoint_every=10, **base), reference=(ref.x, ref.y))
        np.testing.assert_array_equal(r_sparse.x, r_dense.x)
        np.testing.assert_array_equal(r_sparse.y, r_dense.y)
        np.testing.assert_array_equal(r_sparse.x_bar, r_dense.x_bar)

    def test_feasibility_at_checkpoints(self):
        prob, _ = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))
        cfg = SolverConfig(mode="single_sample", eta=0.0, max_iters=500, seed=2, checkpoint_every=100)
        res = run(prob, cfg)
        assert prob.in_domain(res.x, res.y, slack=1e-9)
        assert prob.in_domain(res.x_bar, res.y_bar, slack=1e-9)

    def test_budget_accounting_with_counting_wrapper(self):
        data = generate_robust_erm(4, 10, 8, 0.1)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=10)
        calls = {"components": 0}
        inner = prob.batch_grad_x

        def counting_batch(indices, i, points, weights, **kw):
            calls["components"] += len(np.atleast_1d(indices)) * len(points)
            return inner(indices, i, points, weights, **kw)

        prob.batch_grad_x = counting_batch
        cfg = SolverConfig(mode="increasing_batch", max_iters=200, seed=1, checkpoint_every=10**9, compute_sup_gap=False)
        res = run(prob, cfg)
        assert res.grad_budget == calls["components"]
        # one batch drawn per iteration, evaluated at three points
        assert res.grad_budget % 3 == 0
        assert res.grad_budget >= 3 * 200

    def test_saddle_start_stays_fixed(self):
        prob, ref = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))
        cfg = SolverConfig(
            mode="increasing_batch",
            max_iters=100,
            seed=8,
            batch=prob.p,
            checkpoint_every=10,
            x0=ref.x,
            y0=ref.y,
        )
        res = run(prob, cfg, reference=(ref.x, ref.y))
        gaps = res.trace.column("gap_ref")
        assert np.nanmax(np.abs(gaps)) <= 1e-9
        sups = res.trace.column("sup_gap")
        assert np.nanmax(np.abs(sups)) <= 1e-9

    def test_single_sample_pairs_with_weighted_average(self):
        prob = scalar_bilinear_problem()
        cfg = SolverConfig(mode="single_sample", eta=0.0, max_iters=50, seed=1, checkpoint_every=10**9, compute_sup_gap=False)
        res = run(prob, cfg)
        w_x, _ = res.ergodic_weights
        T = sum(schedule_t(k, 0.0) for k in range(50))
        assert w_x == pytest.approx(T, abs=1e-10)  # M = 1

    def test_step_error_preserves_partial_trace(self):
        prob = scalar_bilinear_problem()
        calls = {"n": 0}

        def failing_after(l, i, x, y):
            calls["n"] += 1
            if calls["n"] > 40:
                raise RuntimeError("oracle went away")
            return y.copy()

        prob.component_grad_x = failing_after
        prob.batch_grad_x = None
        prob.__post_init__()
        cfg = SolverConfig(mode="increasing_batch", max_iters=100, seed=1, checkpoint_every=5,
                           compute_sup_gap=False)
        with pytest.raises(SolverError) as excinfo:
            run(prob, cfg)
        partial = excinfo.value.result
        assert partial is not None
        assert len(partial.trace) >= 2
        k = partial.iterations
        assert 0 < k < 100
        # uniform averaging weights of the iterates reached, not the (0, 0) of no iterate
        M, N = prob.structure.M, prob.structure.N
        assert partial.ergodic_weights == (float(k + M - 1), float(k + N - 1))

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 1.5, np.nan, np.inf, -np.inf])
    def test_restart_threshold_rejected(self, threshold):
        # -1 used to restart on every iteration, NaN never
        with pytest.raises(ValueError, match="restart_threshold"):
            SolverConfig(restart_enabled=True, restart_threshold=threshold)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_increasing_batch_eta_must_be_finite(self, eta):
        # these used to pass and fail at iteration 1, converting the batch size to int
        with pytest.raises(ValueError, match="finite eta"):
            SolverConfig(mode="increasing_batch", eta=eta)

    @pytest.mark.parametrize("kwargs, tail", [
        ({"checkpoint_every": 0}, "got checkpoint_every = 0"),
        ({"mode": "single_sample", "eta": 1.0}, "got eta = 1.0"),
        ({"mode": "increasing_batch", "eta": -0.5}, "got eta = -0.5"),
        ({"restart_threshold": 1.5}, "got restart_threshold = 1.5"),
        ({"max_iters": -1}, "got max_iters = -1"),
    ], ids=["checkpoint_every", "single_sample_eta", "increasing_batch_eta", "restart_threshold", "max_iters"])
    def test_refusal_shows_the_value_given(self, kwargs, tail):
        with pytest.raises(ValueError) as excinfo:
            SolverConfig(**kwargs)
        assert str(excinfo.value).endswith(", " + tail)

    @pytest.mark.parametrize("kwargs, tail", [
        ({"max_iters": 10.5}, "max_iters must be an integer, got max_iters = 10.5"),
        ({"checkpoint_every": 2.5}, "checkpoint_every must be an integer, got checkpoint_every = 2.5"),
        ({"batch": 1.5}, "batch must be an integer, got batch = 1.5"),
        ({"seed": 1.5}, "seed must be an integer, got seed = 1.5"),
        ({"stream": 0.5}, "stream must be an integer, got stream = 0.5"),
        ({"seed": -1}, "seed must be nonnegative, got seed = -1"),
        ({"stream": -2}, "stream must be nonnegative, got stream = -2"),
    ], ids=["max_iters", "checkpoint_every", "batch", "seed", "stream", "negative_seed", "negative_stream"])
    def test_non_integral_and_negative_counts_are_refused(self, kwargs, tail):
        # seed = 1.5 used to run as seed 1, checkpoint_every = 2.5 to
        # checkpoint every 5 iterations, max_iters = 10.5 to die in range()
        # and seed = -1 to fail in numpy's seeding at the run
        with pytest.raises(ValueError) as excinfo:
            SolverConfig(**kwargs)
        assert str(excinfo.value) == tail

    def test_numpy_integer_counts_are_accepted(self):
        cfg = SolverConfig(max_iters=np.int64(3), checkpoint_every=np.int32(2), batch=np.int64(1),
                           seed=np.uint8(4), stream=np.int64(0))
        res = run(scalar_bilinear_problem(), cfg)
        assert res.iterations == 3 and len(res.trace.rows) == 3  # k = 0, 2 and 3

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_is_refused(self, batch):
        # these used to pass and fail every run in BatchSchedule.constant
        with pytest.raises(ValueError, match="batch must be at least 1"):
            SolverConfig(batch=batch)

    def test_restart_threshold_one_accepted(self):
        assert SolverConfig(restart_threshold=1.0).restart_threshold == 1.0

    @pytest.mark.parametrize(
        "arg,value,match",
        [
            ("x0", [np.nan, 0.0, 0.0, 0.0], "x0 has non-finite"),
            ("x0", [np.inf, 0.0, 0.0, 0.0], "x0 has non-finite"),
            ("x0", [1.5, 0.0, 0.0, 0.0], "x0 lies outside the primal domain"),
            ("x0", [0.0, 0.0, 0.0], "x0 has shape"),
            ("y0", [0.0, -np.inf, 0.0, 0.0], "y0 has non-finite"),
            ("y0", [0.0, 0.0, 0.0, -1.01], "y0 lies outside the dual domain"),
        ],
    )
    def test_bad_start_rejected_by_name(self, arg, value, match):
        prob = lockstep_problem("box_game")
        with pytest.raises(ValueError, match=match):
            run(prob, SolverConfig(max_iters=5, **{arg: np.array(value)}))
        with pytest.raises(ValueError, match=match):
            deterministic_baseline_run(prob, 0.1, 0.1, 5, **{arg: np.array(value)})

    def test_start_on_the_boundary_accepted(self):
        prob = lockstep_problem("box_game")
        res = run(prob, SolverConfig(max_iters=5, x0=np.array([1.0, -1.0, 1.0 + 1e-10, 0.0])))
        assert res.iterations == 5

    def test_as_mode_requires_positive_delta(self):
        prob = scalar_bilinear_problem()
        agg = aggregate_constants(prob.lipschitz)
        fp = default_free_params(agg, "constant", delta_bar=0.0)
        with pytest.raises(ValueError):
            run(prob, SolverConfig(mode="increasing_batch", max_iters=1, as_mode=True, free_params=fp))
        res = run(prob, SolverConfig(mode="increasing_batch", max_iters=5, as_mode=True))
        assert res.iterations == 5


class TestMultiBlockHandOracle:
    def test_two_block_steps_match_explicit_formulas(self):
        # replay two iterations of the 2x2-block box game against explicit
        # update formulas, reading the same seeded draw sequence
        A = np.array(
            [[1.0, 0.3, 0.2, 0.1], [0.3, 2.0, 0.1, 0.2], [0.2, 0.1, 1.0, 0.3], [0.1, 0.2, 0.3, 2.0]]
        )
        prob, _ = box_game_problem(A, half_width=1.0, m_blocks=2, n_blocks=2)
        M = N = 2
        tau = np.array([0.05, 0.04])
        sigma = np.array([0.03, 0.06])
        theta = 1.0

        state = RunState.start(prob)
        rng = make_rng(123)
        for _ in range(2):
            rbpda_step(state, prob, FixedSchedule(tau, sigma), BatchSchedule.constant(1, 1), rng)

        # independent replay
        rng2 = make_rng(123)
        x = prob.start_x.copy()
        y = prob.start_y.copy()
        x_prev, y_prev = x.copy(), y.copy()
        for _ in range(2):
            j = int(rng2.integers(N))
            blk_j = slice(2 * j, 2 * j + 2)
            g_now = (A.T @ x)[blk_j]
            g_old = (A.T @ x_prev)[blk_j]
            s = N * g_now + N * M * theta * (g_now - g_old)
            y_new = y.copy()
            y_new[blk_j] = np.clip(y[blk_j] + sigma[j] * s, -1.0, 1.0)
            i = int(rng2.integers(M))
            # batch v = p = 1 enumerates the single component: no index draw
            blk_i = slice(2 * i, 2 * i + 2)
            r = M * (
                (A @ y_new)[blk_i]
                + (N - 1) * theta * ((A @ y)[blk_i] - (A @ y_prev)[blk_i])
            )
            x_new = x.copy()
            x_new[blk_i] = np.clip(x[blk_i] - tau[i] * r, -1.0, 1.0)
            x_prev, y_prev = x, y
            x, y = x_new, y_new

        np.testing.assert_allclose(state.x, x, atol=1e-14)
        np.testing.assert_allclose(state.y, y, atol=1e-14)
        assert not np.array_equal(x, prob.start_x)  # the replay actually moved


class TestIntegration:
    def test_batch_enumerates_once_saturated(self):
        # once the growing batch reaches p the solver enumerates components
        # exactly instead of sampling with replacement
        data = generate_robust_erm(5, 3, 4, 0.0)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=1, n_blocks=3)
        seen = []
        inner = prob.batch_grad_x

        def recording(indices, i, points, weights, **kw):
            seen.append(np.array(indices))
            return inner(indices, i, points, weights, **kw)

        prob.batch_grad_x = recording
        cfg = SolverConfig(mode="increasing_batch", max_iters=10, seed=1,
                           checkpoint_every=10**9, compute_sup_gap=False)
        run(prob, cfg)
        saturated = [idx for idx in seen if idx.size == prob.p]
        assert saturated, "the batch rule should reach p within 10 iterations at M = 1"
        for idx in saturated:
            np.testing.assert_array_equal(np.sort(idx), np.arange(prob.p))

    def test_batches_grow_until_restart(self):
        # growing batches saturate the 0.9p rule and trigger counter resets
        data = generate_robust_erm(5, 20, 8, 0.1)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=20)
        cfg = SolverConfig(
            mode="increasing_batch", max_iters=150, seed=2, restart_enabled=True,
            checkpoint_every=10**9, compute_sup_gap=False,
        )
        res = run(prob, cfg)
        assert res.restarts >= 1
        # budget grows superlinearly while batches ramp up
        assert res.grad_budget > 3 * 150

    def test_entropy_game_end_to_end(self):
        prob, ref = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0]), geometry="negative_entropy"))
        cfg = SolverConfig(mode="increasing_batch", max_iters=3000, seed=4, checkpoint_every=500)
        res = run(prob, cfg, reference=(ref.x, ref.y))
        sups = res.trace.column("sup_gap")
        assert sups[-1] < 1e-2
        assert res.x_bar.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(res.x_bar > 0)

    def test_step_decay_exponent_shapes_rate(self):
        # diminishing steps with eta = 0.5 decay the gap like ~1/K^0.25,
        # visibly shallower than the ~1/sqrt(K) of eta = 0
        A4 = np.array(
            [[1.0, 0.3, 0.2, 0.1], [0.3, 2.0, 0.1, 0.2], [0.2, 0.1, 1.0, 0.3], [0.1, 0.2, 0.3, 2.0]]
        )
        prob, ref = box_game_problem(A4, m_blocks=2, n_blocks=2)
        from rbpda.metrics import fit_rate

        slopes = {}
        for eta in (0.0, 0.5):
            cfg = SolverConfig(mode="single_sample", eta=eta, max_iters=10_000, seed=1,
                               checkpoint_every=100)
            res = run(prob, cfg, reference=(ref.x, ref.y))
            fit = fit_rate(list(zip(res.trace.column("k"), res.trace.column("sup_gap"))), (100, 10_000))
            slopes[eta] = fit.slope
        assert -0.45 <= slopes[0.5] <= -0.15
        assert slopes[0.5] > slopes[0.0] + 0.1

    def test_ergodic_weight_identity_multiblock_run(self):
        data = generate_robust_erm(5, 8, 6, 0.1)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=8)
        cfg = SolverConfig(mode="single_sample", eta=0.0, max_iters=40, seed=3,
                           checkpoint_every=10**9, compute_sup_gap=False)
        res = run(prob, cfg)
        T = sum(schedule_t(k, 0.0) for k in range(40))
        w_x, w_y = res.ergodic_weights
        assert w_x == pytest.approx(T + 2 - 1, abs=1e-10)
        assert w_y == pytest.approx(T + 8 - 1, abs=1e-10)


class TestBaselineRun:
    def test_cache_keeps_baseline_bitwise(self):
        # the baseline shares one A x per iteration through the margin cache;
        # that is the same product, so every output is bitwise unchanged
        data = generate_robust_erm(11, 50, 100, 0.1)
        outs = []
        for use_cache in (True, False):
            prob = robust_erm_problem(data, radius=10.0, m_blocks=2, n_blocks=1)
            if not use_cache:
                prob.coupling_cache = None
            from rbpda.experiments import baseline_stepsizes, erm_reference

            tau, sigma = baseline_stepsizes(prob)
            res = deterministic_baseline_run(prob, tau, sigma, 400, checkpoint_every=50, compute_sup_gap=True)
            outs.append((res, erm_reference(prob, iters=2000)))
        (got, ref_got), (want, ref_want) = outs
        for attr in ("x", "y", "x_bar", "y_bar"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert [r.__dict__ for r in got.trace.rows] == [r.__dict__ for r in want.trace.rows]
        for a, b in zip(ref_got, ref_want):
            assert np.array_equal(a, b)

    def test_negative_iters_is_refused(self):
        prob, _ = box_game_problem(np.eye(2), half_width=1.0)
        with pytest.raises(ValueError, match="iters must be nonnegative"):
            deterministic_baseline_run(prob, 0.1, 0.1, -1)

    @pytest.mark.parametrize("every", [0, -3])
    def test_checkpoint_every_below_one_is_refused(self, every):
        # 0 used to fail at k = 1 with "integer modulo by zero"
        prob, _ = box_game_problem(np.eye(2), half_width=1.0)
        with pytest.raises(ValueError, match="checkpoint_every must be at least 1"):
            deterministic_baseline_run(prob, 0.1, 0.1, 5, checkpoint_every=every)

    def test_nan_gradient_leaves_the_domain(self):
        # a NaN primal gradient used to come back as a successful run with NaN iterates
        prob, _ = box_game_problem(np.eye(2), half_width=1.0)
        full_grad_x, calls = prob.full_grad_x, [0]

        def nan_at_seven(x, y, **kw):
            calls[0] += 1
            g = full_grad_x(x, y, **kw)
            return np.full_like(g, np.nan) if calls[0] == 7 else g

        prob.full_grad_x = nan_at_seven
        with pytest.raises(SolverError, match="iterate left the domain by iteration 20") as info:
            deterministic_baseline_run(prob, 0.1, 0.1, 20)
        partial = info.value.result
        assert partial.iterations == 20
        assert partial.trace.column("k").tolist() == [0]
        assert np.isnan(partial.x).all()

    def test_oracle_failure_keeps_the_partial_result(self):
        prob, _ = box_game_problem(np.eye(2), half_width=1.0)
        full_grad_y, calls = prob.full_grad_y, [0]

        def failing_at_thirteen(x, y, **kw):
            calls[0] += 1
            if calls[0] == 13:
                raise RuntimeError("oracle went away")
            return full_grad_y(x, y, **kw)

        prob.full_grad_y = failing_at_thirteen
        with pytest.raises(SolverError, match="run aborted at iteration 12: oracle went away") as info:
            deterministic_baseline_run(prob, 0.1, 0.1, 20, checkpoint_every=5)
        assert isinstance(info.value.__cause__, RuntimeError)
        partial = info.value.result
        assert partial.iterations == 12
        assert partial.trace.column("k").tolist() == [0, 5, 10]
        assert partial.ergodic_weights == (12.0, 12.0)  # uniform, M = N = 1
        assert partial.grad_budget == 12 * prob.p
        assert partial.dual_grad_evals == 2 * prob.structure.N * 12

    def test_monotone_gap_trend_on_desk_erm(self):
        data = generate_robust_erm(11, 50, 100, 0.1)
        prob = robust_erm_problem(data, radius=10.0, m_blocks=1, n_blocks=1)
        from rbpda.experiments import baseline_stepsizes

        tau, sigma = baseline_stepsizes(prob)
        res = deterministic_baseline_run(prob, tau, sigma, 500, checkpoint_every=50, compute_sup_gap=True)
        sups = res.trace.column("sup_gap")[1:]  # k = 0 row is a vacuous 0 lower bound
        assert sups[-1] < sups[0]
        # trend is monotone up to small ripples
        drops = np.diff(sups)
        assert np.sum(drops < 1e-9) >= drops.size - 1


# ---------------------------------------------------------------------------
# Lazy ergodic sums, the demand-driven margin cache, oracle errors, batch growth
# ---------------------------------------------------------------------------


def eager_averages(mode, M, N, xs, ys, ks, schedule=None):
    """The ergodic averages by the direct formula over the whole iterate history."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    K = len(xs)
    if mode == "uniform":
        return (
            (M * xs[-1] + xs[:-1].sum(axis=0)) / (K + M - 1),
            (N * ys[-1] + ys[:-1].sum(axis=0)) / (K + N - 1),
        )
    ts = [schedule.t(k) for k in ks]
    grow = [1.0 - 1.0 / schedule.theta(k + 1) for k in ks]
    w_x = np.array([t * (1 + (M - 1) * g) for t, g in zip(ts, grow)])
    w_y = np.array([t * (1 + (N - 1) * g) for t, g in zip(ts, grow)])
    t_K = schedule.t(ks[-1] + 1)
    x_bar = (w_x @ xs + (M - 1) * t_K * xs[-1]) / (M - 1 + sum(ts))
    y_bar = (w_y @ ys + (N - 1) * t_K * ys[-1]) / (N - 1 + sum(ts))
    return x_bar, y_bar


SIDES = {
    # one-coordinate blocks fold alone, longer ones widen to the whole side
    "mixed": ([slice(0, 1), slice(1, 4), slice(4, 15), slice(15, 16)], [slice(0, 10), slice(10, 11), slice(11, 12)]),
    # every block one coordinate: per-coordinate stamps only
    "scalar": ([slice(c, c + 1) for c in range(5)], [slice(c, c + 1) for c in range(3)]),
    # one-coordinate blocks named by their coordinate, as a step names a scalar dual block
    "ints": ([0, slice(1, 4), 4, slice(5, 16)], [slice(0, 10), 10, slice(11, 12)]),
}


def random_touches(rng, x, y, x_blocks, y_blocks, steps):
    """Iterates after (x, y) that change one random block per side per step,
    with whole-vector changes and restart-like steps (nothing moves) mixed in.
    A yielded array is never written afterwards."""
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.05:
            touched = (slice(None), slice(None))
            x, y = rng.standard_normal(x.size), rng.standard_normal(y.size)
        else:
            touched = (x_blocks[rng.integers(len(x_blocks))], y_blocks[rng.integers(len(y_blocks))])
            if roll > 0.1:
                x, y = x.copy(), y.copy()
                x[touched[0]] = rng.standard_normal(np.shape(x[touched[0]])) * 10
                y[touched[1]] = rng.standard_normal(np.shape(y[touched[1]]))
        yield x, y, touched


def lazy_state(acc):
    fields = ("total", "stamp", "stamps", "last", "weight")
    return [np.copy(getattr(side, f)) for side in (acc.sum_x, acc.sum_y) for f in fields]


class TestLazyErgodicSums:
    @pytest.mark.parametrize("sides", sorted(SIDES))
    @pytest.mark.parametrize("mode", ["uniform", "weighted"])
    def test_random_block_touches_match_eager_formula(self, mode, sides):
        x_blocks, y_blocks = SIDES[sides]
        M, N = len(x_blocks), len(y_blocks)
        sched = StepSchedule(mode="diminishing", eta=0.3)
        rng = np.random.default_rng(2)
        x0, y0 = rng.standard_normal(x_blocks[-1].stop), rng.standard_normal(y_blocks[-1].stop)
        acc = ErgodicAccumulator(M, N, x0, y0, sched if mode == "weighted" else None)
        xs, ys = [], []
        for k, (x, y, touched) in enumerate(random_touches(rng, x0, y0, x_blocks, y_blocks, 300)):
            acc.update(x, y, k, touched)
            xs.append(x.copy())
            ys.append(y.copy())
            if k % 37 == 0 or k == 299:
                want = eager_averages(mode, M, N, xs, ys, range(k + 1), sched)
                for got, ref in zip(acc.finalize(), want):
                    assert_close(got, ref)

    @pytest.mark.parametrize("sides", sorted(SIDES))
    @pytest.mark.parametrize("mode", ["uniform", "weighted"])
    def test_finalize_is_pure(self, mode, sides):
        # finalizing between updates changes neither later averages nor the
        # state it folds from
        x_blocks, y_blocks = SIDES[sides]
        sched = StepSchedule(mode="diminishing", eta=0.0) if mode == "weighted" else None
        x0, y0 = np.zeros(x_blocks[-1].stop), np.zeros(y_blocks[-1].stop)
        plain = ErgodicAccumulator(4, 3, x0, y0, sched)
        probed = ErgodicAccumulator(4, 3, x0, y0, sched)
        rng = np.random.default_rng(3)
        for k, (x, y, touched) in enumerate(random_touches(rng, x0, y0, x_blocks, y_blocks, 60)):
            plain.update(x, y, k, touched)
            probed.update(x, y, k, touched)
            before = lazy_state(probed)
            first, second = probed.finalize(), probed.finalize()
            for a, b in zip(first, second):
                assert np.array_equal(a, b)
            for a, b in zip(before, lazy_state(probed)):
                assert np.array_equal(a, b)
        for a, b in zip(plain.finalize(), probed.finalize()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["uniform", "weighted"])
    def test_an_accumulator_that_follows_the_iterates_refuses_update(self, mode):
        # after follow() only the plan's block folds fold: update() raises and moves nothing
        sched = StepSchedule(mode="diminishing", eta=0.3) if mode == "weighted" else None
        acc = ErgodicAccumulator(2, 2, np.zeros(3), np.zeros(2), sched)
        acc.update(np.ones(3), np.ones(2), 0)
        acc.follow(np.ones(3), np.ones(2))
        before = (acc.count, acc.t_total, lazy_state(acc))
        with pytest.raises(ValueError, match="folds only through its block folds"):
            acc.update(np.ones(3), np.ones(2), 1)
        assert before[:2] == (acc.count, acc.t_total)
        assert all(np.array_equal(a, b) for a, b in zip(before[2], lazy_state(acc)))

    @pytest.mark.parametrize("dim", [3, 40])
    def test_whole_vector_uniform_sums_are_the_eager_running_sum(self, dim):
        # the default touch folds exactly one iterate per update, so the
        # uniform sum is the eager running sum bit for bit
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((30, dim))
        acc = ErgodicAccumulator(3, 2, np.zeros(dim), np.zeros(2))
        running = np.zeros(dim)
        for k, x in enumerate(xs):
            acc.update(x, np.zeros(2), k)
            if k:
                running += xs[k - 1]
        x_bar, _ = acc.finalize()
        assert np.array_equal(x_bar, (3 * xs[-1] + running) / (30 + 3 - 1))

    @pytest.mark.parametrize(
        "config",
        [
            dict(mode="increasing_batch", restart_enabled=True, restart_threshold=0.5),
            dict(mode="single_sample", eta=0.3),
        ],
    )
    def test_run_averages_match_eager_formula(self, config, monkeypatch):
        # run() folds only the blocks each step wrote; its averages equal the
        # direct formula over every iterate, restarts included
        prob = lockstep_problem("erm_box")
        seen = []
        step = rbpda_step

        def recording(state, *args):
            k = state.k
            step(state, *args)
            seen.append((state.x.copy(), state.y.copy(), k))
            return state

        monkeypatch.setattr("rbpda.solver.rbpda_step", recording)
        cfg = SolverConfig(max_iters=300, seed=4, checkpoint_every=10**9, compute_sup_gap=False, **config)
        res = run(prob, cfg)
        if cfg.restart_enabled:
            assert res.restarts >= 1
        st = prob.structure
        sched = build_schedule(prob, cfg)
        mode = "uniform" if cfg.mode == "increasing_batch" else "weighted"
        xs, ys, ks = zip(*seen)
        want = eager_averages(mode, st.M, st.N, xs, ys, ks, sched)
        assert_close(res.x_bar, want[0])
        assert_close(res.y_bar, want[1])


def cache_events(prob):
    """Wrap the problem's cache factory so each call and each sync of its caches is logged."""
    events = []
    factory = prob.coupling_cache

    def logged(x, y, x_prev, y_prev, v):
        cache = factory(x, y, x_prev, y_prev, v)
        events.append(("build", v, cache is not None))
        if cache is None:
            return None
        sync = cache.sync

        def sync_logged():
            sync()
            exact = np.array_equal(cache.z, cache.A @ cache.x) and np.array_equal(
                cache.z_prev, cache.A @ cache.x_prev
            )
            events.append(("sync", exact))

        cache.sync = sync_logged
        return cache

    prob.coupling_cache = logged
    return events


def erm_boxes(n_blocks, n=40, m=20, m_blocks=5):
    data = generate_robust_erm(6, n, m, 0.1)
    return robust_erm_problem(data, radius=2.0, m_blocks=m_blocks, n_blocks=n_blocks)


class TestDemandDrivenCache:
    @pytest.mark.parametrize("n,m,m_blocks,n_blocks", [(40, 20, 5, 40), (40, 20, 5, 8), (40, 20, 1, 40),
                                                       (12, 6, 3, 4), (30, 10, 10, 1)])
    def test_erm_factory_keeps_the_cache_only_where_it_pays(self, n, m, m_blocks, n_blocks):
        # a step without the cache reads 2 (nb + v) rows of A, each m long;
        # keeping the margins costs 2 n mb: the factory returns None exactly
        # when (nb + v) m <= n mb, and otherwise a synced cache
        prob = erm_boxes(n_blocks, n=n, m=m, m_blocks=m_blocks)
        nb, mb = n // n_blocks, m // m_blocks
        rng = np.random.default_rng(1)
        x, x_prev = rng.uniform(-1, 1, (2, m))
        y = prob.start_y.copy()
        kept = []
        for v in range(1, prob.p + 1):
            cache = prob.coupling_cache(x, y, x_prev, y, v)
            kept.append(cache is not None)
            assert kept[-1] == ((nb + v) * m > n * mb), v
            if cache is not None:
                assert cache.syncs == 1
                assert np.array_equal(cache.z, cache.A @ x) and np.array_equal(cache.z_prev, cache.A @ x_prev)
        assert kept[-1]  # at v = p the cache always pays

    @pytest.mark.parametrize("config,v", [
        (dict(mode="increasing_batch"), "p"),
        (dict(mode="single_sample"), 1),
        (dict(mode="single_sample", batch=6), 6),
        (dict(mode="increasing_batch", batch=3), 3),
    ])
    def test_run_builds_its_cache_once(self, config, v):
        # run() calls the factory once, before the first step, with the
        # largest batch the run can draw: p for an increasing schedule, the
        # constant batch size otherwise
        prob = erm_boxes(n_blocks=40)
        events = cache_events(prob)
        run(prob, SolverConfig(max_iters=300, seed=2, checkpoint_every=10**9, compute_sup_gap=False,
                               **config))
        builds = [e for e in events if e[0] == "build"]
        assert [b[1] for b in builds] == [prob.p if v == "p" else v]

    def test_single_sample_one_row_blocks_stay_off(self):
        # (nb + v) m = 2 * 20 rows' worth of reads against n mb = 160 of
        # upkeep: the run builds no cache
        prob = erm_boxes(n_blocks=40)
        events = cache_events(prob)
        run(prob, SolverConfig(mode="single_sample", max_iters=200, seed=1, checkpoint_every=10**9,
                               compute_sup_gap=False))
        assert events == [("build", 1, False)]

    def test_entropy_dual_stays_on(self):
        # grad_y reads all n rows, so the cache always pays; it is built
        # once and, without restarts, never synced again
        prob = erm_boxes(n_blocks=1)
        events = cache_events(prob)
        run(prob, SolverConfig(mode="single_sample", max_iters=100, seed=1, checkpoint_every=10**9,
                               compute_sup_gap=False))
        assert events == [("build", 1, True)]

    def test_increasing_batch_keeps_the_cache_across_restarts(self):
        # an increasing batch can reach v = p, where the cache pays: the run
        # keeps it from the first step, and each restart syncs it exactly
        prob = erm_boxes(n_blocks=40)
        events = cache_events(prob)
        cfg = SolverConfig(mode="increasing_batch", max_iters=600, seed=2, restart_enabled=True,
                           checkpoint_every=10**9, compute_sup_gap=False)
        res = run(prob, cfg)
        assert res.restarts >= 2
        assert events[0] == ("build", prob.p, True)
        assert events[1:] == [("sync", True)] * res.restarts


@pytest.mark.parametrize(
    "name", ["erm_box", "erm_entropy", "erm_rows", "game_euclidean", "game_entropy", "box_game", "qp"]
)
def test_two_point_grad_y_equals_one_point_calls(name):
    # the solver's two dual points in one call must give exactly what two
    # one-point calls give, with and without a synced margin cache
    if name == "erm_rows":
        prob = robust_erm_problem(generate_robust_erm(3, 12, 6, 0.1), radius=2.0, m_blocks=3, n_blocks=12)
    else:
        prob = lockstep_problem(name)
    st = prob.structure
    rng = np.random.default_rng(6)
    x_k, x_prev = rng.uniform(-1, 1, (2, st.m))
    y_k, y_prev = rng.uniform(0.05, 1, (2, st.n))
    points = ((x_k, y_k), (x_prev, y_prev))
    caches = [None]
    if prob.coupling_cache is not None:
        caches.append(prob.coupling_cache(x_k, y_k, x_prev, y_prev, prob.p))
    for cache in caches:
        kw = {} if cache is None else {"cache": cache}
        for j in range(st.N):
            fused = np.asarray(prob.grad_y(j, points, **kw))
            assert fused.shape == (2, st.dual.dims[j])
            for row, point in zip(fused, points):
                assert np.array_equal(row, np.asarray(prob.grad_y(j, [point], **kw))[0]), (j, cache)


class TestOracleErrors:
    @staticmethod
    def _raising(prob, attr):
        inner = getattr(prob, attr)

        def oracle(*args, **kw):
            if oracle.calls == 3:
                raise FloatingPointError("oracle overflow")
            oracle.calls += 1
            return inner(*args, **kw)

        oracle.calls = 0
        setattr(prob, attr, oracle)

    @pytest.mark.parametrize("attr,label", [("grad_y", "dual block"), ("batch_grad_x", "primal block")])
    def test_step_names_iteration_block_and_oracle(self, attr, label):
        prob = lockstep_problem("box_game")
        self._raising(prob, attr)
        state = RunState.start(prob)
        sched = FixedSchedule([0.05, 0.04], [0.03, 0.06])
        rng = make_rng(2)
        for _ in range(3):
            rbpda_step(state, prob, sched, BatchSchedule.constant(1, 1), rng)
        before = [v.copy() for v in (state.x, state.y, state.x_prev, state.y_prev)]
        with pytest.raises(SolverError, match=rf"{attr} failed at iteration 3, {label} \d") as info:
            rbpda_step(state, prob, sched, BatchSchedule.constant(1, 1), rng)
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert "oracle overflow" in str(info.value)
        for old, cur in zip(before, (state.x, state.y, state.x_prev, state.y_prev)):
            assert np.array_equal(old, cur)
        assert np.array_equal(state.y_next, state.y)

    def test_run_keeps_the_step_message_and_partial_result(self):
        prob = lockstep_problem("qp")
        self._raising(prob, "grad_y")
        with pytest.raises(SolverError, match="grad_y failed at iteration 3") as info:
            run(prob, SolverConfig(max_iters=10, seed=1, checkpoint_every=2, compute_sup_gap=False))
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert info.value.result is not None and info.value.result.iterations == 3


@pytest.mark.parametrize("eta", [0.0, 0.15])
def test_increasing_batch_grows_per_block_and_resets_on_restart(eta, monkeypatch):
    # every drawn batch follows v = min(p, ceil((I_i + 1)(k + 1)^eta)) for
    # the block's selection count I_i since the last restart, so the batch
    # reaches p and starts again from the bottom after each restart
    import math

    import rbpda.solver as solver_mod

    prob = lockstep_problem("erm_box")
    p = prob.p
    drawn, restart_at = [], []
    inner = prob.batch_grad_x
    prob.batch_grad_x = lambda idx, i, points, w, **kw: (
        drawn.append((len(idx), i)) or inner(idx, i, points, w, **kw)
    )
    step = solver_mod.rbpda_step

    def watched(state, *args):  # a restart is counted by the step whose row carries it
        before = state.restarts
        out = step(state, *args)
        if state.restarts > before:
            restart_at.append(state.k)
        return out

    monkeypatch.setattr(solver_mod, "rbpda_step", watched)
    cfg = SolverConfig(mode="increasing_batch", eta=eta, max_iters=200, seed=3, restart_enabled=True,
                       checkpoint_every=10**9, compute_sup_gap=False)
    res = run(prob, cfg)
    assert len(drawn) == 200 and res.restarts == len(restart_at) >= 2
    counts = np.zeros(prob.structure.M, dtype=int)
    saturated = 0
    for k, (v, i) in enumerate(drawn):
        if k in restart_at:
            counts[:] = 0
            assert v == min(p, math.ceil((k + 1) ** eta))  # back at the bottom
        assert v == min(p, math.ceil((counts[i] + 1) * (k + 1) ** eta)), (k, i)
        saturated += v == p
        counts[i] += 1
    assert saturated > 0


@pytest.mark.parametrize("name", ["box_game", "erm_box"])
def test_increasing_rule_saturates_at_p_past_float_range(name, monkeypatch):
    # (count + 1)(k + 1)^eta leaves float range at k = 5 for eta = 400; the
    # rule's value there is p, and the run finishes with each batch charged
    import math

    import rbpda.solver as solver_mod

    from rbpda.sampling import increasing_batch_size

    assert increasing_batch_size(0, 5, 400.0, 7) == 7 and increasing_batch_size(2**60, 1, 1e3, 7) == 7
    assert increasing_batch_size(3, 9, 0.5, 1000) == math.ceil(4 * 10**0.5)  # below overflow: unchanged
    prob = lockstep_problem(name)
    sizes = []
    inner = solver_mod.next_batch_size
    monkeypatch.setattr(solver_mod, "next_batch_size", lambda *args: sizes.append(inner(*args)) or sizes[-1])
    res = run(prob, SolverConfig(mode="increasing_batch", eta=400.0, max_iters=20, checkpoint_every=10))
    assert res.iterations == 20 and len(sizes) == 20
    assert res.grad_budget == 3 * sum(sizes) and sizes == [1] + [prob.p] * 19

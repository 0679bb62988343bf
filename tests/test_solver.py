"""Iteration semantics, ergodic averaging, restarts, budgets, and the baseline oracle."""

import numpy as np
import pytest

from rbpda.blocks import BlockStructure, ProxSpec, SaddleProblem
from rbpda.bregman import prox_step
from rbpda.problems import (
    ConstrainedSpec,
    MatrixGameSpec,
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
    estimate_partial_grad_x,
    make_rng,
    next_batch_size,
    sample_indices,
)
from rbpda.solver import (
    ErgodicAccumulator,
    RunState,
    SolverConfig,
    SolverError,
    deterministic_baseline_run,
    deterministic_baseline_step,
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


def scalar_bilinear_problem():
    st = BlockStructure.from_dims([1], [1])
    lip = BlockLipschitz(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))
    return SaddleProblem(
        structure=st,
        p=1,
        primal_prox=[ProxSpec.zero()],
        dual_prox=[ProxSpec.zero()],
        component_grad_x=lambda l, i, x, y: y.copy(),
        component_grad_y=lambda l, j, x, y: x.copy(),
        lipschitz=lip,
        phi_value=lambda x, y: float(x @ y),
        phi_component=lambda l, x, y: float(x @ y),
        start_x=np.array([1.0]),
        start_y=np.array([1.0]),
    )


class FixedSchedule:
    """Constant schedule with caller-chosen steps, for hand simulations."""

    mode = "constant"

    def __init__(self, tau, sigma):
        self._tau = np.atleast_1d(np.asarray(tau, float))
        self._sigma = np.atleast_1d(np.asarray(sigma, float))

    def tau(self, k, i=None):
        return self._tau if i is None else float(self._tau[i])

    def sigma(self, k, j=None):
        return self._sigma if j is None else float(self._sigma[j])

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
            component_grad_y=lambda l, j, x, y: np.zeros(2),
            lipschitz=lip,
            start_x=np.array([1.0, -2.0]),
            start_y=np.array([0.5, 0.5]),
        )
        state = RunState.start(prob)
        for _ in range(10):
            rbpda_step(state, prob, FixedSchedule([0.3], [0.3]), BatchSchedule.constant(1, 1), make_rng(0))
        np.testing.assert_allclose(state.x.data, [1.0, -2.0])
        np.testing.assert_allclose(state.y.data, [0.5, 0.5])

    def test_scalar_bilinear_hand_simulation(self):
        prob = scalar_bilinear_problem()
        state = RunState.start(prob)
        rbpda_step(state, prob, FixedSchedule([0.5], [0.5]), BatchSchedule.constant(1, 1), make_rng(0))
        assert state.y.data[0] == pytest.approx(1.5)
        assert state.x.data[0] == pytest.approx(0.25)

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
        prob.grad_x = None
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
    x_k, y_k = state.x.data, state.y.data
    x_prev, y_prev = state.x_prev.data, state.y_prev.data

    j = draw_block(rng, N)
    g_now = np.asarray(problem.grad_y(j, x_k, y_k), dtype=float)
    g_old = np.asarray(problem.grad_y(j, x_prev, y_prev), dtype=float)
    state.dual_grad_evals += 2
    s = N * g_now + N * M * theta * (g_now - g_old)
    spec = problem.dual_prox[j]
    blk_j = st.dual.block_range(j)
    y_next = y_k.copy()
    y_next[blk_j] = prox_step(spec.geometry, spec, -s, float(schedule.sigma(k)[j]), y_k[blk_j])

    i = draw_block(rng, M)
    v = next_batch_size(batch, state.counters, i, k, p)
    indices = np.arange(p) if v >= p else sample_indices(rng, v, p)
    # one point per call, independent of the three-point call in rbpda_step
    est_new = estimate_partial_grad_x(problem, indices, i, [(x_k, y_next)])[0]
    est_cur = estimate_partial_grad_x(problem, indices, i, [(x_k, y_k)])[0]
    est_old = estimate_partial_grad_x(problem, indices, i, [(x_prev, y_prev)])[0]
    state.grad_budget += 3 * v
    r = M * (est_new + (N - 1) * theta * (est_cur - est_old))
    spec = problem.primal_prox[i]
    blk_i = st.primal.block_range(i)
    x_next = x_k.copy()
    x_next[blk_i] = prox_step(spec.geometry, spec, r, float(schedule.tau(k)[i]), x_k[blk_i])

    state.x_prev.data[:] = x_k
    state.y_prev.data[:] = y_k
    state.x.data[:] = x_next
    state.y.data[:] = y_next
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
        "erm_entropy": lambda: robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=1),
        "game_euclidean": lambda: matrix_game_problem(MatrixGameSpec(A3))[0],
        "game_entropy": lambda: matrix_game_problem(MatrixGameSpec(A3, "negative_entropy"))[0],
        "box_game": lambda: box_game_problem(A4, m_blocks=2, n_blocks=2)[0],
        "qp": lambda: constrained_qp_problem(qp, m_blocks=2)[0],
    }
    return builders[name]()


class TestBlockCopyLockstep:
    @pytest.mark.parametrize("mode", ["constant", "diminishing"])
    @pytest.mark.parametrize(
        "name", ["erm_box", "erm_entropy", "game_euclidean", "game_entropy", "box_game", "qp"]
    )
    def test_matches_full_copy_step_bitwise(self, name, mode):
        # the block-copy step and the whole-vector reference run side by side
        # from the same seed, with one forced restart, and must agree exactly
        # after every iteration
        prob = lockstep_problem(name)
        st = prob.structure
        agg = aggregate_constants(prob.lipschitz, st.M, st.N)
        fp = default_free_params(agg, st.M, st.N, mode=mode)
        eta = 0.3 if mode == "diminishing" else 0.0
        if mode == "constant":
            batch = BatchSchedule.increasing(0.0)
        else:
            batch = BatchSchedule.constant(1, prob.p)
        new, ref = RunState.start(prob), RunState.start(prob)
        sched_new, sched_ref = (
            StepSchedule(mode=mode, M=st.M, N=st.N, agg=agg, fp=fp, eta=eta) for _ in range(2)
        )
        rng_new, rng_ref = make_rng(11), make_rng(11)
        for it in range(60):
            rbpda_step(new, prob, sched_new, batch, rng_new)
            full_copy_step(ref, prob, sched_ref, batch, rng_ref)
            if it == 25:
                restart_if_saturated(new, prob.p, threshold=0.0)
                restart_if_saturated(ref, prob.p, threshold=0.0)
            for attr in ("x", "y", "x_prev", "y_prev"):
                assert np.array_equal(getattr(new, attr).data, getattr(ref, attr).data), (attr, it)
            assert (new.k, new.grad_budget, new.dual_grad_evals, new.restarts) == (
                ref.k,
                ref.grad_budget,
                ref.dual_grad_evals,
                ref.restarts,
            )
            assert np.array_equal(new.counters.counts, ref.counters.counts)
        assert new.restarts == 1
        assert not np.array_equal(new.x.data, prob.start_x)

    def test_failed_step_leaves_iterates_unchanged(self):
        prob = lockstep_problem("box_game")
        state = RunState.start(prob)
        rng = make_rng(2)
        sched = FixedSchedule([0.05, 0.04], [0.03, 0.06])
        for _ in range(3):
            rbpda_step(state, prob, sched, BatchSchedule.constant(1, 1), rng)
        before = [v.copy() for v in (state.x.data, state.y.data, state.x_prev.data, state.y_prev.data)]
        inner = prob.batch_grad_x
        prob.batch_grad_x = lambda idx, i, points: np.full_like(inner(idx, i, points), np.nan)
        with pytest.raises(SolverError, match="primal prox failed"):
            rbpda_step(state, prob, sched, BatchSchedule.constant(1, 1), rng)
        after = (state.x.data, state.y.data, state.x_prev.data, state.y_prev.data)
        for old, cur in zip(before, after):
            assert np.array_equal(old, cur)
        assert np.array_equal(state.y_next, state.y.data)


@pytest.mark.parametrize(
    "name", ["erm_box", "erm_entropy", "game_euclidean", "game_entropy", "box_game", "qp"]
)
def test_three_point_batch_grad_equals_one_point_calls(name):
    # the solver's three points, the first two sharing the array x^k, in one
    # call must give exactly what three one-point calls give
    prob = lockstep_problem(name)
    st = prob.structure
    rng = np.random.default_rng(4)
    for v in (1, 2, 7, prob.p):
        indices = np.arange(prob.p) if v == prob.p else rng.integers(0, prob.p, size=v)
        x_k, x_prev = rng.uniform(-1, 1, (2, st.m))
        y_next, y_k, y_prev = rng.uniform(0.05, 1, (3, st.n))
        points = ((x_k, y_next), (x_k, y_k), (x_prev, y_prev))
        for i in range(st.M):
            fused = prob.batch_grad_x(indices, i, points)
            assert fused.shape == (3, st.primal.dims[i])
            for row, point in zip(fused, points):
                assert np.array_equal(row, prob.batch_grad_x(indices, i, [point])[0]), (v, i)


def reduction_deviation(prob, iters=100, seed=3):
    """Max per-iterate deviation between RB-PDA at M=N=1, v=p and the baseline."""
    st = prob.structure
    agg = aggregate_constants(prob.lipschitz, st.M, st.N)
    fp = default_free_params(agg, st.M, st.N, mode="constant")
    tau, sigma = constant_stepsizes(agg, fp, st.M, st.N)
    sched = StepSchedule(mode="constant", M=st.M, N=st.N, agg=agg, fp=fp)
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
            float(np.max(np.abs(state.x.data - x))),
            float(np.max(np.abs(state.y.data - y))),
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
            sched = StepSchedule(
                mode="diminishing",
                M=3,
                N=2,
                agg=None,
                fp=None,
                eta=0.0,
            )
            acc = ErgodicAccumulator(mode, 3, 2, np.full(3, 2.0), np.full(2, -1.0), sched)
            for k in range(25):
                acc.update(np.full(3, 2.0), np.full(2, -1.0), k)
            x_bar, y_bar = acc.finalize()
            np.testing.assert_allclose(x_bar, 2.0, atol=1e-12)
            np.testing.assert_allclose(y_bar, -1.0, atol=1e-12)

    def test_uniform_k1_equals_first_iterate(self):
        acc = ErgodicAccumulator("uniform", 4, 2, np.zeros(2), np.zeros(2))
        acc.update(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 0)
        x_bar, y_bar = acc.finalize()
        np.testing.assert_allclose(x_bar, [1.0, 2.0])
        np.testing.assert_allclose(y_bar, [3.0, 4.0])

    def test_uniform_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        M, N, K = 3, 2, 17
        xs = rng.standard_normal((K, 4))
        ys = rng.standard_normal((K, 3))
        acc = ErgodicAccumulator("uniform", M, N, np.zeros(4), np.zeros(3))
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
        sched = StepSchedule(mode="diminishing", M=M, N=N, agg=None, fp=None, eta=eta)
        xs = rng.standard_normal((K, 2))
        ys = rng.standard_normal((K, 2))
        acc = ErgodicAccumulator("weighted", M, N, np.zeros(2), np.zeros(2), sched)
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
        sched = StepSchedule(mode="diminishing", M=M, N=M, agg=None, fp=None, eta=eta)
        acc = ErgodicAccumulator("weighted", M, M, np.zeros(1), np.zeros(1), sched)
        for k in range(K):
            acc.update(np.ones(1), np.ones(1), k)
        w_x, w_y = acc.total_weights()
        T_K = sum(schedule_t(k, eta) for k in range(K))
        assert abs(w_x - (T_K + M - 1)) <= 1e-10
        assert abs(w_y - (T_K + M - 1)) <= 1e-10

    @pytest.mark.parametrize("mode", ["uniform", "weighted"])
    def test_update_copies_the_iterates(self, mode):
        # the solver updates its iterate arrays in place after each fold-in
        sched = StepSchedule(mode="diminishing", M=2, N=2, agg=None, fp=None, eta=0.0)
        acc = ErgodicAccumulator(mode, 2, 2, np.zeros(2), np.zeros(1), sched)
        x, y = np.array([1.0, 2.0]), np.array([3.0])
        for k in range(3):
            acc.update(x, y, k)
        before = acc.finalize()
        x[:] = 50.0
        y[:] = -50.0
        for got, want in zip(acc.finalize(), before):
            assert np.array_equal(got, want)

    def test_zero_iterations_returns_start(self):
        acc = ErgodicAccumulator("uniform", 2, 2, np.array([5.0]), np.array([-5.0]))
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
        state.x.data[:] = 3.0
        state.x_prev.data[:] = -1.0
        restart_if_saturated(state, p=10, threshold=0.9)
        assert state.counters.counts.tolist() == [0, 0]
        assert state.restarts == 1
        # iterates preserved, history collapsed
        assert state.x.data[0] == 3.0
        assert state.x_prev.data[0] == 3.0

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

        def counting_batch(indices, i, points):
            calls["components"] += len(np.atleast_1d(indices)) * len(points)
            return inner(indices, i, points)

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
        prob.grad_x = None
        prob.__post_init__()
        cfg = SolverConfig(mode="increasing_batch", max_iters=100, seed=1, checkpoint_every=5,
                           compute_sup_gap=False)
        with pytest.raises(SolverError) as excinfo:
            run(prob, cfg)
        partial = excinfo.value.result
        assert partial is not None
        assert len(partial.trace) >= 2
        assert partial.iterations < 100

    def test_as_mode_requires_positive_delta(self):
        prob = scalar_bilinear_problem()
        st = prob.structure
        agg = aggregate_constants(prob.lipschitz, 1, 1)
        fp = default_free_params(agg, 1, 1, "constant", delta_bar=0.0)
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

        np.testing.assert_allclose(state.x.data, x, atol=1e-14)
        np.testing.assert_allclose(state.y.data, y, atol=1e-14)
        assert not np.array_equal(x, prob.start_x)  # the replay actually moved


class TestIntegration:
    def test_batch_enumerates_once_saturated(self):
        # once the growing batch reaches p the solver enumerates components
        # exactly instead of sampling with replacement
        data = generate_robust_erm(5, 3, 4, 0.0)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=1, n_blocks=3)
        seen = []
        inner = prob.batch_grad_x

        def recording(indices, i, points):
            seen.append(np.array(indices))
            return inner(indices, i, points)

        prob.batch_grad_x = recording
        cfg = SolverConfig(mode="increasing_batch", max_iters=10, seed=1,
                           checkpoint_every=10**9, compute_sup_gap=False)
        run(prob, cfg)
        saturated = [idx for idx in seen if idx.size == prob.p]
        assert saturated, "the batch rule should reach p within 10 iterations at M = 1"
        for idx in saturated:
            np.testing.assert_array_equal(np.sort(idx), np.arange(prob.p))

    def test_saturation_cap_through_run(self):
        # with the cap on, batch sizes never pass ceil(0.5 p), so the budget
        # stays strictly below the uncapped run's
        data = generate_robust_erm(5, 20, 8, 0.1)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=20)
        base = dict(mode="increasing_batch", max_iters=120, seed=2,
                    checkpoint_every=10**9, compute_sup_gap=False)
        res_uncapped = run(prob, SolverConfig(**base))
        res_capped = run(prob, SolverConfig(saturation_fraction=0.5, **base))
        assert res_capped.grad_budget < res_uncapped.grad_budget

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

    def test_scaled_schedule_stays_admissible(self):
        from rbpda.stepsize import validate_stepsize_condition

        rng = np.random.default_rng(9)
        lip = BlockLipschitz(
            rng.uniform(0, 3, (2, 2)), rng.uniform(0.2, 3, (2, 3)),
            rng.uniform(0, 3, (3, 3)), rng.uniform(0.2, 3, (3, 2)),
        )
        agg = aggregate_constants(lip, 2, 3)
        fp = default_free_params(agg, 2, 3, "constant")
        sched = StepSchedule(mode="constant", M=2, N=3, agg=agg, fp=fp, scale=0.5)
        report = validate_stepsize_condition(sched, agg, fp, 2, 3, k_max=5)
        assert report.passed
        assert min(report.min_slacks["primal_lipschitz"], report.min_slacks["dual_lipschitz"]) > 0


class TestBaselineRun:
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

    def test_plateau_stop(self):
        prob, _ = matrix_game_problem(MatrixGameSpec(np.zeros((2, 2))))
        res = deterministic_baseline_run(prob, 0.1, 0.1, 10_000, plateau_tol=1e-12, checkpoint_every=100)
        assert res.iterations < 10_000

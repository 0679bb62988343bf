"""The solver's iteration as one self-contained function, an equivalence oracle for the tests.

:func:`rbpda.solver.rbpda_step` calls the step that its
:class:`~rbpda.solver.StepPlan` bound once per run: step sizes, the oracles,
each block's path (its float, list or array kernel), the cache keywords and
the batch rule are resolved when the plan is built.  A run reads its oracles
when it starts, and ``rbpda_step`` rebuilds a hand-driven plan once the
instance's ``grad_y`` or ``batch_grad_x`` is replaced.  :func:`reference_step`
decides all of them again on every call: it calls the instance's
``grad_y`` and ``batch_grad_x``, never a one-row oracle, its step sizes are
entries of the schedule's step vectors, its prox is
:func:`~rbpda.bregman.prox_step`, in floats on any one-coordinate dual block,
and it draws one call at a time.  It is the same iteration, so a run driven
by it must reach the bits of :func:`rbpda.solver.run`.

:class:`ReferenceAccumulator` is likewise the ergodic fold without what
:func:`rbpda.solver.run`'s plan resolves: it keeps its own copy of the
current iterate, analyses each touched slice on every call and reads theta
and t from :func:`~rbpda.stepsize.schedule_theta` and
:func:`~rbpda.stepsize.schedule_t`.  A run folded by it must reach the same
averages, weights and trace rows.

:func:`reference_run` drives both through the solver's run loop, as
:func:`rbpda.solver.run` would under the same configuration.
"""

import numpy as np

from rbpda import solver
from rbpda.bregman import prox_step
from rbpda.sampling import BatchSchedule, draw_block, make_rng, next_batch_size, sample_indices
from rbpda.solver import RunState, SolverError, build_schedule, restart_if_saturated
from rbpda.stepsize import schedule_t, schedule_theta


def reference_run(problem, config, **metrics):
    """The run :func:`rbpda.solver.run` makes under ``config``, with each iteration :func:`reference_step`,
    then :meth:`ReferenceAccumulator.update`, then the restart check, through ``solver._drive``.

    The schedule, batch rule, generator, start state and coupling cache are
    set up as :func:`rbpda.solver.run` sets them up; ``metrics`` are its
    keyword arguments ``reference`` and ``f_star``.
    """
    st, p = problem.structure, problem.p
    schedule = build_schedule(problem, config)
    if config.batch is not None:
        batch = BatchSchedule.constant(config.batch, p)
    elif config.mode == "increasing_batch":
        batch = BatchSchedule.increasing(config.eta)
    else:
        batch = BatchSchedule.constant(1, p)
    rng = make_rng(config.seed, config.stream)
    state = RunState.start(problem, config.x0, config.y0)
    acc = ReferenceAccumulator(st.M, st.N, state.x, state.y, schedule)
    if problem.coupling_cache is not None:
        v_max = p if batch.kind == "increasing" else batch.v
        state.cache = problem.coupling_cache(state.x, state.y, state.x_prev, state.y_prev, v_max)
    restart = config.restart_enabled and batch.kind == "increasing"

    def step(state):
        k = state.k
        reference_step(state, problem, schedule, batch, rng)
        acc.update(state.x, state.y, k, (state.last_x, state.last_y))
        if restart:
            restart_if_saturated(state, p, config.restart_threshold, batch.eta)

    return solver._drive(problem, state, acc, step, config.max_iters, config.checkpoint_every,
                         auto_best_response=config.compute_sup_gap, **metrics)


def reference_step(state, problem, schedule, batch, rng):
    """One primal-dual iteration on ``state``, as :func:`rbpda.solver.rbpda_step` specifies it.

    The dual row kept in ``state.dual_row`` is reused under the same
    conditions as the solver's; ``state.last_y`` is always the dual block's
    slice.  ``state.plan`` is neither read nor written.
    """
    st = problem.structure
    M, N, p = st.M, st.N, problem.p
    k = state.k
    theta = schedule.theta(k)
    x_k, y_k = state.x, state.y
    x_prev, y_prev = state.x_prev, state.y_prev
    y_next = state.y_next
    cache = state.cache
    kw = {} if cache is None else {"cache": cache}

    j, i = draw_block(rng, N), draw_block(rng, M)
    kept = state.dual_row
    if kept is not None and (
        kept[0] != j or kept[2] is not cache or (cache is not None and kept[3] != cache.syncs)
    ):
        kept = None
    points = ((x_k, y_k),) if kept is not None else ((x_k, y_k), (x_prev, y_prev))
    try:
        g = np.asarray(problem.grad_y(j, points, **kw), dtype=float)
    except Exception as exc:
        raise SolverError(f"grad_y failed at iteration {k}, dual block {j}: {exc}") from exc
    state.dual_grad_evals += 2
    blk_j, dual_spec = st.dual.ranges[j], problem.dual_prox[j]
    if st.dual.dims[j] == 1 and g.shape == (len(points), 1):
        at_j = blk_j.start
        g_now, y_base = g.item(0), y_k.item(at_j)
        g_old = g.item(1) if kept is None else kept[1]
    else:
        at_j = blk_j
        g_now, y_base = g[0], y_k[blk_j]
        g_old = g[1] if kept is None else kept[1]
    s = N * g_now + N * M * theta * (g_now - g_old)

    try:
        y_blk = prox_step(dual_spec.geometry, dual_spec, -s, float(schedule.sigma(k)[j]), y_base)
    except Exception as exc:
        raise SolverError(f"dual prox failed at iteration {k}, block {j}: {exc}") from exc

    y_next[at_j] = y_blk
    try:
        v = next_batch_size(batch, state.counters, i, k, p)
        indices = np.arange(p) if v >= p else sample_indices(rng, v, p)
        c = (N - 1) * theta
        try:
            r = M * np.asarray(
                problem.batch_grad_x(
                    indices, i, ((x_k, y_next), (x_k, y_k), (x_prev, y_prev)), (1.0, c, -c), **kw
                ),
                dtype=float,
            )
        except Exception as exc:
            raise SolverError(f"batch_grad_x failed at iteration {k}, primal block {i}: {exc}") from exc
        state.grad_budget += 3 * v

        blk_i, primal_spec = st.primal.ranges[i], problem.primal_prox[i]
        try:
            x_blk = prox_step(primal_spec.geometry, primal_spec, r, float(schedule.tau(k)[i]), x_k[blk_i])
        except Exception as exc:
            raise SolverError(f"primal prox failed at iteration {k}, block {i}: {exc}") from exc
    except BaseException:
        y_next[at_j] = y_k[at_j]
        raise

    x_prev[state.last_x] = x_k[state.last_x]
    y_prev[state.last_y] = y_k[state.last_y]
    dx = None if cache is None else x_blk - x_k[blk_i]
    x_k[blk_i] = x_blk
    y_k[at_j] = y_blk
    state.last_x, state.last_y = blk_i, blk_j
    state.dual_row = (j, g_now, cache, None if cache is None else cache.syncs)
    if cache is not None:
        cache.move(i, dx)
    state.k += 1
    return state


class _ReferenceSum:
    """One side's weighted sum with lazy one-coordinate folds, from its own copy of the iterate."""

    def __init__(self, v0):
        self.total = np.zeros_like(v0)
        self.last = v0.copy()
        self.weight = 0.0
        self.stamp = 0.0
        self.stamps = np.zeros_like(v0)

    def fold(self, blk, new, w):
        total, last, weight = self.total, self.last, self.weight
        self.weight = weight + w
        if type(blk) is int:
            c = blk
        else:
            c = blk.start
            if c is None or blk.stop != c + 1 or not 0 <= c < last.size or blk.step is not None:
                c = None
        if c is not None:
            stamps = self.stamps
            if self.stamp is not None:
                stamps.fill(self.stamp)
                self.stamp = None
            total[c] += (weight - stamps[c]) * last[c]
            stamps[c] = weight
            last[c] = new[c]
            return
        if self.stamp is None:
            total += (weight - self.stamps) * last
        elif weight - self.stamp == 1.0:
            total += last
        else:
            total += (weight - self.stamp) * last
        self.stamp = weight
        last[...] = new

    def sum_to(self, weight):
        stamp = self.stamps if self.stamp is None else self.stamp
        return self.total + (weight - stamp) * self.last


class ReferenceAccumulator:
    """:class:`rbpda.solver.ErgodicAccumulator`'s averages, folded from private copies by ``update``."""

    def __init__(self, M, N, x0, y0, schedule=None):
        self.M, self.N = M, N
        self.eta = None if schedule is None or schedule.mode != "diminishing" else schedule.eta
        self.x0 = np.array(x0, dtype=float)
        self.y0 = np.array(y0, dtype=float)
        self.count = 0
        self.sum_x, self.sum_y = _ReferenceSum(self.x0), _ReferenceSum(self.y0)
        self.t_total = 0.0

    def update(self, x_new, y_new, k, touched=(slice(None), slice(None))):
        if self.eta is None:
            w_x = w_y = 1.0
        else:
            t_k, th_next = schedule_t(k, self.eta), schedule_theta(k + 1, self.eta)
            w_x = t_k * (1.0 + (self.M - 1) * (1.0 - 1.0 / th_next))
            w_y = t_k * (1.0 + (self.N - 1) * (1.0 - 1.0 / th_next))
            self.t_total += t_k
        self.sum_x.fold(touched[0], x_new, w_x)
        self.sum_y.fold(touched[1], y_new, w_y)
        self.count += 1

    def total_weights(self):
        K = self.count
        if K == 0:
            return 0.0, 0.0
        if self.eta is None:
            return float(K + self.M - 1), float(K + self.N - 1)
        t_K = schedule_t(K, self.eta)
        return self.sum_x.weight + (self.M - 1) * t_K, self.sum_y.weight + (self.N - 1) * t_K

    def finalize(self):
        K = self.count
        if K == 0:
            return self.x0.copy(), self.y0.copy()
        sx, sy = self.sum_x, self.sum_y
        if self.eta is None:
            x_bar = (self.M * sx.last + sx.sum_to(sx.weight - 1.0)) / (K + self.M - 1)
            y_bar = (self.N * sy.last + sy.sum_to(sy.weight - 1.0)) / (K + self.N - 1)
            return x_bar, y_bar
        t_K = schedule_t(K, self.eta)
        x_bar = (sx.sum_to(sx.weight) + (self.M - 1) * t_K * sx.last) / (self.M - 1 + self.t_total)
        y_bar = (sy.sum_to(sy.weight) + (self.N - 1) * t_K * sy.last) / (self.N - 1 + self.t_total)
        return x_bar, y_bar

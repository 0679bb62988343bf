"""The solver's iteration as one self-contained function, an equivalence oracle for the tests.

:func:`rbpda.solver.rbpda_step` calls the step that its
:class:`~rbpda.solver.StepPlan` bound once per run: step sizes, prox kernels,
the one-coordinate dual path, the cache keywords and the batch rule are
resolved when the plan is built.  :func:`reference_step` decides all of them
again on every call: its step sizes are entries of the schedule's step
vectors, its prox is :func:`~rbpda.bregman.prox_step`, and it draws one call
at a time.  It is the same iteration, so a run driven by it must reach the
bits of :func:`rbpda.solver.run`.
"""

import numpy as np

from rbpda.bregman import prox_step
from rbpda.sampling import SequentialDraws, next_batch_size
from rbpda.solver import SolverError


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

    draws = SequentialDraws(rng, N, M, p)  # draws nothing ahead, so one per step is the same source
    j, i = draws.blocks()
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
        indices = draws.indices(v)
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

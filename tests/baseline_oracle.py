"""The deterministic full-gradient baseline step, an equivalence oracle for the tests.

The library's baseline is :func:`rbpda.solver.deterministic_baseline_run`;
this single step, coded apart from :func:`rbpda.solver.rbpda_step`, is what
the reduction-equivalence tests compare the solver's steps against.
"""

import numpy as np

from rbpda.blocks import SaddleProblem


def deterministic_baseline_step(x, y, x_prev, y_prev, problem: SaddleProblem, tau: float, sigma: float):
    """One extrapolated full-gradient primal-dual step, all blocks at once.

    Coded independently of :func:`rbpda_step` (shared prox primitives only) to
    serve as the M = N = 1, v = p, theta = 1 equivalence oracle.  The
    separable nonsmooth terms here are indicators or zero, so treating both
    sides as single blocks and proxing per block is exact.
    """
    s = 2.0 * np.asarray(problem.full_grad_y(x, y), dtype=float) - np.asarray(
        problem.full_grad_y(x_prev, y_prev), dtype=float
    )
    primal, dual = problem.sides
    y_new = dual.prox(-s, sigma, np.asarray(y, dtype=float))
    r = np.asarray(problem.full_grad_x(x, y_new), dtype=float)
    x_new = primal.prox(r, tau, np.asarray(x, dtype=float))
    return x_new, y_new

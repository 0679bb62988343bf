"""The randomized block-coordinate primal-dual iteration and its baselines.

Each iteration updates one uniformly drawn dual block through an extrapolated
full partial gradient, then one uniformly drawn primal block through a
sampled-component gradient estimate, both via Bregman proximal steps:

    s_j  <- N * g_y(x^k, y^k) + N*M*theta^k * (g_y(x^k, y^k) - g_y(x^k-1, y^k-1))
    y^k+1 block j: prox of h_j with linear term -s_j and step sigma_j^k
    r_i  <- (M/v) * sum over sampled components of
            [g_x(x^k, y^k+1) + (N-1)*theta^k * (g_x(x^k, y^k) - g_x(x^k-1, y^k-1))]
    x^k+1 block i: prox of f_i with linear term r_i and step tau_i^k

Only the primal side is sampled; the dual partial gradients are full
finite-sum means.  When the scheduled batch size reaches p, the components
are enumerated exactly instead of sampled with replacement, so the estimate
error vanishes and the method reduces to its deterministic counterpart for
M = N = 1.

A run's draws come from one generator in the fixed order of
:mod:`rbpda.sampling`, through the :class:`~rbpda.sampling.WordDraws` of its
:class:`StepPlan`.  :func:`run` takes them ahead as buffered 32-bit words; a
step driven by hand takes only its own words.  That changes no trajectory:
(seed, stream) fixes it either way.  The generator's position after a step
that raised, or after a run, is unspecified.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .blocks import SaddleProblem
from .bregman import FLOAT_KINDS, prox_kernel
from .metrics import ConvergenceTrace, evaluate_checkpoint
from .sampling import (
    BatchSchedule,
    BlockCounters,
    WordDraws,
    increasing_batch_size,
    make_rng,
    next_batch_size,
)
# the step calls none of these; perfbench's layer spans patch them in this module
from .bregman import prox_step  # noqa: F401
from .sampling import draw_block, estimate_partial_grad_x, sample_indices  # noqa: F401
from .stepsize import StepSchedule, aggregate_constants, default_free_params

__all__ = [
    "SolverConfig",
    "RunState",
    "RunResult",
    "SolverError",
    "StepPlan",
    "build_schedule",
    "ErgodicAccumulator",
    "rbpda_step",
    "restart_if_saturated",
    "run",
    "deterministic_baseline_run",
]

MODES = ("increasing_batch", "single_sample")
_FLOAT64 = np.dtype(float)
_BATCH_RULE = next_batch_size  # the batch rule a plan fills control rows for in bulk
CHUNK = 256  # most control rows a StepPlan fills at once
# the widest zero, box or nonneg block whose step runs in Python floats: a
# block update in floats costs less than numpy's per-call overhead up to ~14
# coordinates (measured on CPython 3.11, both sides), so 12 keeps a margin
SMALL = 12


class SolverError(RuntimeError):
    """Step failure; carries the partial result assembled so far."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass
class SolverConfig:
    """Run configuration.

    ``increasing_batch`` pairs constant step sizes with the growing batch rule
    (eta is the batch growth exponent); ``single_sample`` pairs diminishing
    step sizes with a constant batch (eta is the step decay exponent, in
    [0, 1)).  ``batch`` overrides the batch size with a constant of at
    least 1 in either mode (e.g. v = p for the deterministic reduction; a
    run refuses one above p).  ``as_mode`` requests
    the almost-sure-convergence regime, which needs delta_bar > 0.
    ``max_iters``, ``checkpoint_every``, ``batch``, ``seed`` and ``stream``
    must be integers (Python's or numpy's), and ``seed`` and ``stream``
    nonnegative; a refusal names the value given.
    """

    mode: str = "increasing_batch"
    eta: float = 0.0
    max_iters: int = 1000
    seed: int = 1
    stream: int = 0
    batch: Optional[int] = None
    free_params: Optional[object] = None
    restart_enabled: bool = False
    restart_threshold: float = 0.9
    checkpoint_every: int = 100
    as_mode: bool = False
    x0: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    compute_sup_gap: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        for name in ("max_iters", "checkpoint_every", "batch", "seed", "stream"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) or value is None and name == "batch"):
                raise ValueError(f"{name} must be an integer, got {name} = {value!r}")
        for name in ("seed", "stream"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {name} = {getattr(self, name)}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got max_iters = {self.max_iters}")
        if self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be at least 1, got checkpoint_every = {self.checkpoint_every}")
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"batch must be at least 1, got batch = {self.batch}")
        if self.mode == "single_sample" and not 0 <= self.eta < 1:
            raise ValueError(f"single_sample mode needs eta in [0, 1), got eta = {self.eta}")
        if self.mode == "increasing_batch" and not 0 <= self.eta < math.inf:  # also rejects NaN
            raise ValueError(f"increasing_batch mode needs a finite eta >= 0, got eta = {self.eta}")
        if not 0 < self.restart_threshold <= 1:  # also rejects NaN
            raise ValueError("restart_threshold must be finite and lie in (0, 1], "
                             f"got restart_threshold = {self.restart_threshold}")


@dataclass
class RunState:
    """Mutable per-run iterate state; single-owner, never shared across runs.

    ``x``, ``y``, ``x_prev`` and ``y_prev`` are plain float64 arrays of the
    primal and dual lengths; a block is a slice of the problem's layout.
    Block-copy invariant, which lets :func:`rbpda_step` copy one block per
    side instead of whole vectors: between steps ``y_next`` equals ``y``, and
    ``x_prev`` / ``y_prev`` differ from ``x`` / ``y`` at most at the indices
    ``last_x`` / ``last_y`` (the whole vectors until the first step).  An
    index is the block's slice, or the coordinate of a one-coordinate dual
    block that the step took in Python floats.  The
    buffers are solver-owned: callers must not write to them between steps.
    :meth:`start` and :func:`restart_if_saturated` set whole vectors and keep
    the invariant.  After each step ``x_prev`` and ``y_prev`` therefore
    equal x^k and y^k.  The step of :func:`run`'s plan folds x^k and y^k
    into the ergodic averages from ``x`` and ``y`` before writing the new
    blocks (:meth:`ErgodicAccumulator.follow`).

    ``cache`` is the problem's per-run coupling cache over these buffers
    (see :class:`~rbpda.blocks.SaddleProblem`), or None.  It moves with the
    iterates, only after a step has succeeded.  ``plan`` is the
    :class:`StepPlan` the steps read, built by :func:`run` or by the first
    step.  ``counters`` count the selections of the control rows filled
    so far, which lead k by up to a chunk during a run.

    ``dual_row`` is ``(j, g, cache, syncs)``: the dual gradient g(x^k, y^k)
    on block j that the last step computed (a float on a one-coordinate
    block, a list of floats on a small one), under the coupling cache it
    passed (or None) and that cache's ``syncs`` count.  After that
    step it is g(x^(k-1), y^(k-1)), so the next step reuses it if it draws
    block j under the same cache with no sync since; a margin read from the
    cache and one computed directly can differ in the last bit, and so can
    one before and after a sync.  :func:`restart_if_saturated` and a new
    plan forget it.
    """

    x: np.ndarray
    y: np.ndarray
    x_prev: np.ndarray
    y_prev: np.ndarray
    counters: BlockCounters
    k: int = 0
    grad_budget: int = 0
    dual_grad_evals: int = 0
    restarts: int = 0
    y_next: Optional[np.ndarray] = None
    last_x: slice = field(default_factory=lambda: slice(None))
    last_y: slice | int = field(default_factory=lambda: slice(None))
    cache: Optional[object] = None
    plan: Optional[StepPlan] = None
    dual_row: Optional[tuple] = None

    def __post_init__(self):
        if self.y_next is None:
            self.y_next = self.y.copy()

    @classmethod
    def start(cls, problem: SaddleProblem, x0=None, y0=None) -> "RunState":
        """The state at k = 0: fresh copies of (x0, y0), or of the problem's start for a None.

        A given x0 or y0 must have its side's length, be finite and lie in
        its side's domain (up to the checkpoint slack 1e-9); otherwise
        ValueError names it.
        """
        out = []
        for side, name, given, default in zip(problem.sides, ("x0", "y0"), (x0, y0),
                                              (problem.start_x, problem.start_y)):
            v = np.array(default if given is None else given, dtype=float)
            if given is not None:
                dim = side.layout.total_dim
                if v.shape != (dim,):
                    raise ValueError(f"{name} has shape {v.shape}, expected ({dim},)")
                if not np.isfinite(v).all():
                    raise ValueError(f"{name} has non-finite entries")
                if not side.contains(v, slack=1e-9):
                    raise ValueError(f"{name} lies outside the {side.name} domain")
            out.append(v)
        x, y = out
        return cls(x=x, y=y, x_prev=x.copy(), y_prev=y.copy(),
                   counters=BlockCounters.zeros(problem.structure.M))


class StepPlan:
    """A run's step, built once: everything its steps need that does not depend on the iterates.

    A plan serves the steps on ``problem`` that draw from ``rng`` under
    ``schedule`` and ``batch``, and ``step(state)`` is the iteration
    :func:`rbpda_step` describes.  It resolves once, when built:

    * the draws: ``draws`` is the steps' :class:`~rbpda.sampling.WordDraws`
      on ``rng``.  With a run length ``iters`` (which only :func:`run`
      gives) it draws words ahead; without one, as a step driven by hand
      needs, only the words each step takes.  N, M or p above 2**32 raise
      ValueError, naming the bound, before any draw;
    * the step sizes: the schedule's
      :meth:`~rbpda.stepsize.StepSchedule.steps_at` at the theta^k and t^k
      of :meth:`~rbpda.stepsize.StepSchedule.columns`, in either regime
      (ones for a constant schedule), and for a diminishing schedule
      :meth:`~rbpda.stepsize.StepSchedule.check_finite`, called here,
      before any step;
    * each block's slice and prox kernel (:func:`~rbpda.bregman.prox_kernel`),
      for a one-coordinate dual block its coordinate and float kernel, for
      any other zero, box or nonneg block of at most :data:`SMALL`
      coordinates (a one-coordinate primal block included) its list kernel
      and shape, and on a problem with a ``one_row_grad_x`` each primal
      block's factored kernel.  A small block steps in Python floats: on a
      few coordinates numpy's per-call overhead is most of the cost of the
      block's arithmetic and prox, and floats give the same bits;
    * the optional one-row oracles ``one_row_grad_x`` and ``one_row_grad_y``
      and the oracles they stand for, which a step compares by identity;
    * the batch rule: :func:`~rbpda.sampling.next_batch_size` as this
      module holds it when the plan is built;
    * with ``acc``, the run's :class:`ErgodicAccumulator`, each block's fold
      kind (:meth:`ErgodicAccumulator.folds`): the step then folds x^k and
      y^k into the averages before it writes the new blocks, with the
      weights of its control row, and sets the accumulator's ``count`` and
      ``t_total`` after it, in place of :meth:`ErgodicAccumulator.update`.
      The accumulator must follow the state's iterates
      (:meth:`ErgodicAccumulator.follow`), and the steps take k = 0, 1, 2,
      ... in turn, as in :func:`run`.

    Each step reads a **control row**, everything it needs that depends on
    k and the draws alone: its blocks j and i, its batch size v and indices
    (the one index as an int where the step takes the one-row oracle),
    sigma_j and tau_i at (theta^k, t^k), (N-1) theta^k and N M theta^k, the
    ergodic weights of x^(k+1), the running total of t, and whether a
    restart follows.  A plan with a run length fills its rows from the
    state of its first step on, none past ``iters``: 16, 32, 64, ... up to
    :data:`CHUNK` at a time.  A plan without one fills one row per step, at
    the state's k and from the step's own words, so a step driven by hand
    leaves the generator where one call at a time does, and a step retried
    after one that raised takes the row of its k anew.  With this
    module's own ``next_batch_size``, a fill whose rows all have one batch
    size v is one strided read (:meth:`~rbpda.sampling.WordDraws.steps`):
    v is a constant rule's, or p once the increasing rule without restarts
    reaches p at the least count at the fill's first k, which it then keeps,
    as the rule never decreases in a count or in k; such a read records its
    primal blocks' counts with :meth:`~rbpda.sampling.BlockCounters.add`.
    Otherwise (the increasing rule below p or with restarts, a replaced
    batch rule), or where the read gives None, each row calls
    ``draws.blocks()``, the batch rule, then ``draws.indices(v)``.  A row's
    indices are an index array, or where the step takes the one-row oracle
    (v = 1) the one index as an int: the read block's column 0, or the
    per-row draw's ``item(0)``.  With
    ``restart_threshold``, an increasing rule's row then applies
    :meth:`~rbpda.sampling.BlockCounters.restart`, the test of
    :func:`restart_if_saturated`, at its counts and k + 1, resetting the
    counts where it holds, and the step that takes the row collapses the
    history once it succeeds.
    theta^k and t^k come from :meth:`~rbpda.stepsize.StepSchedule.columns`
    (Python's float ``**``), the steps from ``steps_at`` and the weights
    from :meth:`ErgodicAccumulator.weights`, on arrays whose entries are
    the per-step floats bit for bit.

    A row's count is recorded up to a chunk before the step that takes
    it, so during a run ``state.counters`` lead ``state.k`` by as much.
    The oracles and the coupling cache are read on every step.
    """

    def __init__(self, problem: SaddleProblem, rng: np.random.Generator, schedule: StepSchedule,
                 batch: BatchSchedule, acc: Optional["ErgodicAccumulator"] = None,
                 iters: float = math.inf, restart_threshold: Optional[float] = None):
        st = problem.structure
        self.problem, self.rng, self.schedule, self.batch = problem, rng, schedule, batch
        M, N, p = st.M, st.N, problem.p
        self.draws = WordDraws(rng, N, M, p, ahead=iters < math.inf)
        self.step = _bind_step(problem, schedule, batch, self.draws, next_batch_size, acc, iters, restart_threshold)


def _bind_step(problem: SaddleProblem, schedule: StepSchedule, batch: BatchSchedule, draws, batch_size, acc,
               iters: float, threshold: Optional[float]):
    """The step of a :class:`StepPlan`, as a closure over what the plan resolved."""
    st = problem.structure
    M, N, p = st.M, st.N, problem.p
    M_float = float(M)  # a float scalar multiplies an array faster than an int, to the same bits
    blocks, take_indices = draws.blocks, draws.indices
    kernels = {}  # blocks that share a spec object share its kernel

    def kernel(spec, form="array", factored=None):
        key = id(spec), form, factored
        if key not in kernels:
            kernels[key] = prox_kernel(spec.geometry, spec, form, factored)
        return kernels[key]

    def small(spec, dim):
        """A block's width if it steps in Python floats, else 0."""
        return dim if dim <= SMALL and spec.kind in FLOAT_KINDS else 0

    # a one-coordinate dual block gets its float kernel, a small one its list
    # kernel, whose width the step reads only off the one-row path; their
    # array kernels are resolved only if an oracle ever returns rows of
    # another shape
    dual = [
        (blk, blk.start, kernel(spec, "float"), spec) if dim == 1
        else (blk, None, kernel(spec, "list") if small(spec, dim) else kernel(spec), spec)
        for blk, dim, spec in zip(st.dual.ranges, st.dual.dims, problem.dual_prox)
    ]
    widths = [0 if dim == 1 else small(spec, dim) for dim, spec in zip(st.dual.dims, problem.dual_prox)]
    # a problem's one-row oracles (optional: a problem-like object may lack
    # them) stand in for the oracles they were built with; a wrapper set on
    # the instance's batch_grad_x or grad_y is called instead.  At batch size
    # 1 the primal term stays (coef, row), and the kernel forms M * (coef *
    # row) in place; a one-coordinate dual block takes its column as floats
    one_row = getattr(problem, "one_row_grad_x", None)
    factored = None if one_row is None else (M_float, problem.row_bound)
    factors = None if one_row is None else problem._one_row_x_of
    one_row_y = getattr(problem, "one_row_grad_y", None)
    columns = None if one_row_y is None else problem._one_row_y_of
    primal = [
        (blk, kernel(spec), None if one_row is None else kernel(spec, factored=factored))
        for blk, spec in zip(st.primal.ranges, problem.primal_prox)
    ]

    def on_array(prox):
        """A list kernel called with the block's array as x_bar, which it reads with one tolist()."""
        return lambda linear, step, x_bar: prox(linear, step, x_bar.tolist())

    # a small primal block's shape and list kernel, which the batch path reads
    listed = [
        ((dim,), on_array(kernel(spec, "list"))) if small(spec, dim) else (None, None)
        for dim, spec in zip(st.primal.dims, problem.primal_prox)
    ]
    constant = schedule.mode == "constant"
    if not constant:
        schedule.check_finite()
    if acc is not None:
        weights = acc.weights
        fold_x, fold_y = acc.folds(st.primal.ranges, st.dual.ranges)
    increasing = batch.kind == "increasing"
    # the least v_i that restarts, for an increasing rule with restarts
    bar = None if threshold is None or not increasing else math.ceil(threshold * p)
    # a strided read gives the rows of one batch size that this module's own next_batch_size gives: a
    # constant rule's (v > p is left to the per-row loop, whose batch rule raises), or p for an
    # increasing rule without restarts once it is saturated
    v_bulk = p if increasing else batch.v
    bulk = batch_size is _BATCH_RULE and bar is None and v_bulk <= p

    def tables(k: int, counters: BlockCounters, size: int):
        """The control rows of k, k+1, ...: one iterator per fill of ``size``, twice that, ... up to CHUNK rows.

        A fill holds at least one row but otherwise none past ``iters``, and
        fewer where a bulk read ends early.  It starts once steps that
        succeeded took the rows before it, so it reads ``acc``'s t total.
        It holds ``counters``, not the state, which holds the plan.
        """
        while True:
            n = max(1, min(size, iters - k))
            one_row = problem.batch_grad_x is factors
            got = (bulk and (not increasing or increasing_batch_size(counters.low, k, batch.eta, p) >= p)
                   and draws.steps(n, v_bulk))
            if got:
                js, is_, block = got
                n, vs, again = len(js), repeat(v_bulk), repeat(False)
                # the one-row oracle takes its index as an int; at v >= p every row is
                # the same arange(p), which one view serves, as a view per row costs ~0.1 µs
                indices = (memoryview(block[:, 0]) if one_row and v_bulk == 1
                           else list(block) if v_bulk < p else repeat(block[0]))
                if increasing:  # the counts the batch rule records row by row
                    counters.add(is_)
            else:
                rows = []
                for row_k in range(k, k + n):
                    j, i = blocks()
                    v = batch_size(batch, counters, i, row_k, p)
                    # restart_if_saturated's test at k + 1, which resets the counts where it holds
                    again = bar is not None and counters.restart(row_k + 1, batch.eta, p, bar)
                    rows.append((j, i, v, take_indices(1).item(0) if v == 1 and one_row else take_indices(v), again))
                js, is_, vs, indices, again = zip(*rows)
                js, is_ = np.array(js), np.array(is_)
            theta, t = schedule.columns(range(k, k + n + 1))  # ones for a constant schedule
            th, t = theta[:-1], t[:-1]
            tau, sigma = schedule.steps_at(is_, js, th, t)
            if constant or acc is None:  # uniform weights leave t_total at 0; without acc nothing is folded
                w_x, w_y, totals = th, th, np.zeros(n)
            else:
                w_x, w_y = weights(t, theta[1:])
                # running sums left to right, as t_total += t^k adds them
                totals = np.add.accumulate(np.concatenate(([acc.t_total], t)))[1:]
            # a row's ints and floats are made as the step takes it, from
            # memoryviews of the columns, and zip reuses the row's tuple
            yield zip(memoryview(js), memoryview(is_), vs, indices,
                      *map(memoryview, (sigma, tau, (N - 1) * th, N * M * th, w_x, w_y, totals)), again)
            k, size = k + n, min(2 * size, CHUNK)

    def take(state: RunState) -> tuple:
        """The step's row: without a run length one fill of one row, else the first of the later steps' tables."""
        nonlocal take
        if iters == math.inf:  # one row per step, at the state's k
            return next(next(tables(state.k, state.counters, 1)))
        # take(state) is next(rows, state) from here on, and the rows never run out
        take = partial(next, chain.from_iterable(tables(state.k, state.counters, 16)))
        return take(state)

    def step(state: RunState) -> RunState:
        k = state.k
        x_k, y_k = state.x, state.y
        x_prev, y_prev = state.x_prev, state.y_prev
        y_next = state.y_next
        cache = state.cache  # passed by keyword only when there is one: **kw costs more than a branch
        j, i, v, indices, sigma, tau, c, nm_theta, w_x, w_y, t_total, again = take(state)
        kept = state.dual_row
        if kept is not None and (
            kept[0] != j or kept[2] is not cache or (cache is not None and kept[3] != cache.syncs)
        ):
            kept = None
        points = ((x_k, y_k),) if kept is not None else ((x_k, y_k), (x_prev, y_prev))
        # a one-coordinate or small block runs in Python floats: the same
        # operations as on arrays, bit for bit, without numpy's per-call
        # overhead; a one-coordinate block's rows come as floats from
        # one_row_grad_y where that stands in for grad_y
        blk_j, at_j, prox_dual, spec = dual[j]
        if at_j is not None and problem.grad_y is columns:
            try:
                g = one_row_y(j, points, cache)
                g_now = g[0]
                g_old = g[1] if kept is None else kept[1]
            except Exception as exc:
                raise SolverError(f"grad_y failed at iteration {k}, dual block {j}: {exc}") from exc
            y_base = y_k.item(at_j)
            linear = -(N * g_now + nm_theta * (g_now - g_old))  # -s, with s = N g + N M theta (g - g_old)
        else:
            try:
                g = problem.grad_y(j, points) if cache is None else problem.grad_y(j, points, cache=cache)
                # a float64 array is used as it is: asarray with a dtype costs more than the test
                if type(g) is not np.ndarray or g.dtype is not _FLOAT64:
                    g = np.asarray(g, dtype=float)
            except Exception as exc:
                raise SolverError(f"grad_y failed at iteration {k}, dual block {j}: {exc}") from exc
            width = widths[j]
            if width and g.shape == (len(points), width):
                rows = g.tolist()  # a small block's rows, as lists of floats
                g_now, y_base = rows[0], y_k[blk_j].tolist()
                g_old = rows[1] if kept is None else kept[1]
                at_j = blk_j
                linear = [-(N * a + nm_theta * (a - b)) for a, b in zip(g_now, g_old)]
            else:
                if at_j is not None and g.shape == (len(points), 1):
                    g_now, y_base = g.item(0), y_k.item(at_j)
                    g_old = g.item(1) if kept is None else kept[1]
                    linear = -(N * g_now + nm_theta * (g_now - g_old))  # as on the one-row path
                else:
                    if at_j is not None or width:
                        prox_dual = prox_kernel(spec.geometry, spec)
                    at_j = blk_j
                    g_now, y_base = g[0], y_k[blk_j]
                    g_old = g[1] if kept is None else kept[1]
                    # the same term in one new array, with the bits of -(N g +
                    # ...): a sum's order, a product by N = 1 and one by -1 (a
                    # negation, but for a NaN's sign, and the prox refuses NaN)
                    # round nothing; 0-d terms give numpy scalars
                    linear = g_now - g_old
                    linear *= nm_theta
                    linear += g_now if N == 1 else N * g_now
                    linear *= -1.0
        state.dual_grad_evals += 2

        try:
            y_blk = prox_dual(linear, sigma, y_base)
        except Exception as exc:
            raise SolverError(f"dual prox failed at iteration {k}, block {j}: {exc}") from exc

        y_next[at_j] = y_blk
        try:
            # r = M (g_new + (N-1) theta (g_cur - g_old)), the sum in one weighted
            # call; M is applied to its result, so at N = 1 the weights (1, 0, -0)
            # give M g_new with the bits of the per-point form
            points, weights_k = ((x_k, y_next), (x_k, y_k), (x_prev, y_prev)), (1.0, c, -c)
            blk_i, prox_primal, prox_row = primal[i]
            try:
                if indices.__class__ is int:  # the row's one index: the one-row oracle's path
                    prox_primal = prox_row
                    r = one_row(indices, i, points, weights_k, cache)
                else:
                    if cache is None:
                        r = problem.batch_grad_x(indices, i, points, weights_k)
                    else:
                        r = problem.batch_grad_x(indices, i, points, weights_k, cache=cache)
                    if type(r) is not np.ndarray or r.dtype is not _FLOAT64:
                        r = np.asarray(r, dtype=float)
                    shape, prox_list = listed[i]
                    if r.shape == shape:  # a small block: M r and its prox in Python floats
                        prox_primal, r = prox_list, [M_float * a for a in r.tolist()]
                    else:
                        r = M_float * r
            except Exception as exc:
                raise SolverError(
                    f"batch_grad_x failed at iteration {k}, primal block {i}: {exc}"
                ) from exc
            state.grad_budget += 3 * v

            try:
                x_blk = prox_primal(r, tau, x_k[blk_i])
            except Exception as exc:
                raise SolverError(f"primal prox failed at iteration {k}, block {i}: {exc}") from exc
        except BaseException:
            y_next[at_j] = y_k[at_j]  # back to y_next == y
            raise

        last_x, last_y = state.last_x, state.last_y
        x_prev[last_x] = x_k[last_x]
        y_prev[last_y] = y_k[last_y]
        if acc is not None:
            # x^k and y^k, before the new blocks overwrite them
            fold_x[i](w_x, x_k)
            fold_y[j](w_y, y_k)
            acc.count = k + 1
            acc.t_total = t_total
        dx = None if cache is None else x_blk - x_k[blk_i]
        x_k[blk_i] = x_blk
        y_k[at_j] = y_blk
        state.last_x, state.last_y = blk_i, at_j
        state.dual_row = (j, g_now, cache, None if cache is None else cache.syncs)
        if cache is not None:
            cache.move(i, dx)
        state.k = k + 1
        if again:  # the row's restart, now that its step has succeeded
            _collapse(state)
        return state

    return step


def _coordinate(blk, size: int):
    """The coordinate of a one-coordinate index ``blk`` (an int, or a slice within ``size``), else None."""
    if blk.__class__ is int:
        return blk
    c = blk.start
    if c is None or blk.stop != c + 1 or not 0 <= c < size or blk.step is not None:
        return None
    return c


class _LazySum:
    """One side's running weighted sum of its iterates, with lazy one-coordinate folds.

    ``total`` holds the folded terms and ``last`` the current iterate;
    ``weight`` is the running weight total.  A coordinate keeps its value
    between the updates that touch it, so its pending terms are that value
    times the weight accrued since its last touch (just-in-time updates, as
    in Langford, Li & Zhang 2009).  ``stamp`` is the running total at the
    last touch, one float while every coordinate shares it, else None and
    ``stamps`` holds it per coordinate.

    There are two fold kinds, each one method: :meth:`fold_one` folds a
    one-coordinate index alone, in O(1) and in Python floats, and
    :meth:`fold_all` folds the whole side, which is exact for any other
    index because the coordinates outside it keep their values: a
    whole-side add takes two or three numpy calls, against five plus
    slicing for a lazy fold of a multi-coordinate slice, so it is the
    cheaper one until a side has a few thousand coordinates (~1.5 us
    against ~3 us at 500).  :meth:`fold` picks the kind per call,
    :meth:`kind` once per block.

    ``last`` is the sum's own copy of the iterate, ``own``, which
    :meth:`fold` folds from, until the sum follows the caller's array
    (:meth:`ErgodicAccumulator.follow`); from then on it is the caller's
    array, and only the block folds of :meth:`kind` fold.
    """

    def __init__(self, v0: np.ndarray):
        self.total = np.zeros_like(v0)
        self.last = self.own = v0.copy()
        self.weight = 0.0
        self.stamp = 0.0
        self.stamps = np.zeros_like(v0)

    def fold(self, blk, new, w: float) -> None:
        """Take the next iterate ``new``, equal to the current one outside ``blk``, with weight ``w``.

        ``blk`` is a slice, or the index of one coordinate.  The terms come
        from the own copy, which then takes ``new``'s values.
        """
        own = self.own
        if self.last is not own:
            raise ValueError("a sum that follows the caller's array folds only through its block folds")
        c = _coordinate(blk, own.size)
        if c is not None:
            self.fold_one(c, w, own)
            own[c] = new[c]
        else:
            self.fold_all(w, own)
            own[...] = new

    def kind(self, blk: slice):
        """Block ``blk``'s fold, a callable of ``(w, old)``: :meth:`fold_one` at its coordinate, or :meth:`fold_all`."""
        c = _coordinate(blk, self.total.size)
        return self.fold_all if c is None else partial(self.fold_one, c)

    def fold_one(self, c: int, w: float, old) -> None:
        """Fold coordinate ``c``, the only one that changes, with weight ``w``; ``old`` holds the current iterate."""
        weight = self.weight
        self.weight = weight + w
        stamps = self.stamps
        if self.stamp is not None:
            stamps.fill(self.stamp)
            self.stamp = None
        total = self.total
        total[c] = total.item(c) + (weight - stamps.item(c)) * old.item(c)
        stamps[c] = weight

    def fold_all(self, w: float, old) -> None:
        """Fold every coordinate with weight ``w``; ``old`` holds the current iterate."""
        weight = self.weight
        self.weight = weight + w
        stamp = self.stamp
        if stamp is None:
            self.total += (weight - self.stamps) * old
        elif weight - stamp == 1.0:  # uniform weights: the same bits without the multiply
            self.total += old
        else:
            self.total += (weight - stamp) * old
        self.stamp = weight

    def sum_to(self, weight: float) -> np.ndarray:
        """The sum with every coordinate's pending terms up to running weight ``weight``, as a new array."""
        stamp = self.stamps if self.stamp is None else self.stamp
        return self.total + (weight - stamp) * self.last


class ErgodicAccumulator:
    """Running ergodic averages of the iterate sequence, both sides at once.

    The averages are weighted exactly when ``schedule`` is diminishing, and
    uniform otherwise (constant steps, or no schedule).  Uniform: the
    average at K puts weight M (resp. N) on the final iterate and weight 1
    on iterates 1 .. K-1.  Weighted: iterate k+1 gets weight
    t^k * [1 + (M-1)(1 - 1/theta^(k+1))] and the final iterate an extra
    (M-1) * t^K, so the total weight telescopes to T_K + M - 1 exactly.

    The sums are lazy where that pays (:class:`_LazySum`): a touched
    one-coordinate block is folded alone and any other touched slice at the
    whole side, and :meth:`finalize` folds every pending coordinate into a
    copy.  Whole-side folds in uniform mode reproduce the eager running sum
    bit for bit; lazy folds agree with it to rounding.

    Who folds: :func:`deterministic_baseline_run` and a caller driving
    steps by hand call :meth:`update` once per iterate, which folds from
    the accumulator's own copies.  In :func:`run` the accumulator follows
    the state's iterates (:meth:`follow`), and the :class:`StepPlan`'s step
    folds them through :meth:`folds`, with the weights of its control row
    (:meth:`weights`, on a fill's arrays), to the same bits.  Either way
    ``count`` and ``t_total`` are current after every step that succeeded,
    and a failed step moves neither.
    """

    def __init__(self, M: int, N: int, x0, y0, schedule: Optional[StepSchedule] = None):
        self.M, self.N = M, N
        # the schedule that weighs the averages, None for uniform ones
        self.schedule = schedule if schedule is not None and schedule.mode == "diminishing" else None
        self.x0 = np.array(x0, dtype=float)
        self.y0 = np.array(y0, dtype=float)
        self.count = 0
        self.sum_x, self.sum_y = _LazySum(self.x0), _LazySum(self.y0)
        self.t_total = 0.0

    def weights(self, t_k, th_next):
        """The primal and dual weights of x^(k+1) in weighted averages, from t^k and theta^(k+1).

        Floats give floats; arrays of them give arrays, whose entries are
        the floats' bits (only +, -, * and /, each correctly rounded).
        """
        grow = 1.0 - 1.0 / th_next
        return t_k * (1.0 + (self.M - 1) * grow), t_k * (1.0 + (self.N - 1) * grow)

    def update(self, x_new, y_new, k: int, touched=(slice(None), slice(None))) -> None:
        """Fold in the post-step iterate of iteration k (i.e. x^(k+1)).

        ``touched`` holds the (primal, dual) indices, slices or single
        coordinates, outside which x^(k+1) and y^(k+1) equal the previous
        iterate; the default is the whole vectors.  The accumulator copies
        what it needs of x^(k+1) and y^(k+1), so the caller may overwrite
        ``x_new`` and ``y_new`` at once.  An accumulator that follows the
        caller's arrays (:meth:`follow`) refuses it with ``ValueError``.
        """
        if self.schedule is None:
            t_k, w_x, w_y = 0.0, 1.0, 1.0
        else:
            t_k = self.schedule.t(k)
            w_x, w_y = self.weights(t_k, self.schedule.theta(k + 1))
        self.sum_x.fold(touched[0], x_new, w_x)
        self.sum_y.fold(touched[1], y_new, w_y)
        self.count += 1
        self.t_total += t_k

    def follow(self, x, y) -> None:
        """Read the current iterate from the arrays ``x`` and ``y``, which hold it now, from here on.

        Just before writing a block into them, the caller calls that block's
        fold (:meth:`folds`) with the weight of :meth:`weights` and ``x``
        (``y``) itself, and after it sets ``count`` and ``t_total``, as
        :func:`run`'s :class:`StepPlan` does; :meth:`update` is refused from
        then on.
        """
        self.sum_x.last, self.sum_y.last = x, y

    def folds(self, primal_blocks, dual_blocks) -> tuple[list, list]:
        """Each primal and each dual block's fold (:meth:`_LazySum.kind`), resolved once."""
        return ([self.sum_x.kind(blk) for blk in primal_blocks],
                [self.sum_y.kind(blk) for blk in dual_blocks])

    def total_weights(self) -> tuple[float, float]:
        """Total primal and dual averaging weight at the current K."""
        K = self.count
        if K == 0:
            return 0.0, 0.0
        if self.schedule is None:
            return float(K + self.M - 1), float(K + self.N - 1)
        t_K = self.schedule.t(K)
        return (
            self.sum_x.weight + (self.M - 1) * t_K,
            self.sum_y.weight + (self.N - 1) * t_K,
        )

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Current ergodic averages; pure, never perturbs the accumulator."""
        K = self.count
        if K == 0:
            return self.x0.copy(), self.y0.copy()
        sx, sy = self.sum_x, self.sum_y
        if self.schedule is None:
            # the sums stop at iterate K-1: the final one has weight M (N)
            x_bar = (self.M * sx.last + sx.sum_to(sx.weight - 1.0)) / (K + self.M - 1)
            y_bar = (self.N * sy.last + sy.sum_to(sy.weight - 1.0)) / (K + self.N - 1)
            return x_bar, y_bar
        t_K = self.schedule.t(K)
        x_bar = (sx.sum_to(sx.weight) + (self.M - 1) * t_K * sx.last) / (self.M - 1 + self.t_total)
        y_bar = (sy.sum_to(sy.weight) + (self.N - 1) * t_K * sy.last) / (self.N - 1 + self.t_total)
        return x_bar, y_bar


def rbpda_step(
    state: RunState,
    problem: SaddleProblem,
    schedule: StepSchedule,
    batch: BatchSchedule,
    rng: np.random.Generator,
) -> RunState:
    """One primal-dual iteration; mutates and returns ``state``.

    The step is ``state.plan``'s (:class:`StepPlan`), which resolved the
    step sizes, the prox kernels, the draws and the batch rule once.
    :func:`run` builds a plan with its length, which draws ahead and whose
    step also folds the ergodic averages and restarts, and a replaced
    ``rbpda_step`` that calls this one (a tracing wrapper) takes that plan.
    Otherwise this function builds a plan for the problem, ``rng``,
    ``schedule`` and ``batch`` on its first call, and again, forgetting the
    kept dual row, when one of them changes (an equal batch rule keeps it).
    That plan has no length and neither folds nor restarts (a caller
    driving steps by hand calls :meth:`ErgodicAccumulator.update` and
    :func:`restart_if_saturated`), so it draws only the words each step
    takes: after each step that returns, ``rng`` sits where
    :func:`~rbpda.sampling.draw_block` and
    :func:`~rbpda.sampling.sample_indices` called in turn leave it, and a
    plan rebuilt for a changed batch rule loses no draw.  After a step that
    raised, as during and after a run, its position is unspecified.  Such
    a plan fills a one-row table of control rows and maps its own few words
    per step, so a step driven by hand costs several steps of :func:`run`
    (~63 µs against ~14 µs per iteration on c09 data with N = 200 under a
    single-sample schedule, on a 2-core Xeon VM); nothing in the package
    drives steps by hand, only tests do.

    Draw order is fixed (dual block, primal block, component indices) so a
    seed reproduces the whole trajectory.  Outside the oracles the step
    costs O(block): it reads one step size per side, and by the block-copy
    invariant of :class:`RunState` it moves x^k into ``x_prev`` by copying
    the one block the previous step changed, then writes the new blocks.  A
    step that raises leaves x, y, x_prev, y_prev and y_next as they were.
    The dual gradient at (x^(k-1), y^(k-1)) is the previous step's row when
    it is kept (``RunState.dual_row``), so ``grad_y`` then takes only
    (x^k, y^k); either way a step counts two dual gradients.  The primal
    linear term is one weighted ``batch_grad_x`` call.  At batch size 1, on
    a problem with a ``one_row_grad_x`` whose ``batch_grad_x`` is still the
    one it was built with, it is one ``one_row_grad_x`` call instead, on
    the one index of its control row, as an int: the term stays ``(coef,
    row)``, and the prox kernel forms ``M * (coef * row)`` in place, to the
    same bits (see :class:`~rbpda.blocks.SaddleProblem`).  Likewise, on a
    one-coordinate dual block of a problem with a ``one_row_grad_y`` whose
    ``grad_y`` is still the one it was built with, the dual rows come from
    ``one_row_grad_y`` as floats.  A wrapper set on the instance's
    ``batch_grad_x`` or ``grad_y`` therefore sees every call.  On a zero,
    box or nonneg block of 2 to :data:`SMALL` coordinates (1 to
    :data:`SMALL` on the primal side) whose oracle gives rows of the
    block's shape, the step reads the rows with one ``tolist()``, forms the
    dual term s or the primal term M r and the prox in Python floats (the
    list kernel of :func:`~rbpda.bregman.prox_kernel`) and writes each new
    block back with one slice assignment per array, to the bits of the
    array operations, as numpy's per-call overhead is most of a small
    block's cost; other blocks, and rows of another shape, take the array
    kernels, and there the dual term -s is formed in one new array: g -
    g_old, scaled by N M theta in place, N g added (g itself at N = 1) and
    the sum negated in place, to the bits of -(N g + N M theta (g - g_old)).
    The state's coupling cache is passed to the oracles and moves
    only once both blocks are written.  An exception from an oracle or a
    prox becomes a :class:`SolverError` naming the iteration, the block and
    the failing call (``grad_y`` for the dual rows, ``batch_grad_x`` for the
    primal term, whichever oracle gave them), with the original as its
    ``__cause__``.
    """
    plan = state.plan
    # a plan serves the objects it was built for; an equal batch rule serves as the same one
    if plan is None or not (plan.problem is problem and plan.rng is rng and plan.schedule is schedule
                            and (plan.batch is batch or plan.batch == batch)):
        plan = state.plan = StepPlan(problem, rng, schedule, batch)
        state.dual_row = None
    return plan.step(state)


_OWN_STEP = rbpda_step  # run() calls its plan's step directly while this module holds it


def restart_if_saturated(state: RunState, p: int, threshold: float = 0.9, eta: float = 0.0) -> RunState:
    """Reset the selection counters once every block's batch rule is saturated.

    When min_i v_i >= ceil(threshold * p), the counters return to zero and the
    extrapolation history collapses onto the current iterate (the coupling
    cache, if any, is synced onto it, and the kept dual row is forgotten);
    iterates and ergodic accumulators are untouched.  The test is
    :meth:`~rbpda.sampling.BlockCounters.restart`, which a run's plan also
    applies, before it collapses the history itself (:class:`StepPlan`).
    """
    if state.counters.restart(state.k, eta, p, math.ceil(threshold * p)):
        _collapse(state)
    return state


def _collapse(state: RunState) -> None:
    """A restart's collapse of the extrapolation history onto the current iterate, counted in ``restarts``."""
    state.x_prev[:] = state.x
    state.y_prev[:] = state.y
    state.y_next[:] = state.y
    state.dual_row = None
    if state.cache is not None:
        state.cache.sync()
    state.restarts += 1


@dataclass
class RunResult:
    """Final iterates, ergodic averages and their total weights, trace, and budget accounting of one run."""

    x: np.ndarray
    y: np.ndarray
    x_bar: np.ndarray
    y_bar: np.ndarray
    trace: ConvergenceTrace
    grad_budget: int
    dual_grad_evals: int
    restarts: int
    iterations: int
    ergodic_weights: tuple


def build_schedule(problem: SaddleProblem, config: SolverConfig) -> StepSchedule:
    """The step schedule :func:`run` takes under ``config``: constant for increasing batches, else diminishing.

    :func:`~rbpda.stepsize.validate_stepsize_condition` on it checks exactly
    the steps of that run.
    """
    agg = aggregate_constants(problem.lipschitz)
    step_mode = "constant" if config.mode == "increasing_batch" else "diminishing"
    fp = config.free_params
    if fp is None:
        fp = default_free_params(agg, step_mode, delta_bar=1e-6 if config.as_mode else 0.0)
    elif config.as_mode and not fp.delta_bar > 0:
        raise ValueError("as_mode requires free parameters with delta_bar > 0")
    return StepSchedule(step_mode, agg, fp, eta=config.eta if step_mode == "diminishing" else 0.0)


def run(
    problem: SaddleProblem,
    config: SolverConfig,
    reference=None,
    f_star: Optional[float] = None,
) -> RunResult:
    """Execute the configured number of iterations with checkpointed metrics.

    Fully deterministic given (seed, stream); the plan's
    :class:`~rbpda.sampling.WordDraws` take the draws ahead as buffered
    words, so the generator's final position is unspecified.  The run's
    plan is built with its accumulator, its length and its restart
    threshold, so its step also folds the ergodic averages and restarts,
    and it reads control rows filled up to :data:`CHUNK` iterations at a
    time, none past the run's end (see :class:`StepPlan`).  Each iteration
    is one call of the plan's step while this module holds its own
    :func:`rbpda_step`; with it replaced, as by a tracing wrapper, each
    iteration calls the replacement, and :func:`rbpda_step` takes the run's
    plan, to the same bits.  A step failure aborts the run but the partial
    trace is preserved on the raised :class:`SolverError` (see
    :func:`_drive`).  A problem's coupling cache is built once, for the
    largest batch size the run can draw: p for an increasing schedule, the
    constant batch size otherwise.  The run's
    :class:`~rbpda.stepsize.StepSchedule` carries its regime, and the
    ergodic averages read it: weighted exactly when it is diminishing.
    Restarts, when enabled, apply to the increasing batch rule only.
    """
    st = problem.structure
    schedule = build_schedule(problem, config)
    p = problem.p
    if config.batch is not None:
        batch = BatchSchedule.constant(config.batch, p)
    elif config.mode == "increasing_batch":
        batch = BatchSchedule.increasing(config.eta)
    else:
        batch = BatchSchedule.constant(1, p)
    rng = make_rng(config.seed, config.stream)
    state = RunState.start(problem, config.x0, config.y0)
    acc = ErgodicAccumulator(st.M, st.N, state.x, state.y, schedule)
    acc.follow(state.x, state.y)  # the plan's step folds x^k and y^k before it overwrites them
    state.plan = StepPlan(problem, rng, schedule, batch, acc=acc, iters=config.max_iters,
                          restart_threshold=config.restart_threshold if config.restart_enabled else None)
    if problem.coupling_cache is not None:
        v_max = p if batch.kind == "increasing" else batch.v
        state.cache = problem.coupling_cache(state.x, state.y, state.x_prev, state.y_prev, v_max)
    module_step = rbpda_step  # read per run, so a replaced rbpda_step is called once per iteration
    if module_step is _OWN_STEP:
        step = state.plan.step
    else:
        def step(state):
            module_step(state, problem, schedule, batch, rng)
    return _drive(problem, state, acc, step, config.max_iters, config.checkpoint_every,
                  reference=reference, f_star=f_star, auto_best_response=config.compute_sup_gap)


def _drive(problem: SaddleProblem, state: RunState, acc: ErgodicAccumulator, step, iters: int,
           checkpoint_every: int, **metrics) -> RunResult:
    """The run loop of :func:`run` and :func:`deterministic_baseline_run`.

    ``step(state)`` advances ``state`` by one iteration, with its budget,
    and folds the new iterate into ``acc``; it is called ``iters`` times.  A
    checkpoint at k = 0, every ``checkpoint_every`` iterations and at the
    end checks that the iterate lies in the domain (slack 1e-9) and appends
    :func:`~rbpda.metrics.evaluate_checkpoint` of the averages, with
    ``metrics`` as its keywords, to the trace.  A failure after k = 0
    raises a :class:`SolverError` carrying the result so far: a step's own
    :class:`SolverError` keeps its message, any other exception becomes
    "run aborted at iteration k: ...".
    """
    trace = ConvergenceTrace()

    def checkpoint():
        if not problem.in_domain(state.x, state.y, slack=1e-9):
            raise SolverError(f"iterate left the domain by iteration {state.k}")
        x_bar, y_bar = acc.finalize()
        trace.append(evaluate_checkpoint(problem, state.k, state.grad_budget, x_bar, y_bar, **metrics))

    checkpoint()
    for _ in range(iters):
        try:
            step(state)
            if state.k % checkpoint_every == 0 or state.k == iters:
                checkpoint()
        except Exception as exc:
            partial = _result(state, acc, trace)
            if isinstance(exc, SolverError):
                exc.result = partial
                raise
            raise SolverError(f"run aborted at iteration {state.k}: {exc}", partial) from exc
    return _result(state, acc, trace)


def _result(state: RunState, acc: ErgodicAccumulator, trace: ConvergenceTrace) -> RunResult:
    """The run's result so far: copies of the iterates, the averages and their weights."""
    x_bar, y_bar = acc.finalize()
    return RunResult(
        x=state.x.copy(),
        y=state.y.copy(),
        x_bar=x_bar,
        y_bar=y_bar,
        trace=trace,
        grad_budget=state.grad_budget,
        dual_grad_evals=state.dual_grad_evals,
        restarts=state.restarts,
        iterations=state.k,
        ergodic_weights=acc.total_weights(),
    )


# ---------------------------------------------------------------------------
# Deterministic full-gradient baseline (reference runs)
# ---------------------------------------------------------------------------


def deterministic_baseline_run(
    problem: SaddleProblem,
    tau: float,
    sigma: float,
    iters: int,
    x0=None,
    y0=None,
    reference=None,
    f_star: Optional[float] = None,
    checkpoint_every: int = 100,
    compute_sup_gap: bool = False,
) -> RunResult:
    """Run the baseline with uniform ergodic averaging and checkpointing.

    Budget accounting charges p component gradients per iteration for the full
    primal gradient.  Both full gradients of an iteration are taken at the
    same x, so a problem's coupling cache, synced exactly onto x once per
    iteration, lets them share its products (one ``A @ x`` per iteration for
    robust ERM).  The loop is :func:`run`'s (:func:`_drive`): the same start
    point checks, checkpoints with the domain check, and a
    :class:`SolverError` carrying the partial result on any failure.  A
    negative ``iters`` or a ``checkpoint_every`` below 1 raises
    ``ValueError``, as in :class:`SolverConfig`.
    """
    SolverConfig(max_iters=iters, checkpoint_every=checkpoint_every)  # run()'s checks of both
    state = RunState.start(problem, x0, y0)
    x, y = state.x, state.y
    acc = ErgodicAccumulator(1, 1, x, y)
    primal, dual = problem.sides
    # x and y stay the same buffers, so the cache recognises them; x_prev is x here
    cache = None if problem.coupling_cache is None else problem.coupling_cache(x, y, x, y, problem.p)
    kw = {} if cache is None else {"cache": cache}
    dual_evals = 2 * problem.structure.N
    # The dual gradient at (x_prev, y_prev) is the previous iteration's at
    # (x, y), so each iteration evaluates it once; at k = 1 the two points
    # coincide.
    g_old = None

    def step(state):
        nonlocal g_old
        g_now = np.asarray(problem.full_grad_y(x, y, **kw), dtype=float)
        s = 2.0 * g_now - (g_now if g_old is None else g_old)
        g_old = g_now
        y_new = dual.prox(-s, sigma, y)
        x_new = primal.prox(np.asarray(problem.full_grad_x(x, y_new, **kw), dtype=float), tau, x)
        x[:] = x_new
        y[:] = y_new
        if cache is not None:
            cache.sync()
        state.grad_budget += problem.p
        state.dual_grad_evals += dual_evals
        acc.update(x, y, state.k)
        state.k += 1

    return _drive(problem, state, acc, step, iters, checkpoint_every,
                  reference=reference, f_star=f_star, auto_best_response=compute_sup_gap)

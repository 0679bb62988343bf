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
:mod:`rbpda.sampling`.  :func:`run` always takes them ahead
(:class:`StepPlan`): in chunks of steps when every step draws the same
pattern, and as buffered 32-bit words when the batch size depends on the
drawn block.  That changes no trajectory: (seed, stream) still fixes it.
The generator's position after a step that raised, or after the run, is
unspecified.  A step driven by hand draws one step at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blocks import SaddleProblem
from .bregman import prox_step
from .metrics import ConvergenceTrace, evaluate_checkpoint
from .sampling import (  # noqa: F401  estimate_partial_grad_x is kept here for perfbench's patch list
    BatchSchedule,
    BlockCounters,
    chunked_draws,
    draw_block,
    estimate_partial_grad_x,
    make_rng,
    next_batch_size,
    sample_indices,
    typical_batch_size,
)
from .stepsize import StepSchedule, aggregate_constants, default_free_params

__all__ = [
    "SolverConfig",
    "RunState",
    "RunResult",
    "SolverError",
    "StepPlan",
    "ErgodicAccumulator",
    "rbpda_step",
    "restart_if_saturated",
    "run",
    "deterministic_baseline_run",
]

MODES = ("increasing_batch", "single_sample")


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
    [0, 1)).  ``batch`` overrides the batch size with a constant in either
    mode (e.g. v = p for the deterministic reduction).  ``as_mode`` requests
    the almost-sure-convergence regime, which needs delta_bar > 0.
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
    saturation_fraction: Optional[float] = None
    checkpoint_every: int = 100
    as_mode: bool = False
    x0: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    compute_sup_gap: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.mode == "single_sample" and not 0 <= self.eta < 1:
            raise ValueError("single_sample mode needs eta in [0, 1)")
        if self.mode == "increasing_batch" and self.eta < 0:
            raise ValueError("increasing_batch mode needs eta >= 0")
        if not 0 < self.restart_threshold <= 1:  # also rejects NaN
            raise ValueError("restart_threshold must be finite and lie in (0, 1]")


@dataclass
class RunState:
    """Mutable per-run iterate state; single-owner, never shared across runs.

    ``x``, ``y``, ``x_prev`` and ``y_prev`` are plain float64 arrays of the
    primal and dual lengths; a block is a slice of the problem's layout.
    Block-copy invariant, which lets :func:`rbpda_step` copy one block per
    side instead of whole vectors: between steps ``y_next`` equals ``y``, and
    ``x_prev`` / ``y_prev`` differ from ``x`` / ``y`` at most in the slices
    ``last_x`` / ``last_y`` (the whole vectors until the first step).  The
    buffers are solver-owned: callers must not write to them between steps.
    :meth:`start` and :func:`restart_if_saturated` set whole vectors and keep
    the invariant.

    ``cache`` is the problem's per-run coupling cache over these buffers
    (see :class:`~rbpda.blocks.SaddleProblem`), or None.  While it is on it
    moves with the iterates, only after a step has succeeded; :func:`run`
    turns it on and off between steps.  ``plan`` is the :class:`StepPlan`
    the steps read, built by :func:`run` or by the first step.

    ``dual_row`` is ``(j, g, cache, syncs)``: the dual gradient g(x^k, y^k)
    on block j that the last step computed, under the coupling cache it
    passed (None while off) and that cache's ``syncs`` count.  After that
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
    last_y: slice = field(default_factory=lambda: slice(None))
    cache: Optional[object] = None
    plan: Optional[StepPlan] = None
    dual_row: Optional[tuple] = None

    def __post_init__(self):
        if self.y_next is None:
            self.y_next = self.y.copy()

    @classmethod
    def start(cls, problem: SaddleProblem, x0=None, y0=None) -> "RunState":
        x, y = _start_point(problem, x0, y0)
        return cls(x=x, y=y, x_prev=x.copy(), y_prev=y.copy(),
                   counters=BlockCounters.zeros(problem.structure.M))


def _start_point(problem: SaddleProblem, x0=None, y0=None) -> tuple[np.ndarray, np.ndarray]:
    """Fresh copies of the start (x0, y0), or of the problem's start for a None.

    A given x0 or y0 must have its side's length, be finite and lie in its
    side's domain (up to the checkpoint slack 1e-9); otherwise ValueError
    names it.
    """
    out = []
    for side, name, given, default in ((0, "x0", x0, problem.start_x), (1, "y0", y0, problem.start_y)):
        v = np.array(default if given is None else given, dtype=float)
        if given is not None:
            dim = problem.side_specs(side)[1].total_dim
            if v.shape != (dim,):
                raise ValueError(f"{name} has shape {v.shape}, expected ({dim},)")
            if not np.isfinite(v).all():
                raise ValueError(f"{name} has non-finite entries")
            if not problem.side_contains(side, v, slack=1e-9):
                raise ValueError(f"{name} lies outside the {('primal', 'dual')[side]} domain")
        out.append(v)
    return out[0], out[1]


class StepPlan:
    """What a run's steps need that does not depend on the iterates, built once per run.

    ``dual[j]`` is block j's slice, its coordinate for the one-coordinate
    float path (None for a wider block) and its prox spec; ``primal[i]`` is
    block i's slice and prox spec.  Given the run's ``batch``, ``rng`` and
    number of ``steps``, ``draws`` takes the run's draws ahead
    (:func:`~rbpda.sampling.chunked_draws`): a
    :class:`~rbpda.sampling.ChunkedDraws` when every step draws the same
    pattern and it fits a chunk, else a
    :class:`~rbpda.sampling.WordDraws`.  A step takes its
    blocks from ``draws.blocks()`` and, once its batch size v is known, its
    indices from ``draws.indices(v)``.  For a plan built without ``steps``
    (and for bounds past 2**32) ``draws`` is None and each step draws from
    its generator in turn.  A plan without draws serves any step on
    ``problem``; one with draws only steps with the same ``batch`` and
    ``rng`` objects.
    """

    def __init__(self, problem: SaddleProblem, batch: Optional[BatchSchedule] = None,
                 rng: Optional[np.random.Generator] = None, steps: Optional[int] = None):
        st = problem.structure
        self.problem, self.batch, self.rng = problem, batch, rng
        self.draws = None if steps is None else chunked_draws(rng, st.N, st.M, problem.p, batch, steps)
        self.dual = [
            (blk, blk.start if dim == 1 else None, spec)
            for blk, dim, spec in zip(st.dual.ranges, st.dual.dims, problem.dual_prox)
        ]
        self.primal = list(zip(st.primal.ranges, problem.primal_prox))

    def serves(self, problem: SaddleProblem, batch: BatchSchedule, rng: np.random.Generator) -> bool:
        return self.problem is problem and (self.draws is None or (self.rng is rng and self.batch is batch))


class _LazySum:
    """One side's running weighted sum of its iterates, with lazy one-coordinate folds.

    ``total`` holds the folded terms and ``last`` the current iterate;
    ``weight`` is the running weight total.  A coordinate keeps its value
    between the updates that touch it, so its pending terms are that value
    times the weight accrued since its last touch (just-in-time updates, as
    in Langford, Li & Zhang 2009).  ``stamp`` is the running total at the
    last touch, one float while every coordinate shares it, else None and
    ``stamps`` holds it per coordinate.

    A one-coordinate slice (a scalar block) is folded alone, in O(1).  Any
    other slice widens to a whole-side fold, which is exact because the
    coordinates outside the slice keep their values: a whole-side add takes
    two or three numpy calls, against five plus slicing for a lazy fold of
    a multi-coordinate slice, so it is the cheaper one until a side has a
    few thousand coordinates (~1.5 us against ~3 us at 500).
    """

    def __init__(self, v0: np.ndarray):
        self.total = np.zeros_like(v0)
        self.last = v0.copy()
        self.weight = 0.0
        self.stamp = 0.0
        self.stamps = np.zeros_like(v0)

    def fold(self, blk: slice, new, w: float) -> None:
        """Take the next iterate ``new``, equal to ``last`` outside ``blk``, with weight ``w``."""
        total, last, weight = self.total, self.last, self.weight
        self.weight = weight + w
        c = blk.start
        if c is not None and blk.stop == c + 1 and 0 <= c < last.size and blk.step is None:
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
        elif weight - self.stamp == 1.0:  # uniform weights: the same bits without the multiply
            total += last
        else:
            total += (weight - self.stamp) * last
        self.stamp = weight
        last[...] = new

    def sum_to(self, weight: float) -> np.ndarray:
        """The sum with every coordinate's pending terms up to running weight ``weight``, as a new array."""
        stamp = self.stamps if self.stamp is None else self.stamp
        return self.total + (weight - stamp) * self.last


class ErgodicAccumulator:
    """Running ergodic averages of the iterate sequence, both sides at once.

    Uniform mode (constant steps): the average at K puts weight M (resp. N)
    on the final iterate and weight 1 on iterates 1 .. K-1.  Weighted mode
    (diminishing steps): iterate k+1 gets weight t^k * [1 + (M-1)(1 - 1/theta^(k+1))]
    and the final iterate an extra (M-1) * t^K, so the total weight telescopes
    to T_K + M - 1 exactly.

    The sums are lazy where that pays (:class:`_LazySum`): :meth:`update`
    folds a touched one-coordinate block alone and any other touched slice
    at the whole side, and :meth:`finalize` folds every pending coordinate
    into a copy.  Whole-side folds in uniform mode reproduce the eager
    running sum bit for bit; lazy folds agree with it to rounding.
    """

    def __init__(self, mode: str, M: int, N: int, x0, y0, schedule: Optional[StepSchedule] = None):
        if mode not in ("uniform", "weighted"):
            raise ValueError(f"unknown ergodic mode: {mode!r}")
        if mode == "weighted" and schedule is None:
            raise ValueError("weighted averaging needs the step schedule")
        self.mode = mode
        self.M, self.N = M, N
        self.schedule = schedule
        self.x0 = np.array(x0, dtype=float)
        self.y0 = np.array(y0, dtype=float)
        self.count = 0
        self.sum_x, self.sum_y = _LazySum(self.x0), _LazySum(self.y0)
        self.t_total = 0.0

    def update(self, x_new, y_new, k: int, touched=(slice(None), slice(None))) -> None:
        """Fold in the post-step iterate of iteration k (i.e. x^(k+1)).

        ``touched`` holds the (primal, dual) slices outside which x^(k+1)
        and y^(k+1) equal the previous iterate; the default is the whole
        vectors.
        """
        if self.mode == "uniform":
            w_x = w_y = 1.0
        else:
            t_k = self.schedule.t(k)
            th_next = self.schedule.theta(k + 1)
            w_x = t_k * (1.0 + (self.M - 1) * (1.0 - 1.0 / th_next))
            w_y = t_k * (1.0 + (self.N - 1) * (1.0 - 1.0 / th_next))
            self.t_total += t_k
        self.sum_x.fold(touched[0], x_new, w_x)
        self.sum_y.fold(touched[1], y_new, w_y)
        self.count += 1

    def total_weights(self) -> tuple[float, float]:
        """Total primal and dual averaging weight at the current K."""
        K = self.count
        if K == 0:
            return 0.0, 0.0
        if self.mode == "uniform":
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
        if self.mode == "uniform":
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

    Draw order is fixed (dual block, primal block, component indices) so a
    seed reproduces the whole trajectory.  The draws, block slices and prox
    specs come from ``state.plan``.  :func:`run` builds it with the run's
    length and takes every run's draws ahead, with the same values: the
    step takes its blocks first and its indices once the batch size is
    known, so the generator's position after a step that raised is
    unspecified.  A step driven by hand builds a plan on its first call for
    the problem, and that plan draws from ``rng`` one step at a time, as
    :func:`~rbpda.sampling.draw_block` and
    :func:`~rbpda.sampling.sample_indices` do.  Outside the oracles the step
    costs O(block): it reads one step size per side, and by the block-copy
    invariant of :class:`RunState` it moves x^k into ``x_prev`` by copying
    the one block the previous step changed, then writes the new blocks.  A
    step that raises leaves x, y, x_prev, y_prev and y_next as they were.
    The dual gradient at (x^(k-1), y^(k-1)) is the previous step's row when
    it is kept (``RunState.dual_row``), so ``grad_y`` then takes only
    (x^k, y^k); either way a step counts two dual gradients.  The primal
    linear term is one weighted ``batch_grad_x`` call.  A run's coupling
    cache, while on, is passed to ``grad_y`` and ``batch_grad_x`` and moves
    only once both blocks are written; a cache that is off is left alone.
    An exception from an oracle or a prox becomes a :class:`SolverError`
    naming the iteration, the block and the failing call, with the original
    as its ``__cause__``.
    """
    plan = state.plan
    if plan is None or not plan.serves(problem, batch, rng):
        plan = state.plan = StepPlan(problem)
        state.dual_row = None
    st = problem.structure
    M, N, p = st.M, st.N, problem.p
    k = state.k
    theta = schedule.theta(k)
    x_k, y_k = state.x, state.y
    x_prev, y_prev = state.x_prev, state.y_prev
    y_next = state.y_next
    cache = state.cache
    if cache is not None and not cache.on:
        cache = None
    kw = {} if cache is None else {"cache": cache}

    draws = plan.draws
    if draws is None:
        j = draw_block(rng, N)
    else:
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
    blk_j, at_j, dual_spec = plan.dual[j]
    if at_j is not None and g.shape == (len(points), 1):
        # a one-coordinate block in Python floats: the same operations as on
        # one-element arrays, bit for bit, without numpy's per-call overhead
        g_now, y_base = g.item(0), y_k.item(at_j)
        g_old = g.item(1) if kept is None else kept[1]
    else:
        at_j = blk_j
        g_now, y_base = g[0], y_k[blk_j]
        g_old = g[1] if kept is None else kept[1]
    s = N * g_now + N * M * theta * (g_now - g_old)

    try:
        y_blk = prox_step(dual_spec.geometry, dual_spec, -s, schedule.sigma(k, j), y_base)
    except Exception as exc:
        raise SolverError(f"dual prox failed at iteration {k}, block {j}: {exc}") from exc

    y_next[at_j] = y_blk
    try:
        if draws is None:
            i = draw_block(rng, M)
        v = next_batch_size(batch, state.counters, i, k, p)
        if draws is None:
            indices = np.arange(p) if v >= p else sample_indices(rng, v, p)
        else:
            indices = draws.indices(v)
        # r = M (g_new + (N-1) theta (g_cur - g_old)), the sum in one weighted
        # call; M is applied to its result, so at N = 1 the weights (1, 0, -0)
        # give M g_new with the bits of the per-point form
        c = (N - 1) * theta
        try:
            r = M * np.asarray(
                problem.batch_grad_x(
                    indices, i, ((x_k, y_next), (x_k, y_k), (x_prev, y_prev)), (1.0, c, -c), **kw
                ),
                dtype=float,
            )
        except Exception as exc:
            raise SolverError(
                f"batch_grad_x failed at iteration {k}, primal block {i}: {exc}"
            ) from exc
        state.grad_budget += 3 * v

        blk_i, primal_spec = plan.primal[i]
        try:
            x_blk = prox_step(primal_spec.geometry, primal_spec, r, schedule.tau(k, i), x_k[blk_i])
        except Exception as exc:
            raise SolverError(f"primal prox failed at iteration {k}, block {i}: {exc}") from exc
    except BaseException:
        y_next[at_j] = y_k[at_j]  # back to y_next == y
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


def restart_if_saturated(state: RunState, p: int, threshold: float = 0.9, eta: float = 0.0) -> RunState:
    """Reset the selection counters once every block's batch rule is saturated.

    When min_i v_i >= ceil(threshold * p), the counters return to zero and the
    extrapolation history collapses onto the current iterate (a coupling
    cache that is on is synced onto it, and the kept dual row is
    forgotten); iterates and ergodic accumulators are untouched.  With the
    counters at zero the batch rule starts again from v = 1, so in
    :func:`run` the next step's plan usually turns the cache off.  The rule is nondecreasing in a block's count, so the least
    v_i is the rule at the least count, and the test is O(1).
    """
    v_low = min(p, math.ceil((state.counters.low + 1) * (state.k + 1) ** eta))
    if v_low >= math.ceil(threshold * p):
        state.counters.reset()
        state.x_prev[:] = state.x
        state.y_prev[:] = state.y
        state.y_next[:] = state.y
        state.dual_row = None
        if state.cache is not None and state.cache.on:
            state.cache.sync()
        state.restarts += 1
    return state


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
    config: Optional[SolverConfig] = None


def _build_schedule(problem: SaddleProblem, config: SolverConfig):
    st = problem.structure
    agg = aggregate_constants(problem.lipschitz, st.M, st.N)
    step_mode = "constant" if config.mode == "increasing_batch" else "diminishing"
    fp = config.free_params
    if fp is None:
        delta_bar = 1e-6 if config.as_mode else 0.0
        fp = default_free_params(agg, st.M, st.N, mode=step_mode, delta_bar=delta_bar)
    elif config.as_mode and not fp.delta_bar > 0:
        raise ValueError("as_mode requires free parameters with delta_bar > 0")
    schedule = StepSchedule(
        mode=step_mode,
        M=st.M,
        N=st.N,
        agg=agg,
        fp=fp,
        eta=config.eta if step_mode == "diminishing" else 0.0,
    )
    return schedule, agg, fp


def run(
    problem: SaddleProblem,
    config: SolverConfig,
    reference=None,
    f_star: Optional[float] = None,
) -> RunResult:
    """Execute the configured number of iterations with checkpointed metrics.

    Fully deterministic given (seed, stream); the draws are taken ahead
    (:class:`StepPlan`), for every batch schedule, so the generator's final
    position is unspecified.  A step failure aborts the run but the partial trace is
    preserved on the raised :class:`SolverError`.  A problem's coupling
    cache is planned from the batch size the next step is expected to draw
    (:func:`~rbpda.sampling.typical_batch_size`), whenever that size
    changes, so it is on only while it costs less than the rows it saves.
    """
    st = problem.structure
    schedule, _, _ = _build_schedule(problem, config)
    if config.batch is not None:
        batch = BatchSchedule.constant(config.batch, problem.p)
    elif config.mode == "increasing_batch":
        batch = BatchSchedule.increasing(config.eta, config.saturation_fraction)
    else:
        batch = BatchSchedule.constant(1, problem.p)
    rng = make_rng(config.seed, config.stream)
    state = RunState.start(problem, config.x0, config.y0)
    state.plan = StepPlan(problem, batch, rng, steps=config.max_iters)
    if problem.coupling_cache is not None:
        state.cache = problem.coupling_cache(state.x, state.y, state.x_prev, state.y_prev)
    acc = ErgodicAccumulator(
        "uniform" if config.mode == "increasing_batch" else "weighted",
        st.M,
        st.N,
        state.x,
        state.y,
        schedule,
    )
    trace = ConvergenceTrace()

    def checkpoint():
        if not problem.in_domain(state.x, state.y, slack=1e-9):
            raise SolverError(f"iterate left the domain by iteration {state.k}")
        x_bar, y_bar = acc.finalize()
        row = evaluate_checkpoint(
            problem,
            state.k,
            state.grad_budget,
            x_bar,
            y_bar,
            reference=reference,
            f_star=f_star,
            auto_best_response=config.compute_sup_gap,
        )
        trace.append(row)

    checkpoint()
    cache = state.cache
    planned = None  # the batch size the cache was last planned for
    p = problem.p
    for _ in range(config.max_iters):
        k_pre = state.k
        try:
            if cache is not None:
                v = typical_batch_size(batch, state.counters, k_pre, p)
                if v != planned:
                    cache.plan(v)  # idempotent for an unchanged v
                    planned = v
            rbpda_step(state, problem, schedule, batch, rng)
            acc.update(state.x, state.y, k_pre, (state.last_x, state.last_y))
            if config.restart_enabled and config.mode == "increasing_batch" and config.batch is None:
                restart_if_saturated(state, p, config.restart_threshold, config.eta)
            if state.k % config.checkpoint_every == 0 or state.k == config.max_iters:
                checkpoint()
        except Exception as exc:
            partial = _result(state, acc, trace, config)
            if isinstance(exc, SolverError):
                exc.result = partial
                raise
            raise SolverError(f"run aborted at iteration {state.k}: {exc}", partial) from exc
    return _result(state, acc, trace, config)


def _result(state: RunState, acc: ErgodicAccumulator, trace: ConvergenceTrace, config: SolverConfig) -> RunResult:
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
        config=config,
        ergodic_weights=acc.total_weights(),
    )


# ---------------------------------------------------------------------------
# Deterministic full-gradient baseline (reference runs)
# ---------------------------------------------------------------------------


def _stacked_prox(problem: SaddleProblem, side: int):
    """Whole-vector prox applier for side 0 (primal) or 1 (dual); vectorized when possible.

    Box, orthant, and zero blocks under Euclidean geometry collapse into one
    array operation (boxes clip to the problem's stacked side bounds);
    anything else falls back to the per-block loop.
    """
    specs, layout = problem.side_specs(side)
    kinds = {spec.kind for spec in specs}
    geoms = {spec.geometry.kind for spec in specs}
    bounds = problem.side_bounds()[side]
    if geoms == {"euclidean"} and kinds <= {"zero"}:
        return lambda linear, step, base: base - step * linear
    if geoms == {"euclidean"} and kinds <= {"nonneg"}:
        return lambda linear, step, base: np.maximum(base - step * linear, 0.0)
    if geoms == {"euclidean"} and kinds <= {"box"} and bounds is not None:
        lo, hi = bounds.lower, bounds.upper

        def box(linear, step, base):
            # np.clip's values bit for bit, in place, without its Python-level wrapper
            point = base - step * linear
            return np.minimum(np.maximum(point, lo, out=point), hi, out=point)

        return box

    def blockwise(linear, step, base):
        out = np.empty(layout.total_dim)
        for b, spec in enumerate(specs):
            blk = layout.block_range(b)
            out[blk] = prox_step(spec.geometry, spec, linear[blk], step, base[blk])
        return out

    return blockwise


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D array: ``np.linalg.norm``'s arithmetic, bit for bit, without its call overhead."""
    return math.sqrt(v.dot(v))


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
    plateau_tol: float = 0.0,
    compute_sup_gap: bool = False,
) -> RunResult:
    """Run the baseline with uniform ergodic averaging and checkpointing.

    Budget accounting charges p component gradients per iteration for the full
    primal gradient.  With ``plateau_tol > 0`` the run stops early once the
    iterate movement stays below the tolerance for 20 consecutive iterations.
    Both full gradients of an iteration are taken at the same x, so a
    problem's coupling cache, synced exactly onto x once per iteration, lets
    them share its products (one ``A @ x`` per iteration for robust ERM).
    """
    x, y = _start_point(problem, x0, y0)
    st = problem.structure
    acc = ErgodicAccumulator("uniform", 1, 1, x, y)
    trace = ConvergenceTrace()
    budget = 0
    quiet = 0

    def checkpoint(k):
        x_bar, y_bar = acc.finalize()
        trace.append(
            evaluate_checkpoint(
                problem,
                k,
                budget,
                x_bar,
                y_bar,
                reference=reference,
                f_star=f_star,
                auto_best_response=compute_sup_gap,
            )
        )

    checkpoint(0)
    dual_apply = _stacked_prox(problem, 1)
    primal_apply = _stacked_prox(problem, 0)
    # The dual gradient at (x_prev, y_prev) is the previous iteration's at
    # (x, y), so each iteration evaluates it once; at k = 1 the two points
    # coincide.
    g_old = None
    # x and y stay the same buffers, so the cache recognises them; x_prev is x here
    cache = None if problem.coupling_cache is None else problem.coupling_cache(x, y, x, y)
    kw = {} if cache is None else {"cache": cache}
    k = 0
    for k in range(1, iters + 1):
        g_now = np.asarray(problem.full_grad_y(x, y, **kw), dtype=float)
        s = 2.0 * g_now - (g_now if g_old is None else g_old)
        g_old = g_now
        y_new = dual_apply(-s, sigma, y)
        x_new = primal_apply(np.asarray(problem.full_grad_x(x, y_new, **kw), dtype=float), tau, x)
        budget += problem.p
        move = _norm(x_new - x) + _norm(y_new - y)
        x[:] = x_new
        y[:] = y_new
        if cache is not None:
            cache.sync()
        acc.update(x, y, k - 1)
        if k % checkpoint_every == 0 or k == iters:
            checkpoint(k)
        if plateau_tol > 0:
            scale = 1.0 + (_norm(x) + _norm(y))
            quiet = quiet + 1 if move <= plateau_tol * scale else 0
            if quiet >= 20:
                if trace.rows[-1].k != k:
                    checkpoint(k)
                break
    x_bar, y_bar = acc.finalize()
    return RunResult(
        x=x.copy(),
        y=y.copy(),
        x_bar=x_bar,
        y_bar=y_bar,
        trace=trace,
        grad_budget=budget,
        dual_grad_evals=2 * st.N * k,
        restarts=0,
        iterations=k,
        config=None,
        ergodic_weights=acc.total_weights(),
    )

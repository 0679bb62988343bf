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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blocks import BlockVector, SaddleProblem
from .bregman import prox_step
from .metrics import ConvergenceTrace, evaluate_checkpoint
from .sampling import (
    BatchSchedule,
    BlockCounters,
    draw_block,
    estimate_partial_grad_x,
    make_rng,
    next_batch_size,
    sample_indices,
)
from .stepsize import StepSchedule, aggregate_constants, default_free_params

__all__ = [
    "SolverConfig",
    "RunState",
    "RunResult",
    "SolverError",
    "ErgodicAccumulator",
    "rbpda_step",
    "restart_if_saturated",
    "run",
    "deterministic_baseline_step",
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
    step_scale: float = 1.0
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


@dataclass
class RunState:
    """Mutable per-run iterate state; single-owner, never shared across runs.

    Block-copy invariant, which lets :func:`rbpda_step` copy one block per
    side instead of whole vectors: between steps ``y_next`` equals ``y``, and
    ``x_prev`` / ``y_prev`` differ from ``x`` / ``y`` at most in the slices
    ``last_x`` / ``last_y`` (the whole vectors until the first step).  The
    buffers are solver-owned: callers must not write to them between steps.
    :meth:`start` and :func:`restart_if_saturated` set whole vectors and keep
    the invariant.
    """

    x: BlockVector
    y: BlockVector
    x_prev: BlockVector
    y_prev: BlockVector
    counters: BlockCounters
    k: int = 0
    grad_budget: int = 0
    dual_grad_evals: int = 0
    restarts: int = 0
    y_next: Optional[np.ndarray] = None
    last_x: slice = field(default_factory=lambda: slice(None))
    last_y: slice = field(default_factory=lambda: slice(None))

    def __post_init__(self):
        if self.y_next is None:
            self.y_next = self.y.data.copy()

    @classmethod
    def start(cls, problem: SaddleProblem, x0=None, y0=None) -> "RunState":
        x = np.array(problem.start_x if x0 is None else x0, dtype=float)
        y = np.array(problem.start_y if y0 is None else y0, dtype=float)
        st = problem.structure
        return cls(
            x=BlockVector(st.primal, x.copy()),
            y=BlockVector(st.dual, y.copy()),
            x_prev=BlockVector(st.primal, x.copy()),
            y_prev=BlockVector(st.dual, y.copy()),
            counters=BlockCounters.zeros(st.M),
        )


class ErgodicAccumulator:
    """Running ergodic averages of the iterate sequence, both sides at once.

    Uniform mode (constant steps): the average at K puts weight M (resp. N)
    on the final iterate and weight 1 on iterates 1 .. K-1.  Weighted mode
    (diminishing steps): iterate k+1 gets weight t^k * [1 + (M-1)(1 - 1/theta^(k+1))]
    and the final iterate an extra (M-1) * t^K, so the total weight telescopes
    to T_K + M - 1 exactly.
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
        self.sum_x = np.zeros_like(self.x0)
        self.sum_y = np.zeros_like(self.y0)
        self.last_x = np.empty_like(self.x0)
        self.last_y = np.empty_like(self.y0)
        self._term_x = np.empty_like(self.x0)  # weighted-mode scratch
        self._term_y = np.empty_like(self.y0)
        self.weight_x = 0.0
        self.weight_y = 0.0
        self.t_total = 0.0

    def update(self, x_new, y_new, k: int) -> None:
        """Fold in the post-step iterate of iteration k (i.e. x^(k+1)); allocates nothing."""
        if self.mode == "uniform":
            if self.count:
                self.sum_x += self.last_x
                self.sum_y += self.last_y
        else:
            t_k = self.schedule.t(k)
            th_next = self.schedule.theta(k + 1)
            w_x = t_k * (1.0 + (self.M - 1) * (1.0 - 1.0 / th_next))
            w_y = t_k * (1.0 + (self.N - 1) * (1.0 - 1.0 / th_next))
            self.sum_x += np.multiply(w_x, x_new, out=self._term_x)
            self.sum_y += np.multiply(w_y, y_new, out=self._term_y)
            self.weight_x += w_x
            self.weight_y += w_y
            self.t_total += t_k
        np.copyto(self.last_x, x_new)
        np.copyto(self.last_y, y_new)
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
            self.weight_x + (self.M - 1) * t_K,
            self.weight_y + (self.N - 1) * t_K,
        )

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Current ergodic averages; pure, never perturbs the accumulator."""
        K = self.count
        if K == 0:
            return self.x0.copy(), self.y0.copy()
        if self.mode == "uniform":
            x_bar = (self.M * self.last_x + self.sum_x) / (K + self.M - 1)
            y_bar = (self.N * self.last_y + self.sum_y) / (K + self.N - 1)
            return x_bar, y_bar
        t_K = self.schedule.t(K)
        x_bar = (self.sum_x + (self.M - 1) * t_K * self.last_x) / (self.M - 1 + self.t_total)
        y_bar = (self.sum_y + (self.N - 1) * t_K * self.last_y) / (self.N - 1 + self.t_total)
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
    seed reproduces the whole trajectory.  Outside the oracles the step costs
    O(block): it reads one step size per side, and by the block-copy
    invariant of :class:`RunState` it moves x^k into ``x_prev`` by copying
    the one block the previous step changed, then writes the new blocks.  A
    step that raises leaves x, y, x_prev, y_prev and y_next as they were.
    """
    st = problem.structure
    M, N, p = st.M, st.N, problem.p
    k = state.k
    theta = schedule.theta(k)
    x_k, y_k = state.x.data, state.y.data
    x_prev, y_prev = state.x_prev.data, state.y_prev.data
    y_next = state.y_next

    j = draw_block(rng, N)
    g_now = np.asarray(problem.grad_y(j, x_k, y_k), dtype=float)
    g_old = np.asarray(problem.grad_y(j, x_prev, y_prev), dtype=float)
    state.dual_grad_evals += 2
    s = N * g_now + N * M * theta * (g_now - g_old)

    dual_spec = problem.dual_prox[j]
    blk_j = st.dual.block_range(j)
    try:
        y_blk = prox_step(dual_spec.geometry, dual_spec, -s, schedule.sigma(k, j), y_k[blk_j])
    except Exception as exc:
        raise SolverError(f"dual prox failed at iteration {k}, block {j}: {exc}") from exc

    y_next[blk_j] = y_blk
    try:
        i = draw_block(rng, M)
        v = next_batch_size(batch, state.counters, i, k, p)
        indices = np.arange(p) if v >= p else sample_indices(rng, v, p)
        est_new, est_cur, est_old = estimate_partial_grad_x(
            problem, indices, i, ((x_k, y_next), (x_k, y_k), (x_prev, y_prev))
        )
        state.grad_budget += 3 * v
        r = M * (est_new + (N - 1) * theta * (est_cur - est_old))

        primal_spec = problem.primal_prox[i]
        blk_i = st.primal.block_range(i)
        try:
            x_blk = prox_step(primal_spec.geometry, primal_spec, r, schedule.tau(k, i), x_k[blk_i])
        except Exception as exc:
            raise SolverError(f"primal prox failed at iteration {k}, block {i}: {exc}") from exc
    except BaseException:
        y_next[blk_j] = y_k[blk_j]  # back to y_next == y
        raise

    x_prev[state.last_x] = x_k[state.last_x]
    y_prev[state.last_y] = y_k[state.last_y]
    x_k[blk_i] = x_blk
    y_k[blk_j] = y_blk
    state.last_x, state.last_y = blk_i, blk_j
    state.k += 1
    return state


def restart_if_saturated(state: RunState, p: int, threshold: float = 0.9, eta: float = 0.0) -> RunState:
    """Reset the selection counters once every block's batch rule is saturated.

    When min_i v_i >= ceil(threshold * p), the counters return to zero and the
    extrapolation history collapses onto the current iterate; iterates and
    ergodic accumulators are untouched.
    """
    vs = np.minimum(p, np.ceil((state.counters.counts + 1) * (state.k + 1) ** eta))
    if np.all(vs >= np.ceil(threshold * p)):
        state.counters.reset()
        state.x_prev.data[:] = state.x.data
        state.y_prev.data[:] = state.y.data
        state.y_next[:] = state.y.data
        state.restarts += 1
    return state


@dataclass
class RunResult:
    """Final iterates, ergodic averages, trace, and budget accounting of one run."""

    x: np.ndarray
    y: np.ndarray
    x_bar: np.ndarray
    y_bar: np.ndarray
    trace: ConvergenceTrace
    grad_budget: int
    dual_grad_evals: int
    restarts: int
    iterations: int
    config: Optional[SolverConfig] = None
    ergodic_weights: tuple = (0.0, 0.0)


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
        scale=config.step_scale,
    )
    return schedule, agg, fp


def run(
    problem: SaddleProblem,
    config: SolverConfig,
    reference=None,
    f_star: Optional[float] = None,
) -> RunResult:
    """Execute the configured number of iterations with checkpointed metrics.

    Fully deterministic given (seed, stream).  A step failure aborts the run
    but the partial trace is preserved on the raised :class:`SolverError`.
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
    acc = ErgodicAccumulator(
        "uniform" if config.mode == "increasing_batch" else "weighted",
        st.M,
        st.N,
        state.x.data,
        state.y.data,
        schedule,
    )
    trace = ConvergenceTrace()

    def checkpoint():
        if not problem.in_domain(state.x.data, state.y.data, slack=1e-9):
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
    for _ in range(config.max_iters):
        k_pre = state.k
        try:
            rbpda_step(state, problem, schedule, batch, rng)
            acc.update(state.x.data, state.y.data, k_pre)
            if config.restart_enabled and config.mode == "increasing_batch" and config.batch is None:
                restart_if_saturated(state, problem.p, config.restart_threshold, config.eta)
            if state.k % config.checkpoint_every == 0 or state.k == config.max_iters:
                checkpoint()
        except Exception as exc:
            x_bar, y_bar = acc.finalize()
            partial = RunResult(
                x=state.x.data.copy(),
                y=state.y.data.copy(),
                x_bar=x_bar,
                y_bar=y_bar,
                trace=trace,
                grad_budget=state.grad_budget,
                dual_grad_evals=state.dual_grad_evals,
                restarts=state.restarts,
                iterations=state.k,
                config=config,
            )
            if isinstance(exc, SolverError):
                exc.result = partial
                raise
            raise SolverError(f"run aborted at iteration {state.k}: {exc}", partial) from exc
    x_bar, y_bar = acc.finalize()
    return RunResult(
        x=state.x.data.copy(),
        y=state.y.data.copy(),
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
# Deterministic full-gradient baseline (equivalence oracle and reference runs)
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
        return lambda linear, step, base: np.clip(base - step * linear, lo, hi)

    def blockwise(linear, step, base):
        out = np.empty(layout.total_dim)
        for b, spec in enumerate(specs):
            blk = layout.block_range(b)
            out[blk] = prox_step(spec.geometry, spec, linear[blk], step, base[blk])
        return out

    return blockwise


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
    dual_apply = _stacked_prox(problem, 1)
    y_new = dual_apply(-s, sigma, np.asarray(y, dtype=float))
    r = np.asarray(problem.full_grad_x(x, y_new), dtype=float)
    primal_apply = _stacked_prox(problem, 0)
    x_new = primal_apply(r, tau, np.asarray(x, dtype=float))
    return x_new, y_new


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
    """
    x = np.array(problem.start_x if x0 is None else x0, dtype=float)
    y = np.array(problem.start_y if y0 is None else y0, dtype=float)
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
    k = 0
    for k in range(1, iters + 1):
        g_now = np.asarray(problem.full_grad_y(x, y), dtype=float)
        s = 2.0 * g_now - (g_now if g_old is None else g_old)
        g_old = g_now
        y_new = dual_apply(-s, sigma, y)
        x_new = primal_apply(np.asarray(problem.full_grad_x(x, y_new), dtype=float), tau, x)
        budget += problem.p
        move = float(np.linalg.norm(x_new - x) + np.linalg.norm(y_new - y))
        x, y = x_new, y_new
        acc.update(x, y, k - 1)
        if k % checkpoint_every == 0 or k == iters:
            checkpoint(k)
        if plateau_tol > 0:
            scale = 1.0 + float(np.linalg.norm(x) + np.linalg.norm(y))
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

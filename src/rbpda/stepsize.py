"""Block Lipschitz constants, step-size formulas, and the step-size condition validator.

Two step regimes are supported:

* constant steps paired with increasing batch sizes (near-1/K ergodic rate),
* diminishing steps paired with a constant (mini) batch (near-1/sqrt(K) rate),
  driven by the schedule t^k = (k+1)^(-(1+eta)/2), theta^k = ((k+1)/k)^((1+eta)/2).

:class:`StepSchedule` owns a run's regime: its mode, eta, aggregate
constants and free parameters, and the block counts M and N read from the
constants' shapes.  The validator checks, numerically and per block, the
diagonal matrix inequalities that the schedule's step sizes must satisfy for
the convergence guarantees to hold, with the schedule's own constants.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

__all__ = [
    "BlockLipschitz",
    "AggregateConstants",
    "FreeParams",
    "StepSchedule",
    "StepsizeReport",
    "aggregate_constants",
    "default_free_params",
    "constant_stepsizes",
    "schedule_t",
    "schedule_theta",
    "validate_stepsize_condition",
]


@dataclass(frozen=True)
class BlockLipschitz:
    """Coordinate-wise Lipschitz constants of the coupling gradients.

    ``Lxx[l, i]`` bounds the change of the block-i primal partial gradient per
    unit change of primal block l; ``Lxy[i, j]`` per unit change of dual block
    j; ``Lyy`` and ``Lyx`` are the dual-side analogues (rows indexed by the
    differentiated block's side).  All entries must be finite and nonnegative.
    Structural zeros are tolerated; the free-parameter defaults fall back to 1
    whenever an aggregate group vanishes.

    ``Lxx_whole``, when given, bounds the change of the whole primal gradient
    per unit change of the whole primal vector, at any fixed dual point of
    the domain.  The block steps never read it; the whole-vector solvers do,
    through :meth:`primal_whole`.
    """

    Lxx: np.ndarray  # (M, M), entry [l, i]
    Lxy: np.ndarray  # (M, N), entry [i, j]
    Lyy: np.ndarray  # (N, N), entry [l, j]
    Lyx: np.ndarray  # (N, M), entry [j, i]
    Lxx_whole: Optional[float] = None

    def __post_init__(self):
        for name in ("Lxx", "Lxy", "Lyy", "Lyx"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            if np.any(arr < 0):
                raise ValueError(f"{name} has negative entries")
            object.__setattr__(self, name, arr)
        M, N = self.Lxy.shape
        if self.Lxx.shape != (M, M) or self.Lyy.shape != (N, N) or self.Lyx.shape != (N, M):
            raise ValueError("inconsistent Lipschitz matrix shapes")
        if self.Lxx_whole is not None:
            whole = float(self.Lxx_whole)
            if not (math.isfinite(whole) and whole >= 0):
                raise ValueError("Lxx_whole must be finite and nonnegative")
            object.__setattr__(self, "Lxx_whole", whole)

    def primal_whole(self) -> float:
        """A bound on the whole primal gradient's curvature: ``Lxx_whole``, or else ``||Lxx||_2``.

        The spectral norm of the block matrix is always a valid whole-vector
        bound, since ||g(x') - g(x)||^2 = sum_i ||g_i(x') - g_i(x)||^2 and
        each term is at most (sum_l Lxx[l, i] ||x'_l - x_l||)^2.
        """
        if self.Lxx_whole is not None:
            return self.Lxx_whole
        return float(np.linalg.norm(self.Lxx, 2))

    @property
    def M(self) -> int:
        return self.Lxy.shape[0]

    @property
    def N(self) -> int:
        return self.Lxy.shape[1]


@dataclass(frozen=True)
class AggregateConstants:
    """Root-mean-square column aggregates of the block Lipschitz constants."""

    L_yx: np.ndarray  # (M,): rms over dual blocks j of Lyx[j, i]
    C_x: np.ndarray  # (M,): rms over primal blocks l of Lxx[l, i]
    L_xy: np.ndarray  # (N,): rms over primal blocks i of Lxy[i, j]
    C_y: np.ndarray  # (N,): rms over dual blocks l of Lyy[l, j]
    Lxx_diag: np.ndarray  # (M,)
    Lyy_diag: np.ndarray  # (N,)


def aggregate_constants(lip: BlockLipschitz) -> AggregateConstants:
    """RMS column aggregates of the matrices; M and N are their shapes."""
    return AggregateConstants(
        L_yx=np.sqrt(np.mean(lip.Lyx**2, axis=0)),
        C_x=np.sqrt(np.mean(lip.Lxx**2, axis=0)),
        L_xy=np.sqrt(np.mean(lip.Lxy**2, axis=0)),
        C_y=np.sqrt(np.mean(lip.Lyy**2, axis=0)),
        Lxx_diag=np.diag(lip.Lxx).copy(),
        Lyy_diag=np.diag(lip.Lyy).copy(),
    )


@dataclass
class FreeParams:
    """Free design parameters of the step-size formulas.

    ``alpha`` weighs the gradient-noise term per primal block; ``beta`` is
    only used by the diminishing regime (beta_j = 1 + (gamma2/M) * L_xy[j]^2).
    ``delta_bar`` adds slack to every denominator; it must be positive when
    almost-sure-convergence mode is requested and may be 0 in pure rate mode.
    """

    gamma1: float
    gamma2: float
    lambda1: float
    lambda2: float
    alpha: np.ndarray
    beta: Optional[np.ndarray] = None
    delta_bar: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "lambda1", "lambda2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if np.any(self.alpha <= 0):
            raise ValueError("alpha entries must be positive")
        if self.beta is not None:
            self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
            if np.any(self.beta <= 0):
                raise ValueError("beta entries must be positive")
        if self.delta_bar < 0:
            raise ValueError("delta_bar must be nonnegative")


def _safe_ratio(num: float, denom: float) -> float:
    # Degenerate all-zero aggregate groups fall back to 1.
    return num / denom if denom > 0 else 1.0


def default_free_params(agg: AggregateConstants, mode: str = "constant", delta_bar: float = 0.0) -> FreeParams:
    """Default free parameters; ``mode`` is ``"constant"`` or ``"diminishing"``."""
    if mode not in ("constant", "diminishing"):
        raise ValueError(f"unknown step mode: {mode!r}")
    M, N = agg.L_yx.size, agg.L_xy.size
    gamma1 = _safe_ratio(M, float(np.sum(agg.C_x)))
    lambda1 = _safe_ratio(N, float(np.sum(agg.C_y)))
    gamma2 = _safe_ratio(N, float(np.sum(agg.L_xy)))
    lambda2 = _safe_ratio(M, float(np.sum(agg.L_yx)))
    alpha = np.full(M, float(M * N) if mode == "constant" else float(N))
    beta = 1.0 + (gamma2 / M) * agg.L_xy**2
    return FreeParams(gamma1, gamma2, lambda1, lambda2, alpha, beta, delta_bar)


def constant_stepsizes(agg: AggregateConstants, fp: FreeParams) -> tuple[np.ndarray, np.ndarray]:
    """Constant per-block step sizes for the increasing-batch regime."""
    M, N = agg.L_yx.size, agg.L_xy.size
    g1, g2, l1, l2, db = fp.gamma1, fp.gamma2, fp.lambda1, fp.lambda2, fp.delta_bar
    tau_den = (
        agg.Lxx_diag
        + (N - 1) * (1.0 / g1 + g1 * agg.C_x**2)
        + ((M + 1) / M) * (N - 1) / g2
        + N * l2 * agg.L_yx**2
        + (fp.alpha + db) / M
    )
    sigma_den = (
        agg.Lyy_diag
        + M * (1.0 / l1 + 1.0 / l2)
        + M * l1 * agg.C_y**2
        + ((N - 1) / N) * (M + 1) * g2 * agg.L_xy**2
        + db / N
    )
    if np.any(~np.isfinite(tau_den)) or np.any(~np.isfinite(sigma_den)):
        raise ValueError("non-finite step-size denominator")
    return 1.0 / (M * tau_den), 1.0 / (N * sigma_den)


def schedule_t(k: int, eta: float) -> float:
    """Weight t^k = (1/(k+1))^((1+eta)/2), with t^0 = 1; k must be nonnegative."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return (1.0 / (k + 1)) ** (0.5 * (1.0 + eta))


def schedule_theta(k: int, eta: float) -> float:
    """Momentum theta^k = ((k+1)/k)^((1+eta)/2) for k >= 1, theta^0 = 1; k must be nonnegative."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    return ((k + 1) / k) ** (0.5 * (1.0 + eta))


def _diminishing_terms(agg: AggregateConstants, fp: FreeParams):
    """The k-independent terms of each side's diminishing step, in its template's order.

    ``(n, count, inv, diag, *rest, noise)``: ``n`` is the side's block count,
    and the other entries are scalars or per-block arrays.
    """
    M, N = agg.L_yx.size, agg.L_xy.size
    g1, g2, l1, l2, db = fp.gamma1, fp.gamma2, fp.lambda1, fp.lambda2, fp.delta_bar
    tau = (
        M, N - 1, 1.0 / g1 + 1.0 / g2,
        agg.Lxx_diag, N * l2 * agg.L_yx**2, g1 * (N - 1) * agg.C_x**2, ((N - 1) / M) / g2, (fp.alpha + db) / M,
    )
    sigma = (
        N, M, 1.0 / l1 + 1.0 / l2,
        agg.Lyy_diag, M * l1 * agg.C_y**2, (M + 1) * ((N - 1) / N) * g2 * agg.L_xy**2, (fp.beta + db) / N,
    )
    return tau, sigma


def _tau_step(n, count, inv, d, r0, r1, r2, q):
    return lambda th, t, d=d, r0=r0, r1=r1, r2=r2, q=q: 1.0 / (n * (d + count * th * inv + r0 + r1 + r2 + q / t))


def _sigma_step(n, count, inv, d, r0, r1, q):
    return lambda th, t, d=d, r0=r0, r1=r1, q=q: 1.0 / (n * (d + count * th * inv + r0 + r1 + q / t))


def _frozen_copy(obj):
    """A copy of the dataclass ``obj`` with read-only copies of its arrays, which no later write to ``obj`` reaches."""
    out = copy.copy(obj)
    for name, v in vars(obj).items():
        if isinstance(v, np.ndarray):
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(out, name, v)  # also on a frozen dataclass
    return out


def _bind_steps(template, terms):
    """One side's diminishing step bound twice, as ``(vector, gathered)``.

    The template is ``1 / (n * (diag + count*theta*inv + rest... + noise/t))``
    summed left to right, a function of (theta, t) with the terms bound as
    defaults, which a call reads as locals.  ``vector`` is it bound to the
    side's arrays, and ``gathered(blocks)`` to the entries of the blocks in
    ``blocks``: an index array, one entry per entry of the theta and t it is
    then called on, or one block's index.  It uses only +, * and /, which
    numpy computes elementwise and correctly rounded, as Python does on
    floats, so the vector function's entries, its table at columns of theta
    and t, and the gathered function's entries are the same floats bit for
    bit.
    """
    n, count, inv, *arrays = terms
    arrays = [np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in arrays]

    def gathered(blocks):
        return template(n, count, inv, *(v[blocks] for v in arrays))

    return template(*terms), gathered


@dataclass
class StepSchedule:
    """The step regime of a run: per-block step sizes tau_i(k), sigma_j(k) plus theta(k), t(k).

    ``mode`` is ``"constant"`` (theta = t = 1 for all k) or ``"diminishing"``
    (the decay exponent ``eta`` lies in [0, 1), and ``fp.beta`` is set).
    ``M`` and ``N`` are the block counts of ``agg``, set once at
    construction.  The schedule copies ``agg`` and ``fp`` then, with
    read-only arrays: its steps and the validator read the copies, so a
    later write to ``agg`` or ``fp`` changes neither.  A diminishing
    schedule without ``agg`` and ``fp`` gives only theta(k) and t(k), and
    its M and N are None.
    ``tau(k)`` and ``sigma(k)`` return the step vectors, a constant
    schedule's own arrays, read-only.  With a block index,
    ``tau(k, i)`` and ``sigma(k, j)`` return that block's step as a float in
    O(1), bitwise equal to the vector entry.  ``theta(k)`` and ``t(k)`` are
    :func:`schedule_theta` and :func:`schedule_t`.  A run's step plan reads
    the same floats through :meth:`steps_at`, one step at a time or, with
    :meth:`columns`, a chunk of steps at a time.  The fields are read once,
    at construction.
    """

    mode: str
    agg: AggregateConstants = None
    fp: FreeParams = None
    eta: float = 0.0

    def __post_init__(self):
        if self.mode not in ("constant", "diminishing"):
            raise ValueError(f"unknown schedule mode: {self.mode!r}")
        # what the schedule lacks of agg and fp, named by the methods that need them
        self._missing = " and ".join(name for name in ("agg", "fp") if getattr(self, name) is None)
        if self.mode == "constant" and self._missing:
            raise ValueError(f"a constant schedule needs {self._missing}")
        self.M, self.N = (None, None) if self.agg is None else (self.agg.L_yx.size, self.agg.L_xy.size)
        if not self._missing:
            agg, fp = self._agg, self._fp = _frozen_copy(self.agg), _frozen_copy(self.fp)
            if fp.alpha.shape not in ((1,), (self.M,)):
                raise ValueError(f"alpha has shape {fp.alpha.shape}; it needs 1 or M = {self.M} entries")
        if self.mode == "constant":
            self._tau0, self._sigma0 = constant_stepsizes(agg, fp)
            # tau(k) and sigma(k) return these arrays; a write into one would change every later step
            self._tau0.flags.writeable = self._sigma0.flags.writeable = False
        elif not 0 <= self.eta < 1:
            raise ValueError(f"eta must lie in [0, 1), got eta = {self.eta}")
        elif not self._missing:
            if fp.beta is None:
                raise ValueError("diminishing step sizes need FreeParams.beta")
            if fp.beta.shape not in ((1,), (self.N,)):
                raise ValueError(f"beta has shape {fp.beta.shape}; it needs 1 or N = {self.N} entries")
            self._tau_terms, self._sigma_terms = _diminishing_terms(agg, fp)
            self._tau_vec, self._tau_of = _bind_steps(_tau_step, self._tau_terms)
            self._sigma_vec, self._sigma_of = _bind_steps(_sigma_step, self._sigma_terms)
        self._power = 0.5 * (1.0 + self.eta)  # the exponent of schedule_theta and schedule_t

    def columns(self, ks: range) -> tuple[np.ndarray, np.ndarray]:
        """theta^k and t^k over the consecutive ``ks``, as two float arrays with the bits of :meth:`theta` and :meth:`t`.

        Each value is Python's float ``**``, as in :func:`schedule_theta` and
        :func:`schedule_t`: numpy's array ``**`` differs from it in the last
        bit on some values.  A constant schedule gives ones.
        """
        if self.mode == "constant":
            return np.ones(len(ks)), np.ones(len(ks))
        if ks and ks[0] < 0:
            raise ValueError("k must be nonnegative")
        # the bases (k+1)/k and 1/(k+1) are single correctly rounded
        # divisions of exact floats, in numpy as in Python, and pow is **
        k = np.arange(ks.start, ks.stop, dtype=float)
        e = repeat(self._power)
        theta = list(map(pow, ((k + 1.0) / np.maximum(k, 1.0)).tolist(), e))
        if ks and ks[0] == 0:
            theta[0] = 1.0
        return np.array(theta), np.array(list(map(pow, (1.0 / (k + 1.0)).tolist(), e)))

    def steps_at(self, primal_blocks, dual_blocks, theta, t) -> tuple[np.ndarray, np.ndarray]:
        """Each drawn block's step at its iteration: ``(tau, sigma)`` as float arrays.

        ``primal_blocks`` and ``dual_blocks`` are index arrays, and
        ``theta`` and ``t`` arrays of the same length (a constant schedule
        ignores them); entry s of ``tau`` is block ``primal_blocks[s]``'s
        step at (theta[s], t[s]), bit for bit the float of ``tau(k, i)``
        where (theta[s], t[s]) is (theta(k), t(k)) (see :func:`_bind_steps`),
        and likewise ``sigma``.  Two block indices and two floats give the
        two blocks' steps as numpy floats, with the same bits.
        """
        if self.mode == "constant":
            return self._tau0[primal_blocks], self._sigma0[dual_blocks]
        if self._missing:
            raise ValueError(f"steps_at needs a schedule with {self._missing}")
        return self._tau_of(primal_blocks)(theta, t), self._sigma_of(dual_blocks)(theta, t)

    def check_finite(self) -> None:
        """Refuse a diminishing step whose k-independent terms are not finite, before any step takes it.

        An aggregate constant that overflowed raises ``ValueError("non-finite
        step-size denominator")``, as the constant regime does.  A run's step
        plan calls this when it is built.
        """
        if self.mode != "diminishing" or self._missing:
            raise ValueError("check_finite needs a diminishing schedule with constants and free parameters")
        for terms in (self._tau_terms, self._sigma_terms):
            if not all(np.isfinite(v).all() for v in terms):
                raise ValueError("non-finite step-size denominator")

    def tau(self, k: int, i: Optional[int] = None):
        if self.mode == "constant":
            return self._tau0 if i is None else float(self._tau0[i])
        if self._missing:
            raise ValueError(f"tau(k) needs a schedule with {self._missing}")
        th, t = schedule_theta(k, self.eta), schedule_t(k, self.eta)
        return self._tau_vec(th, t) if i is None else float(self._tau_of(i)(th, t))

    def sigma(self, k: int, j: Optional[int] = None):
        if self.mode == "constant":
            return self._sigma0 if j is None else float(self._sigma0[j])
        if self._missing:
            raise ValueError(f"sigma(k) needs a schedule with {self._missing}")
        th, t = schedule_theta(k, self.eta), schedule_t(k, self.eta)
        return self._sigma_vec(th, t) if j is None else float(self._sigma_of(j)(th, t))

    def theta(self, k: int) -> float:
        return 1.0 if self.mode == "constant" else schedule_theta(k, self.eta)

    def t(self, k: int) -> float:
        return 1.0 if self.mode == "constant" else schedule_t(k, self.eta)


@dataclass
class StepsizeReport:
    """Minimum slack of each step-size inequality over blocks and iterations."""

    min_slacks: dict
    tolerance: float = 1e-9

    @property
    def passed(self) -> bool:
        return all(v >= -self.tolerance for v in self.min_slacks.values())

    def worst(self) -> tuple[str, float]:
        key = min(self.min_slacks, key=self.min_slacks.get)
        return key, self.min_slacks[key]


def _m_matrices(schedule: StepSchedule, theta: np.ndarray, tau: np.ndarray, sigma: np.ndarray):
    """M1..M4 with one row per k: ``theta`` is a column over k, ``tau`` and ``sigma`` are the step tables."""
    agg, fp, M, N = schedule._agg, schedule._fp, schedule.M, schedule.N
    m1 = M * theta * (fp.lambda2 * N * agg.L_yx**2 + (N - 1) * fp.gamma1 * agg.C_x**2)
    m2 = M * theta * (fp.gamma2 * (N - 1) * agg.L_xy**2 + fp.lambda1 * N * agg.C_y**2)
    m3 = (
        1.0 / tau
        - M * agg.Lxx_diag
        - M * (N - 1) * theta * (1.0 / fp.gamma1 + 1.0 / fp.gamma2)
        - (N - 1) / fp.gamma2
    )
    m4 = (
        1.0 / sigma
        - N * agg.Lyy_diag
        - M * N * theta * (1.0 / fp.lambda1 + 1.0 / fp.lambda2)
        - fp.gamma2 * (N - 1) * agg.L_xy**2
    )
    return m1, m2, m3, m4


def _chunk_slacks(schedule: StepSchedule, ks: range) -> dict:
    """Each inequality's least slack over the consecutive ``ks``: every k but the last is "now".

    A diminishing schedule's tables are its steps bound to arrays, at the
    columns of (theta^k, t^k) from :meth:`StepSchedule.columns`, so they are
    the floats a run's steps take; a constant schedule's are ``tau(0)`` and
    ``sigma(0)`` broadcast, with theta = t = 1.
    """
    if schedule.mode == "constant":
        theta = t = np.ones((len(ks), 1))
        tau, sigma = (np.broadcast_to(v, (len(ks), v.size)) for v in (schedule._tau0, schedule._sigma0))
    else:
        theta, t = (v[:, None] for v in schedule.columns(ks))
        tau, sigma = schedule._tau_vec(theta, t), schedule._sigma_vec(theta, t)
    m1, m2, m3, m4 = _m_matrices(schedule, theta, tau, sigma)
    fp = schedule._fp
    now, nxt = slice(None, -1), slice(1, None)
    t_k, t_next = t[now], t[nxt]
    b_k = fp.beta / t_k if schedule.mode == "diminishing" else 0.0
    return {
        # t^k (M3^k - A^k) >= t^{k+1} M1^{k+1}
        "primal_lipschitz": np.min(t_k * (m3[now] - fp.alpha / t_k) - t_next * m1[nxt]),
        # t^k (M4^k - B^k) >= t^{k+1} M2^{k+1}
        "dual_lipschitz": np.min(t_k * (m4[now] - b_k) - t_next * m2[nxt]),
        # t^k / tau^k >= t^{k+1} / tau^{k+1}
        "tau_scaled_monotone": np.min(t_k / tau[now] - t_next / tau[nxt]),
        # t^k / sigma^k >= t^{k+1} / sigma^{k+1}
        "sigma_scaled_monotone": np.min(t_k / sigma[now] - t_next / sigma[nxt]),
        # t^k = t^{k+1} theta^{k+1}; 0.0 - |.| keeps an exact match at +0.0
        "t_theta_identity": np.min(0.0 - np.abs(t_k - t_next * theta[nxt])),
        # M1..M4 >= 0
        "m_matrices_psd": np.min([np.min(m[now]) for m in (m1, m2, m3, m4)]),
    }


_K_CHUNK = 256  # most values of k whose rows the validator holds at once


def validate_stepsize_condition(schedule: StepSchedule, k_max: int = 200, tolerance: float = 1e-9) -> StepsizeReport:
    """Numerically check the schedule's per-block step-size inequalities for k in [0, k_max].

    The constants and free parameters are the schedule's own copies, the
    ones its steps were built from.  All matrices
    involved are diagonal by construction, so each semidefinite ordering
    reduces to scalar inequalities per block.  The noise weights are
    A^k = diag(alpha)/t^k and, in diminishing mode, B^k = diag(beta)/t^k
    (B^k = 0 in constant mode).  Violations are reported, not raised.

    t, theta, tau and sigma are tables with one row per k in [0, k_max + 1],
    and each inequality is one array over rows k ("now") and k + 1 ("next").
    The tables are filled 256 values of k at a time, one call of each
    side's step per chunk, and consecutive chunks share a row, so they hold
    O(256 * (M + N)) floats whatever ``k_max``.  A minimum is exact, so
    the slacks do not depend on the chunking, and a NaN slack propagates
    and fails the report.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got k_max = {k_max}")
    if schedule._missing:
        raise ValueError(f"validate_stepsize_condition needs a schedule with {schedule._missing}")
    chunks = (range(k0, min(k0 + _K_CHUNK, k_max + 1) + 1) for k0 in range(0, k_max + 1, _K_CHUNK))
    mins = [_chunk_slacks(schedule, ks) for ks in chunks]
    return StepsizeReport({key: float(np.min([m[key] for m in mins])) for key in mins[0]}, tolerance)

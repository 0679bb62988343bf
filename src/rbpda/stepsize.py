"""Block Lipschitz constants, step-size formulas, and the step-size condition validator.

Two step regimes are supported:

* constant steps paired with increasing batch sizes (near-1/K ergodic rate),
* diminishing steps paired with a constant (mini) batch (near-1/sqrt(K) rate),
  driven by the schedule t^k = (k+1)^(-(1+eta)/2), theta^k = ((k+1)/k)^((1+eta)/2).

The validator checks, numerically and per block, the diagonal matrix
inequalities that the step sizes must satisfy for the convergence guarantees
to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "diminishing_stepsizes",
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
    """

    Lxx: np.ndarray  # (M, M), entry [l, i]
    Lxy: np.ndarray  # (M, N), entry [i, j]
    Lyy: np.ndarray  # (N, N), entry [l, j]
    Lyx: np.ndarray  # (N, M), entry [j, i]

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

    @property
    def M(self) -> int:
        return self.Lxy.shape[0]

    @property
    def N(self) -> int:
        return self.Lxy.shape[1]

    @classmethod
    def broadcast(cls, M: int, N: int, lxx=0.0, lxy=1.0, lyy=0.0, lyx=1.0) -> "BlockLipschitz":
        """Scalar-broadcast constructor, matching the config-file interface."""
        return cls(
            np.full((M, M), float(lxx)),
            np.full((M, N), float(lxy)),
            np.full((N, N), float(lyy)),
            np.full((N, M), float(lyx)),
        )


@dataclass(frozen=True)
class AggregateConstants:
    """Root-mean-square column aggregates of the block Lipschitz constants."""

    L_yx: np.ndarray  # (M,): rms over dual blocks j of Lyx[j, i]
    C_x: np.ndarray  # (M,): rms over primal blocks l of Lxx[l, i]
    L_xy: np.ndarray  # (N,): rms over primal blocks i of Lxy[i, j]
    C_y: np.ndarray  # (N,): rms over dual blocks l of Lyy[l, j]
    Lxx_diag: np.ndarray  # (M,)
    Lyy_diag: np.ndarray  # (N,)


def aggregate_constants(lip: BlockLipschitz, M: int, N: int) -> AggregateConstants:
    """RMS column aggregates; M and N must match the matrices."""
    if (M, N) != (lip.M, lip.N):
        raise ValueError("M, N do not match the Lipschitz matrices")
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


def default_free_params(
    agg: AggregateConstants, M: int, N: int, mode: str = "constant", delta_bar: float = 0.0
) -> FreeParams:
    """Default free parameters; ``mode`` is ``"constant"`` or ``"diminishing"``."""
    if mode not in ("constant", "diminishing"):
        raise ValueError(f"unknown step mode: {mode!r}")
    gamma1 = _safe_ratio(M, float(np.sum(agg.C_x)))
    lambda1 = _safe_ratio(N, float(np.sum(agg.C_y)))
    gamma2 = _safe_ratio(N, float(np.sum(agg.L_xy)))
    lambda2 = _safe_ratio(M, float(np.sum(agg.L_yx)))
    alpha = np.full(M, float(M * N) if mode == "constant" else float(N))
    beta = 1.0 + (gamma2 / M) * agg.L_xy**2
    return FreeParams(gamma1, gamma2, lambda1, lambda2, alpha, beta, delta_bar)


def constant_stepsizes(
    agg: AggregateConstants, fp: FreeParams, M: int, N: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Constant per-block step sizes for the increasing-batch regime.

    ``scale`` in (0, 1] shrinks both families uniformly for extra conservatism.
    """
    if not 0 < scale <= 1:
        raise ValueError("scale must lie in (0, 1]")
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
    return scale / (M * tau_den), scale / (N * sigma_den)


def schedule_t(k: int, eta: float) -> float:
    """Weight t^k = (1/(k+1))^((1+eta)/2), with t^0 = 1."""
    return (1.0 / (k + 1)) ** (0.5 * (1.0 + eta))


def schedule_theta(k: int, eta: float) -> float:
    """Momentum theta^k = ((k+1)/k)^((1+eta)/2) for k >= 1, theta^0 = 1."""
    if k == 0:
        return 1.0
    return ((k + 1) / k) ** (0.5 * (1.0 + eta))


def _check_diminishing(fp: FreeParams, eta: float, scale: float) -> None:
    if not 0 <= eta < 1:
        raise ValueError("eta must lie in [0, 1)")
    if not 0 < scale <= 1:
        raise ValueError("scale must lie in (0, 1]")
    if fp.beta is None:
        raise ValueError("diminishing step sizes need FreeParams.beta")


def _diminishing_terms(agg: AggregateConstants, fp: FreeParams, M: int, N: int):
    """The k-independent parts of the diminishing denominators, one tuple per side.

    Each tuple ``(diag, count, inv, rest, noise)`` is read by
    :func:`_diminishing_denominator`; entries are scalars or per-block arrays.
    """
    g1, g2, l1, l2, db = fp.gamma1, fp.gamma2, fp.lambda1, fp.lambda2, fp.delta_bar
    tau = (
        agg.Lxx_diag,
        N - 1,
        1.0 / g1 + 1.0 / g2,
        (N * l2 * agg.L_yx**2, g1 * (N - 1) * agg.C_x**2, ((N - 1) / M) / g2),
        (fp.alpha + db) / M,
    )
    sigma = (
        agg.Lyy_diag,
        M,
        1.0 / l1 + 1.0 / l2,
        (M * l1 * agg.C_y**2, (M + 1) * ((N - 1) / N) * g2 * agg.L_xy**2),
        (fp.beta + db) / N,
    )
    return tau, sigma


def _diminishing_denominator(terms, th: float, t: float):
    """``diag + count*th*inv + rest[0] + rest[1] + ... + noise/t``, summed left to right.

    The fixed order makes a per-block evaluation on floats bitwise equal to
    the same entry of the whole-vector evaluation on arrays.
    """
    diag, count, inv, rest, noise = terms
    den = diag + count * th * inv
    for term in rest:
        den = den + term
    return den + noise / t


def _block_terms(terms, n_blocks: int) -> list:
    """Per-block float copies of one side's terms, for O(1) single-step lookups."""
    diag, count, inv, rest, noise = terms
    cols = [np.broadcast_to(np.asarray(v, dtype=float), (n_blocks,)).tolist() for v in (diag, *rest, noise)]
    return [(row[0], count, inv, row[1:-1], row[-1]) for row in zip(*cols)]


def diminishing_stepsizes(
    agg: AggregateConstants,
    fp: FreeParams,
    M: int,
    N: int,
    eta: float,
    k: int,
    scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Per-iteration step sizes for the constant-batch regime at iteration k."""
    _check_diminishing(fp, eta, scale)
    if k < 0:
        raise ValueError("k must be nonnegative")
    th = schedule_theta(k, eta)
    t = schedule_t(k, eta)
    tau_terms, sigma_terms = _diminishing_terms(agg, fp, M, N)
    tau_den = _diminishing_denominator(tau_terms, th, t)
    sigma_den = _diminishing_denominator(sigma_terms, th, t)
    return scale / (M * tau_den), scale / (N * sigma_den), th, t


@dataclass
class StepSchedule:
    """Evaluable per-block step sizes tau_i(k), sigma_j(k) plus theta(k), t(k).

    ``mode`` is ``"constant"`` (theta = t = 1 for all k) or ``"diminishing"``.
    ``tau(k)`` and ``sigma(k)`` return the step vectors.  With a block index,
    ``tau(k, i)`` and ``sigma(k, j)`` return that block's step as a float in
    O(1), bitwise equal to the vector entry; this is the solver's path.  The
    fields are read once, at construction.
    """

    mode: str
    M: int
    N: int
    agg: AggregateConstants = None
    fp: FreeParams = None
    eta: float = 0.0
    scale: float = 1.0
    _tau0: np.ndarray = field(default=None, repr=False)
    _sigma0: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("constant", "diminishing"):
            raise ValueError(f"unknown schedule mode: {self.mode!r}")
        if self.mode == "constant":
            self._tau0, self._sigma0 = constant_stepsizes(
                self.agg, self.fp, self.M, self.N, self.scale
            )
        elif self.agg is not None and self.fp is not None:
            _check_diminishing(self.fp, self.eta, self.scale)
            self._tau_terms, self._sigma_terms = _diminishing_terms(self.agg, self.fp, self.M, self.N)
            self._tau_blocks = _block_terms(self._tau_terms, self.M)
            self._sigma_blocks = _block_terms(self._sigma_terms, self.N)
        self._k = None  # iteration whose (theta, t) pair is cached in _theta_t

    def _weights(self, k: int) -> tuple[float, float]:
        """(theta^k, t^k), computed once per k."""
        if k != self._k:
            if k < 0:
                raise ValueError("k must be nonnegative")
            self._theta_t = (schedule_theta(k, self.eta), schedule_t(k, self.eta))
            self._k = k
        return self._theta_t

    def tau(self, k: int, i: Optional[int] = None):
        if self.mode == "constant":
            return self._tau0 if i is None else float(self._tau0[i])
        th, t = self._weights(k)
        terms = self._tau_terms if i is None else self._tau_blocks[i]
        return self.scale / (self.M * _diminishing_denominator(terms, th, t))

    def sigma(self, k: int, j: Optional[int] = None):
        if self.mode == "constant":
            return self._sigma0 if j is None else float(self._sigma0[j])
        th, t = self._weights(k)
        terms = self._sigma_terms if j is None else self._sigma_blocks[j]
        return self.scale / (self.N * _diminishing_denominator(terms, th, t))

    def theta(self, k: int) -> float:
        return 1.0 if self.mode == "constant" else self._weights(k)[0]

    def t(self, k: int) -> float:
        return 1.0 if self.mode == "constant" else self._weights(k)[1]


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


def _m_matrices(schedule: StepSchedule, agg: AggregateConstants, fp: FreeParams, M, N, k):
    th = schedule.theta(k)
    tau = schedule.tau(k)
    sigma = schedule.sigma(k)
    m1 = M * th * (fp.lambda2 * N * agg.L_yx**2 + (N - 1) * fp.gamma1 * agg.C_x**2)
    m2 = M * th * (fp.gamma2 * (N - 1) * agg.L_xy**2 + fp.lambda1 * N * agg.C_y**2)
    m3 = (
        1.0 / tau
        - M * agg.Lxx_diag
        - M * (N - 1) * th * (1.0 / fp.gamma1 + 1.0 / fp.gamma2)
        - (N - 1) / fp.gamma2
    )
    m4 = (
        1.0 / sigma
        - N * agg.Lyy_diag
        - M * N * th * (1.0 / fp.lambda1 + 1.0 / fp.lambda2)
        - fp.gamma2 * (N - 1) * agg.L_xy**2
    )
    return m1, m2, m3, m4


def validate_stepsize_condition(
    schedule: StepSchedule,
    agg: AggregateConstants,
    fp: FreeParams,
    M: int,
    N: int,
    k_max: int = 200,
    tolerance: float = 1e-9,
) -> StepsizeReport:
    """Numerically check the per-block step-size inequalities for k in [0, k_max].

    All matrices involved are diagonal by construction, so each semidefinite
    ordering reduces to scalar inequalities per block.  The noise weights are
    A^k = diag(alpha)/t^k and, in diminishing mode, B^k = diag(beta)/t^k
    (B^k = 0 in constant mode).  Violations are reported, not raised.
    """
    slacks = {
        "primal_lipschitz": np.inf,  # t^k (M3^k - A^k) >= t^{k+1} M1^{k+1}
        "dual_lipschitz": np.inf,  # t^k (M4^k - B^k) >= t^{k+1} M2^{k+1}
        "tau_scaled_monotone": np.inf,  # t^k / tau^k >= t^{k+1} / tau^{k+1}
        "sigma_scaled_monotone": np.inf,  # t^k / sigma^k >= t^{k+1} / sigma^{k+1}
        "t_theta_identity": 0.0,  # t^k = t^{k+1} theta^{k+1}
        "m_matrices_psd": np.inf,  # M1..M4 >= 0
    }
    diminishing = schedule.mode == "diminishing"
    for k in range(k_max + 1):
        t_k, t_next = schedule.t(k), schedule.t(k + 1)
        m1_k, m2_k, m3_k, m4_k = _m_matrices(schedule, agg, fp, M, N, k)
        m1_next, m2_next, _, _ = _m_matrices(schedule, agg, fp, M, N, k + 1)
        a_k = fp.alpha / t_k
        b_k = (fp.beta / t_k) if (diminishing and fp.beta is not None) else 0.0
        slacks["primal_lipschitz"] = min(
            slacks["primal_lipschitz"], float(np.min(t_k * (m3_k - a_k) - t_next * m1_next))
        )
        slacks["dual_lipschitz"] = min(
            slacks["dual_lipschitz"], float(np.min(t_k * (m4_k - b_k) - t_next * m2_next))
        )
        slacks["tau_scaled_monotone"] = min(
            slacks["tau_scaled_monotone"],
            float(np.min(t_k / schedule.tau(k) - t_next / schedule.tau(k + 1))),
        )
        slacks["sigma_scaled_monotone"] = min(
            slacks["sigma_scaled_monotone"],
            float(np.min(t_k / schedule.sigma(k) - t_next / schedule.sigma(k + 1))),
        )
        slacks["t_theta_identity"] = min(
            slacks["t_theta_identity"], -abs(t_k - t_next * schedule.theta(k + 1))
        )
        slacks["m_matrices_psd"] = min(
            slacks["m_matrices_psd"],
            float(min(np.min(m1_k), np.min(m2_k), np.min(m3_k), np.min(m4_k))),
        )
    return StepsizeReport(slacks, tolerance)

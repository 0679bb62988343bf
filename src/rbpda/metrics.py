"""Gap functions, constrained-problem metrics, convergence traces, and rate fits.

The primary convergence measure is the Lagrangian gap
G0(z_bar, z) = L(x_bar, y) - L(x, y_bar) evaluated against a reference point
(zero at a saddle point referenced there, nonnegative when the reference is an
exact saddle).  A candidate-based lower bound of the sup-gap sup_z G0 is also
provided, using sign-corner and vertex best responses on box and simplex
blocks, and a Frank-Wolfe upper bound on it built from the same best
responses.  Expected metrics are estimated by averaging over independent seeded
runs at the experiment layer.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "TraceRow",
    "ConvergenceTrace",
    "RateFit",
    "lagrangian_gap",
    "sup_gap",
    "certified_gap",
    "best_response_candidates",
    "constrained_metrics",
    "fit_rate",
    "evaluate_checkpoint",
    "estimate_component_noise",
]

TRACE_COLUMNS = ("k", "grad_budget", "gap_ref", "sup_gap", "dist_ref", "subopt", "infeas")


@dataclass
class TraceRow:
    """One checkpoint; metric entries may be missing (None)."""

    k: int
    grad_budget: int
    gap_ref: Optional[float] = None
    sup_gap: Optional[float] = None
    dist_ref: Optional[float] = None
    subopt: Optional[float] = None
    infeas: Optional[float] = None


@dataclass
class ConvergenceTrace:
    rows: list = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if self.rows:
            last = self.rows[-1]
            if row.k <= last.k:
                raise ValueError("checkpoint iterations must be strictly increasing")
            if row.grad_budget < last.grad_budget:
                raise ValueError("gradient budget must be nondecreasing")
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        vals = [getattr(r, name) for r in self.rows]
        return np.array([np.nan if v is None else float(v) for v in vals])

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for r in self.rows:
                writer.writerow(
                    [
                        r.k,
                        r.grad_budget,
                        *("" if getattr(r, c) is None else repr(float(getattr(r, c))) for c in TRACE_COLUMNS[2:]),
                    ]
                )

    @classmethod
    def from_csv(cls, path) -> "ConvergenceTrace":
        trace = cls()
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != TRACE_COLUMNS:
                raise ValueError(f"unexpected trace header: {header}")
            for line in reader:
                vals = [None if v == "" else float(v) for v in line[2:]]
                trace.append(TraceRow(int(line[0]), int(float(line[1])), *vals))
        return trace


def lagrangian_gap(problem, z_bar, z_ref) -> Optional[float]:
    """L(x_bar, y_ref) - L(x_ref, y_bar); None when function values are unavailable."""
    x_bar, y_bar = z_bar
    x_ref, y_ref = z_ref
    left = problem.lagrangian(x_bar, y_ref)
    right = problem.lagrangian(x_ref, y_bar)
    if left is None or right is None:
        return None
    return float(left - right)


def _side_oracle(problem, side: int, z):
    """(gradient, best response) of side 0 (primal) or 1 (dual) at z.

    None unless every block of the side is a box or a simplex
    (:attr:`~rbpda.blocks.Side.responds`).
    """
    s = problem.sides[side]
    if not s.responds:
        return None  # unbounded or uninformative domain: no automatic candidate
    g = np.asarray((problem.full_grad_y if side else problem.full_grad_x)(*z), dtype=float)
    return g, s.best_response(g, maximize=bool(side))


def best_response_candidates(problem, z_bar):
    """(x_br, y_br) linearized best responses at z_bar, or None per side.

    y_br maximizes the linearization of L(x_bar, .) blockwise; x_br minimizes
    the linearization of L(., y_bar).  Each side takes one full gradient
    (``full_grad_x``, ``full_grad_y``) and its side's
    :meth:`~rbpda.blocks.Side.best_response`; a side with a
    block that is neither a box nor a simplex computes none.  For bilinear
    couplings these are exact best responses; in general they only produce
    feasible candidates, so the resulting sup-gap estimate is a lower bound.
    """
    sides = [_side_oracle(problem, side, z_bar) for side in (0, 1)]
    return tuple(None if oracle is None else oracle[1] for oracle in sides)


def certified_gap(problem, z) -> Optional[float]:
    """Frank-Wolfe upper bound on the saddle gap at z = (x, y); None when unavailable.

    With g_x, g_y the full gradients of L at z and x_br, y_br the linearized
    best responses of :func:`best_response_candidates`, the bound is
    <g_x, x - x_br> + <g_y, y_br - y>.  For a convex-concave L (every
    built-in) the linearizations bound L(., y) from below and L(x, .) from
    above, so the bound is at least max_y' L(x, y') - min_x' L(x', y), the
    true gap, which in turn is at least :func:`sup_gap` (Jaggi, ICML 2013).
    It is zero at a saddle point.  It costs one ``full_grad_x`` and one
    ``full_grad_y`` call, and is None when a side has a block that is
    neither a box nor a simplex.
    """
    x, y = (np.asarray(v, dtype=float) for v in z)
    primal = _side_oracle(problem, 0, (x, y))
    dual = None if primal is None else _side_oracle(problem, 1, (x, y))
    if dual is None:
        return None
    (g_x, x_br), (g_y, y_br) = primal, dual
    return float(g_x @ (x - x_br) + g_y @ (y_br - y))


def sup_gap(problem, z_bar, candidates: Sequence, auto_best_response: bool = True) -> Optional[float]:
    """max over candidate points of the Lagrangian gap; a lower bound on sup_z G0.

    The gap separates, so the maximum is max_y L(x_bar, y) - min_x L(x, y_bar)
    over the candidate x- and y-parts.  Vertex/corner best responses are added
    automatically for simplex and box blocks, and the evaluated pair itself is
    always a candidate (its own gap is zero, so the estimate is nonnegative).
    """
    x_bar, y_bar = z_bar
    xs = [np.asarray(z[0], dtype=float) for z in candidates]
    ys = [np.asarray(z[1], dtype=float) for z in candidates]
    xs.append(np.asarray(x_bar, dtype=float))
    ys.append(np.asarray(y_bar, dtype=float))
    if auto_best_response:
        x_br, y_br = best_response_candidates(problem, z_bar)
        if x_br is not None:
            xs.append(x_br)
        if y_br is not None:
            ys.append(y_br)
    if not xs or not ys:
        return None
    uppers = [problem.lagrangian(x_bar, y) for y in ys]
    lowers = [problem.lagrangian(x, y_bar) for x in xs]
    if any(v is None for v in uppers) or any(v is None for v in lowers):
        return None
    return float(max(uppers) - min(lowers))


def constrained_metrics(problem, x_bar, f_star: float) -> tuple[float, float]:
    """(|objective - f_star|, worst positive constraint violation) at x_bar."""
    objective = problem.notes.get("objective")
    constraints = problem.notes.get("constraints")
    if objective is None or constraints is None:
        raise ValueError("problem does not expose objective/constraints hooks")
    viol = np.asarray(constraints(x_bar), dtype=float)
    infeas = float(np.max(viol, initial=0.0))
    return abs(float(objective(x_bar)) - float(f_star)), max(infeas, 0.0)


@dataclass
class RateFit:
    """Least-squares slope of log(gap) against log(k) over a window."""

    slope: float
    intercept: float
    window: tuple
    r_squared: float
    n_points: int


def fit_rate(points, window: tuple) -> Optional[RateFit]:
    """Fit the empirical convergence rate on the (k, gap) pairs inside the window.

    Nonpositive or missing gaps are excluded; fewer than 5 surviving
    checkpoints leaves the fit unavailable (None).
    """
    ks = np.asarray([r[0] for r in points], dtype=float)
    gaps = np.asarray([r[1] for r in points], dtype=float)
    lo, hi = window
    keep = (ks >= lo) & (ks <= hi) & np.isfinite(gaps) & (gaps > 0) & (ks > 0)
    if keep.sum() < 5:
        return None
    lx = np.log(ks[keep])
    ly = np.log(gaps[keep])
    design = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    total = ly - ly.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(coef[0]), float(coef[1]), (lo, hi), r2, int(keep.sum()))


def evaluate_checkpoint(
    problem,
    k: int,
    grad_budget: int,
    x_bar,
    y_bar,
    reference=None,
    f_star: Optional[float] = None,
    auto_best_response: bool = True,
) -> TraceRow:
    """Assemble one trace row; metrics without the needed inputs stay missing."""
    row = TraceRow(k=k, grad_budget=grad_budget)
    z_bar = (np.asarray(x_bar, dtype=float), np.asarray(y_bar, dtype=float))
    if reference is not None:
        ref = (np.asarray(reference[0], dtype=float), np.asarray(reference[1], dtype=float))
        row.gap_ref = lagrangian_gap(problem, z_bar, ref)
        row.dist_ref = float(
            math.sqrt(
                np.sum((z_bar[0] - ref[0]) ** 2) + np.sum((z_bar[1] - ref[1]) ** 2)
            )
        )
    if auto_best_response:
        row.sup_gap = sup_gap(problem, z_bar, [] if reference is None else [ref])
    if f_star is not None and "objective" in problem.notes:
        row.subopt, row.infeas = constrained_metrics(problem, z_bar[0], f_star)
    return row


def estimate_component_noise(problem, rng, n_points: int = 3) -> float:
    """Empirical gradient-noise level: the largest per-block sample standard
    deviation of component partial gradients over random domain probes."""
    from .blocks import _probe_points

    worst = 0.0
    for x, y in _probe_points(problem, rng, n_points):
        for i in range(problem.structure.M):
            grads = np.stack(
                [np.asarray(problem.component_grad_x(l, i, x, y)) for l in range(problem.p)]
            )
            mean = grads.mean(axis=0)
            dev = np.linalg.norm(grads - mean, axis=1)
            worst = max(worst, float(np.sqrt(np.mean(dev**2))))
    return worst

"""Built-in benchmark problems with analytically derived block Lipschitz constants.

Three families:

* robust empirical risk minimization: a box-constrained classifier against a
  worst-case reweighting of per-datum logistic losses (the inner maximization
  runs over the probability simplex, or over per-coordinate [0, 1] boxes when
  the dual is split into more than one block, since the simplex does not
  separate across blocks — the substitution is recorded in the problem notes);
* two-person zero-sum matrix games over simplices (with an exact small-scale
  equilibrium oracle) and their box-relaxed variant with an interior saddle;
* convex quadratic programs with affine inequality constraints, rewritten as
  saddle problems via Lagrangian duality, with an active-set reference oracle.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockStructure, ProxSpec, SaddleProblem
from .bregman import EUCLIDEAN, NEGATIVE_ENTROPY
from .sampling import make_rng
from .stepsize import BlockLipschitz

__all__ = [
    "RobustErmDataset",
    "MatrixGameSpec",
    "ConstrainedSpec",
    "generate_robust_erm",
    "robust_erm_problem",
    "save_robust_erm_csv",
    "load_robust_erm_csv",
    "matrix_game_problem",
    "box_game_problem",
    "game_saddle_oracle",
    "constrained_qp_problem",
    "qp_reference",
]


def _sigmoid(z):
    # exp(-|z|) lies in [0, 1], so neither branch overflows; each branch is
    # the usual one-sided form for its sign of z, 1 / (1 + e) or e / (1 + e),
    # as one divide of the selected numerator.  That numerator is
    # exp(min(z, 0)): exp(0) = 1 where z >= 0, and exp(z) = e elsewhere,
    # since -|z| is z there; an exp costs less than a comparison and a select.
    z = np.asarray(z, dtype=float)
    e = np.abs(z, out=np.empty_like(z))  # an array also for 0-d z, so it is written in place
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.exp(np.minimum(z, 0.0))
    np.add(e, 1.0, out=e)
    return np.divide(num, e, out=e)


_exp = np.exp  # bound once: on a scalar, the attribute lookup is a measurable share of the call


def _sigmoid1(u: float) -> float:
    """The scalar form of :func:`_sigmoid`, on a Python float.

    numpy's exp rather than libm's, so each value equals the array form bit
    for bit: libm differs in the last bit on ~2% of inputs, which a long run
    amplifies past 1e-12.
    """
    e = float(_exp(-abs(u)))
    return 1.0 / (1.0 + e) if u >= 0 else e / (1.0 + e)


def _logaddexp0(u: float) -> float:
    """log(1 + exp(u)) on a Python float, the scalar form of ``np.logaddexp(0.0, u)``."""
    if u > 0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))


def _weighted_y(points, weights) -> np.ndarray:
    """sum_k weights[k] * y_k over the ``(x_k, y_k)`` points, as a new array.

    The estimators of the problems that are linear in y take one product
    with it; a single point of weight 1 gives y itself.
    """
    total = None
    for (_, y), w in zip(points, weights):
        total = w * y if total is None else total + w * y
    return total


# ---------------------------------------------------------------------------
# Robust empirical risk minimization
# ---------------------------------------------------------------------------


@dataclass
class RobustErmDataset:
    """Synthetic classification data with a planted classifier and flipped labels."""

    A: np.ndarray
    b: np.ndarray
    x_true: np.ndarray
    flip_prob: float
    seed: Optional[int] = None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]


def generate_robust_erm(rng, n: int, m: int, flip_prob: float = 0.1) -> RobustErmDataset:
    """Standard-normal features, labels sign(A x_true) with i.i.d. sign flips."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if not 0 <= flip_prob <= 1:
        raise ValueError("flip_prob must lie in [0, 1]")
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = make_rng(seed)
    A = rng.standard_normal((n, m))
    x_true = rng.standard_normal(m)
    b = np.where(A @ x_true >= 0, 1.0, -1.0)
    flips = rng.random(n) < flip_prob
    b[flips] *= -1.0
    return RobustErmDataset(A=A, b=b, x_true=x_true, flip_prob=float(flip_prob), seed=seed)


def save_robust_erm_csv(data: RobustErmDataset, path) -> None:
    """Layout: header row ``n, m, seed, flip_prob``; then A rows; then the b row."""
    with open(path, "w", encoding="utf-8") as fh:
        seed = data.seed if data.seed is not None else -1
        fh.write(f"{data.n},{data.m},{seed},{data.flip_prob}\n")
        np.savetxt(fh, data.A, delimiter=",", fmt="%.17g")
        fh.write(",".join(f"{v:g}" for v in data.b) + "\n")


def load_robust_erm_csv(path) -> RobustErmDataset:
    with open(path, "r", encoding="utf-8") as fh:
        n, m, seed, flip_prob = fh.readline().strip().split(",")
        n, m, seed = int(n), int(m), int(seed)
        A = np.loadtxt(fh, delimiter=",", max_rows=n).reshape(n, m)
        b = np.loadtxt(io.StringIO(fh.readline()), delimiter=",").reshape(n)
    return RobustErmDataset(
        A=A, b=b, x_true=np.zeros(m), flip_prob=float(flip_prob), seed=None if seed < 0 else seed
    )


def _erm_lipschitz(A: np.ndarray, m_blocks: int, n_blocks: int, entropy: bool) -> BlockLipschitz:
    # The primal Hessian block [l, i] is A_l' D A_i, where A_i holds the
    # columns of primal block i and D = diag(y_r * s_r) with logistic
    # curvature s_r <= 1/4.
    n, m = A.shape
    nb, mb = n // n_blocks, m // m_blocks
    blocks = A.reshape(n, m_blocks, mb)
    anorm = np.linalg.norm(blocks, axis=2)  # anorm[r, i] = ||row r on primal block i||
    if entropy:
        # On the simplex the dual weights sum to one, so the worst pairwise
        # curvature is attained at a single component.
        Lxx = 0.25 * np.max(anorm[:, :, None] * anorm[:, None, :], axis=0)
        # Single simplex block under the l1 norm: the operator bound is the max.
        Lxy = np.max(anorm, axis=0)[:, None]
        Lyx = Lxy.T.copy()
        # whole vector: for a unit u, u' A' D A u = sum_r y_r s_r (a_r' u)^2,
        # at most max_r ||a_r||^2 / 4 since the weights sum to one
        whole = 0.25 * float(np.max(np.sum(anorm**2, axis=1)))
    else:
        # In the [0, 1] boxes each weight is at most one (the weights may sum
        # to n), so D <= 1/4 and ||A_l' D A_i|| <= ||A_l|| ||A_i|| / 4.
        col = np.array([np.linalg.norm(blocks[:, i, :], 2) for i in range(m_blocks)])
        Lxx = 0.25 * np.outer(col, col)
        grouped = anorm.reshape(n_blocks, nb, m_blocks)
        Lyx = np.sqrt(np.sum(grouped**2, axis=1))  # (n_blocks, m_blocks)
        Lxy = Lyx.T.copy()
        # whole vector: ||A' D A|| <= ||A||_2^2 / 4, the largest eigenvalue of
        # the smaller Gram matrix, which costs less than an SVD of A
        gram = A @ A.T if n <= m else A.T @ A
        whole = 0.25 * float(np.linalg.eigvalsh(gram)[-1])
    Lyy = np.zeros((n_blocks, n_blocks))
    return BlockLipschitz(Lxx=Lxx, Lxy=Lxy, Lyy=Lyy, Lyx=Lyx, Lxx_whole=whole)


class ErmMargins:
    """Per-run cache of the robust-ERM margins ``z = A x^k`` and ``z_prev = A x^(k-1)``.

    Built over the run's primal buffers ``x`` and ``x_prev``, and synced.
    The ERM oracles read ``z`` for the array ``x`` and ``z_prev`` for
    ``x_prev``, found by identity (:meth:`margins`); for any other array
    they compute the rows they read.  A move of primal block i costs one
    ``(n, mb)`` product with a column block of A, read in place through
    a strided view built once.  Every
    ``period`` moves, ``period`` being the number of primal blocks, ``z``
    is recomputed as ``A @ x``: that refresh costs as much as ``period``
    moves together, and it bounds the rounding drift of the rank-block
    updates whatever the run length.  The problem's factory builds one only
    for runs whose largest batch makes it pay.

    :meth:`slopes` gives ``slope(z)`` or ``slope(z_prev)``, the primal
    estimator's per-row factor, computed on first use after the margins
    change; a move hands the slopes of x^k on to x^(k-1) with the margins,
    so each step computes them for x^k alone.
    """

    def __init__(self, A: np.ndarray, m_blocks: int, x: np.ndarray, x_prev: np.ndarray, slope):
        n, m = A.shape
        mb = m // m_blocks
        self.A = A
        self.columns = [A[:, i * mb : (i + 1) * mb] for i in range(m_blocks)]  # each primal block's columns
        self.period = m_blocks
        self.x, self.x_prev = x, x_prev
        self.z, self.z_prev = np.empty(n), np.empty(n)
        self.slope = slope
        self.syncs = 0
        self.sync()

    def margins(self, x) -> Optional[np.ndarray]:
        """The cached margins of the buffer ``x``; None for any other array."""
        if x is self.x:
            return self.z
        if x is self.x_prev:
            return self.z_prev
        return None

    def slopes(self, x) -> Optional[np.ndarray]:
        """``slope`` of the cached margins of the buffer ``x``; None where :meth:`margins` is."""
        if x is self.x:
            if self.s is None:
                self.s = self.slope(self.z)
            return self.s
        if x is self.x_prev:
            if self.s_prev is None:
                self.s_prev = self.slope(self.z_prev)
            return self.s_prev
        return None

    def sync(self) -> None:
        """Recompute ``z`` and ``z_prev`` exactly."""
        np.matmul(self.A, self.x, out=self.z)
        if self.x_prev is self.x:
            np.copyto(self.z_prev, self.z)
        else:
            np.matmul(self.A, self.x_prev, out=self.z_prev)
        self.s = self.s_prev = None
        self.moves = 0  # since the last exact product
        self.syncs += 1

    def move(self, i: int, dx: np.ndarray) -> None:
        """x_prev took the old x and block i of x moved by dx: shift both margins."""
        self.z_prev, self.z = self.z, self.z_prev  # z_prev takes the old z
        self.s_prev, self.s = self.s, None
        self.moves += 1
        if self.moves == self.period:
            np.matmul(self.A, self.x, out=self.z)
            self.moves = 0
        else:
            np.add(self.z_prev, self.columns[i] @ dx, out=self.z)


_INDEX = np.dtype(int)  # the dtype of a run's drawn index arrays


def robust_erm_problem(
    data: RobustErmDataset,
    radius: float = 10.0,
    m_blocks: int = 1,
    n_blocks: Optional[int] = None,
) -> SaddleProblem:
    """Worst-case-weighted logistic regression as a saddle problem.

    One coupling component per datum (p = n).  The primal sits in the box
    ||x||_inf <= radius split across ``m_blocks``; the dual weight vector uses
    a single entropy-geometry simplex block when ``n_blocks == 1`` and
    per-coordinate [0, 1] boxes otherwise (recorded in ``notes``).

    ``grad_y`` on a block of several rows (the whole simplex at N = 1)
    allocates one new ``(len(points), nb)`` array per call, since the solver
    keeps a row of it, and writes each point's ``-b z`` and then the losses
    ``logaddexp(0, -b z)`` into it in place; the margins z are the coupling
    cache's, or the block's rows of A times x.

    The primal-primal constants depend on the dual domain.  On the simplex
    the weights sum to one, so ``Lxx[l, i] = max_r ||a_{r,l}|| ||a_{r,i}|| / 4``
    over the rows r.  In the boxes each weight is at most one but the weights
    may sum to n, so ``Lxx[l, i] = ||A_l||_2 ||A_i||_2 / 4`` with ``A_i`` the
    column block of primal block i.  ``Lxx_whole`` is the whole-vector
    bound, ``max_r ||a_r||^2 / 4`` on the simplex and ``||A||_2^2 / 4`` in
    the boxes; only the whole-vector solvers read it.

    ``A`` and ``b`` must be finite, and ``A``'s entries small enough that
    its squared norms are; otherwise ValueError names the array.  A
    negative or NaN ``radius`` is refused by name.
    """
    A, b = data.A, data.b
    n, m = A.shape
    p = n
    if not radius >= 0:  # also rejects NaN
        raise ValueError(f"radius must be nonnegative, got radius = {radius}")
    if n_blocks is None:
        n_blocks = n
    if m_blocks < 1 or m % m_blocks != 0:
        raise ValueError(f"m_blocks={m_blocks} is below 1 or does not divide m={m}")
    if n_blocks < 1 or n % n_blocks != 0:
        raise ValueError(f"n_blocks={n_blocks} is below 1 or does not divide n={n}")
    mb, nb = m // m_blocks, n // n_blocks
    entropy = n_blocks == 1
    a_max = float(np.abs(A).max())  # NaN if an entry is NaN
    for name, finite in (("A", math.isfinite(a_max)), ("b", np.isfinite(b).all())):
        if not finite:
            raise ValueError(f"robust_erm_problem needs finite data: {name} has non-finite entries")
    if not math.isfinite(a_max * a_max * n * m):  # bounds the Gram matrix's eigenvalues
        raise ValueError(f"robust_erm_problem needs A's squared norms to be finite: A has an entry of {a_max:.3g}")

    structure = BlockStructure.from_dims([mb] * m_blocks, [nb] * n_blocks)
    # equal blocks share one (immutable) spec, and a step plan one kernel for it
    primal_prox = [ProxSpec.box(-radius * np.ones(mb), radius * np.ones(mb))] * m_blocks
    if entropy:
        dual_prox = [ProxSpec.simplex(geometry=NEGATIVE_ENTROPY)]
    else:
        dual_prox = [ProxSpec.box(np.zeros(nb), np.ones(nb))] * n_blocks

    lip = _erm_lipschitz(A, m_blocks, n_blocks, entropy)

    def margins(x, cache, rows=slice(None)):
        z = None if cache is None else cache.margins(x)
        return A[rows] @ x if z is None else z[rows]

    neg_b = -b
    neg_b_list = neg_b.tolist()
    all_rows = np.arange(n)
    cols = [slice(i * mb, (i + 1) * mb) for i in range(m_blocks)]  # each primal block's columns
    # each dual block's rows and their -b, built once
    dual_rows = [(rows, neg_b[rows]) for rows in (slice(j * nb, (j + 1) * nb) for j in range(n_blocks))]
    row_views = list(A)  # built once: a list index costs less than A[l]

    def slope(z, rows=slice(None)):
        # d/dx log(1 + exp(-b a'x)) = -b * sigmoid(-b a'x) * a: the factor of
        # each row's a at its margin z = a'x, for the given rows
        neg_b_rows = neg_b[rows]
        return neg_b_rows * _sigmoid(neg_b_rows * z)

    def component_grad_x(l, i, x, y):
        a = A[l]
        nbl = neg_b_list[l]
        t = nbl * _sigmoid1(nbl * float(a.dot(x)))
        return (p * float(y[l]) * t) * a[i * mb : (i + 1) * mb]

    def one_row_grad_x(l, i, points, weights, cache):
        # batch size 1 as (coef, row block of a_l), coef in Python floats: one
        # margin and sigmoid per distinct primal array, and the points' terms
        # summed in order from 0.0
        a, nbl = row_views[l], neg_b_list[l]
        if len(points) == 3 and points[1][0] is points[0][0]:
            # the step's three points, of which the first two share x^k; the
            # sigmoids are _sigmoid1's, written out
            (x, y0), (_, y1), (x2, y2) = points
            w0, w1, w2 = weights
            u = nbl * float(a.dot(x) if cache is None or (z := cache.margins(x)) is None else z[l])
            e = float(_exp(-abs(u)))
            t = nbl * (1.0 / (1.0 + e) if u >= 0 else e / (1.0 + e))
            if x2 is x:
                t2 = t
            else:
                u = nbl * float(a.dot(x2) if cache is None or (z := cache.margins(x2)) is None else z[l])
                e = float(_exp(-abs(u)))
                t2 = nbl * (1.0 / (1.0 + e) if u >= 0 else e / (1.0 + e))
            coef = 0.0 + w0 * p * y0.item(l) * t + w1 * p * y1.item(l) * t + w2 * p * y2.item(l) * t2
            return coef, a[cols[i]]
        coef, x_seen = 0.0, None
        for (x, y), w in zip(points, weights):
            if x is not x_seen:
                x_seen = x
                u = a.dot(x) if cache is None or (z := cache.margins(x)) is None else z[l]
                t = nbl * _sigmoid1(nbl * float(u))
            coef += w * p * y.item(l) * t
        return coef, a[cols[i]]

    def batch_grad_x(indices, i, points, weights, cache=None):
        # a run's drawn indices are used as they are, without the asarray call
        if type(indices) is np.ndarray and indices.dtype is _INDEX:
            rows = indices
        else:
            rows = np.asarray(indices, dtype=int)
        count = rows.size
        if count == 1:
            coef, row = one_row_grad_x(rows.item(0), i, points, weights, cache)
            return coef * row
        full = count == n and np.array_equal(rows, all_rows)
        if full:
            rows = slice(None)  # the whole index set: read A in place
        # consecutive points that share a primal array form one group
        xs, which = [points[0][0]], []
        for x, _ in points:
            if x is not xs[-1]:
                xs.append(x)
            which.append(len(xs) - 1)
        slopes = None if cache is None else [cache.slopes(x) for x in xs]
        if slopes is not None and all(s is not None for s in slopes):
            # the cache holds every group's slopes over all n rows: the
            # coefficient is formed over all rows and gathered once, which
            # costs fewer numpy calls than gathering each group's rows; its
            # O(n) is below the O(n mb) of the move that keeps the cache current
            coef = None
            for (_, y), w, r in zip(points, weights, which):
                term = y * (w * p)
                term *= slopes[r]
                coef = term if coef is None else np.add(coef, term, out=coef)
            coef = coef[rows]
            sub_i = A[rows, cols[i]]
        else:
            # one margin row per group; take() gathers whole rows faster
            # than fancy indexing
            sub = A if full else A.take(rows, axis=0)
            z = np.empty((len(xs), count))
            for r, x in enumerate(xs):
                np.matmul(sub, x, out=z[r])
            sub_i = sub[:, cols[i]]
            t = slope(z, rows)
            # each group's sum_k (w_k p) y_k[rows] as one small product,
            # times the group's t, summed over the groups
            ys = np.empty((len(points), count))
            ws = np.zeros((len(xs), len(points)))
            for k, ((_, y), w) in enumerate(zip(points, weights)):
                ys[k] = y[rows]
                ws[which[k], k] = w * p
            parts = ws @ ys
            parts *= t
            coef = np.add.reduce(parts, axis=0)
        # one (v,) @ (v, mb) product; a single point of weight 1 keeps the
        # one-point formula's order, ((p y) t) @ A / v, bit for bit
        out = coef @ sub_i
        out /= count
        return out

    def full_grad_x(x, y, cache=None):
        w = y * neg_b * _sigmoid(neg_b * margins(x, cache))
        return A.T @ w

    def full_grad_y(x, y, cache=None):
        return np.logaddexp(0.0, neg_b * margins(x, cache))

    def one_row_grad_y(j, points, cache):
        # a one-row dual block's column as Python floats, one margin each
        a, nbl = row_views[j], neg_b_list[j]
        out = []
        for x, _ in points:
            u = a.dot(x) if cache is None or (z := cache.margins(x)) is None else z[j]
            out.append(_logaddexp0(nbl * float(u)))
        return out

    def grad_y(j, points, cache=None):
        if nb == 1:
            return np.array(one_row_grad_y(j, points, cache))[:, None]
        rows, signs = dual_rows[j]
        out = np.empty((len(points), nb))  # new at each call: the step keeps a row of it
        for row, (x, _) in zip(out, points):
            np.multiply(signs, margins(x, cache, rows), out=row)
        # elementwise, so each row equals a one-point call bit for bit
        return np.logaddexp(0.0, out, out=out)

    def phi_value(x, y):
        return float(y @ full_grad_y(x, y))

    def phi_component(l, x, y):
        return p * y[l] * float(np.logaddexp(0.0, -b[l] * float(A[l] @ x)))

    def coupling_cache(x, y, x_prev, y_prev, v):
        # without the cache a step reads 2 (nb + v) rows of A, each m long:
        # the dual block's nb rows and the v drawn rows, at x^k and x^(k-1);
        # keeping the margins current costs a move and its share of the
        # refresh, 2 n mb
        if (nb + v) * m <= n * mb:
            return None
        return ErmMargins(A, m_blocks, x, x_prev, slope)

    start_y = np.full(n, 1.0 / p)
    return SaddleProblem(
        structure=structure,
        p=p,
        primal_prox=primal_prox,
        dual_prox=dual_prox,
        component_grad_x=component_grad_x,
        lipschitz=lip,
        grad_y=grad_y,
        batch_grad_x=batch_grad_x,
        full_grad_x=full_grad_x,
        full_grad_y=full_grad_y,
        phi_value=phi_value,
        phi_component=phi_component,
        coupling_cache=coupling_cache,
        one_row_grad_x=one_row_grad_x,
        one_row_grad_y=one_row_grad_y if nb == 1 else None,
        row_bound=a_max,
        start_x=np.zeros(m),
        start_y=start_y,
        name=f"robust_erm(n={n},m={m},M={m_blocks},N={n_blocks})",
        notes={
            "dual_box_relaxation": not entropy,
            "radius": radius,
            "flip_prob": data.flip_prob,
        },
    )


# ---------------------------------------------------------------------------
# Matrix games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixGameSpec:
    """Zero-sum game x' A y with both mixed strategies on simplices."""

    payoff: np.ndarray
    geometry: str = "euclidean"  # or "negative_entropy"

    def __post_init__(self):
        object.__setattr__(self, "payoff", np.atleast_2d(np.asarray(self.payoff, dtype=float)))
        if self.geometry not in ("euclidean", "negative_entropy"):
            raise ValueError("geometry must be euclidean or negative_entropy")


def game_saddle_oracle(A: np.ndarray, tol: float = 1e-9):
    """Exact mixed equilibrium of a small zero-sum game by support enumeration.

    The row player minimizes x' A y, the column player maximizes.  Every
    support pair is solved through its equalization linear system and checked
    against the best-response inequalities.  Returns (x, y, value, exact);
    ``exact`` is False when no support pair satisfies the inequalities within
    tolerance, in which case the least-violated candidate is returned.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n1, n2 = A.shape
    if max(n1, n2) > 9:
        raise ValueError("support enumeration oracle is limited to small games")

    def supports(n):
        out = []
        for mask in range(1, 2**n):
            out.append([i for i in range(n) if mask >> i & 1])
        return out

    best = None
    best_violation = np.inf
    for S in supports(n1):
        for T in supports(n2):
            if len(S) != len(T):
                continue
            s = len(S)
            sub = A[np.ix_(S, T)]
            # y on T and the value v solve  sub @ y_T = v * 1,  sum(y_T) = 1.
            lhs_y = np.zeros((s + 1, s + 1))
            lhs_y[:s, :s] = sub
            lhs_y[:s, s] = -1.0
            lhs_y[s, :s] = 1.0
            rhs_y = np.zeros(s + 1)
            rhs_y[s] = 1.0
            lhs_x = np.zeros((s + 1, s + 1))
            lhs_x[:s, :s] = sub.T
            lhs_x[:s, s] = -1.0
            lhs_x[s, :s] = 1.0
            try:
                sol_y = np.linalg.solve(lhs_y, rhs_y)
                sol_x = np.linalg.solve(lhs_x, rhs_y)
            except np.linalg.LinAlgError:
                continue
            y = np.zeros(n2)
            y[T] = sol_y[:s]
            x = np.zeros(n1)
            x[S] = sol_x[:s]
            v = sol_y[s]
            neg = max(0.0, -x.min(), -y.min())
            # Row deviations must not pay (A y >= v), column deviations must not gain.
            row_gain = max(0.0, float(np.max(v - A @ y)))
            col_gain = max(0.0, float(np.max(A.T @ x - v)))
            violation = max(neg, row_gain, col_gain, abs(sol_x[s] - v))
            if violation < best_violation:
                best_violation = violation
                best = (np.maximum(x, 0.0), np.maximum(y, 0.0), float(v))
            if violation <= tol:
                x, y, v = best
                return x / x.sum(), y / y.sum(), v, True
    x, y, v = best
    return x / x.sum(), y / y.sum(), v, False


@dataclass
class GameReference:
    x: np.ndarray
    y: np.ndarray
    value: float
    exact: bool = True


def matrix_game_problem(spec: MatrixGameSpec):
    """Simplex matrix game as a single-block saddle problem, plus its reference saddle."""
    A = spec.payoff
    n1, n2 = A.shape
    structure = BlockStructure.from_dims([n1], [n2])
    geom = NEGATIVE_ENTROPY if spec.geometry == "negative_entropy" else EUCLIDEAN
    entropy = spec.geometry == "negative_entropy"
    # Operator norm of the coupling in the block geometry: spectral for l2,
    # max-abs-entry for the l1/l-inf pairing used by entropy blocks.
    coupling = float(np.abs(A).max()) if entropy else float(np.linalg.norm(A, 2))
    coupling = max(coupling, 1e-12)
    lip = BlockLipschitz(
        Lxx=np.zeros((1, 1)),
        Lxy=np.array([[coupling]]),
        Lyy=np.zeros((1, 1)),
        Lyx=np.array([[coupling]]),
    )
    problem = SaddleProblem(
        structure=structure,
        p=1,
        primal_prox=[ProxSpec.simplex(geometry=geom)],
        dual_prox=[ProxSpec.simplex(geometry=geom)],
        component_grad_x=lambda l, i, x, y: A @ y,
        lipschitz=lip,
        grad_y=lambda j, points: np.array([A.T @ x for x, _ in points]),
        batch_grad_x=lambda idx, i, points, weights: A @ _weighted_y(points, weights),
        full_grad_x=lambda x, y: A @ y,
        full_grad_y=lambda x, y: A.T @ x,
        phi_value=lambda x, y: float(x @ A @ y),
        phi_component=lambda l, x, y: float(x @ A @ y),
        start_x=np.full(n1, 1.0 / n1),
        start_y=np.full(n2, 1.0 / n2),
        name=f"matrix_game({n1}x{n2},{spec.geometry})",
        notes={"payoff": A},
    )
    x_star, y_star, value, exact = game_saddle_oracle(A)
    return problem, GameReference(x_star, y_star, value, exact)


def box_game_problem(
    A: np.ndarray, half_width: float = 1.0, m_blocks: int = 1, n_blocks: int = 1
):
    """Bilinear game x' A y over symmetric boxes.

    The origin is always a saddle point, and it is unique when A is
    nonsingular; boxes make arbitrary primal/dual block splits legal, unlike
    the simplex.  Returns the problem and the origin reference.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n1, n2 = A.shape
    for name, blocks, dim in (("m_blocks", m_blocks, n1), ("n_blocks", n_blocks, n2)):
        if blocks < 1 or dim % blocks:
            raise ValueError(f"{name}={blocks} is below 1 or does not divide the payoff dimension {dim}")
    mb, nb = n1 // m_blocks, n2 // n_blocks
    structure = BlockStructure.from_dims([mb] * m_blocks, [nb] * n_blocks)
    w = float(half_width)
    Lxy = np.zeros((m_blocks, n_blocks))
    for i in range(m_blocks):
        for j in range(n_blocks):
            Lxy[i, j] = np.linalg.norm(A[i * mb : (i + 1) * mb, j * nb : (j + 1) * nb], 2)
    lip = BlockLipschitz(
        Lxx=np.zeros((m_blocks, m_blocks)),
        Lxy=Lxy,
        Lyy=np.zeros((n_blocks, n_blocks)),
        Lyx=Lxy.T.copy(),
    )
    row_blocks = [A[i * mb : (i + 1) * mb] for i in range(m_blocks)]
    # Deterministic interior start away from the saddle.
    signs_x = np.where(np.arange(n1) % 2 == 0, 1.0, -1.0)
    signs_y = np.where(np.arange(n2) % 2 == 0, 1.0, -1.0)
    problem = SaddleProblem(
        structure=structure,
        p=1,
        primal_prox=[ProxSpec.box(-w * np.ones(mb), w * np.ones(mb)) for _ in range(m_blocks)],
        dual_prox=[ProxSpec.box(-w * np.ones(nb), w * np.ones(nb)) for _ in range(n_blocks)],
        component_grad_x=lambda l, i, x, y: (A @ y)[i * mb : (i + 1) * mb],
        lipschitz=lip,
        grad_y=lambda j, points: np.array([(A.T @ x)[j * nb : (j + 1) * nb] for x, _ in points]),
        batch_grad_x=lambda idx, i, points, weights: row_blocks[i] @ _weighted_y(points, weights),
        full_grad_x=lambda x, y: A @ y,
        full_grad_y=lambda x, y: A.T @ x,
        phi_value=lambda x, y: float(x @ A @ y),
        phi_component=lambda l, x, y: float(x @ A @ y),
        start_x=0.75 * w * signs_x,
        start_y=0.75 * w * signs_y,
        name=f"box_game({n1}x{n2},M={m_blocks},N={n_blocks})",
        notes={"payoff": A, "half_width": w},
    )
    return problem, GameReference(np.zeros(n1), np.zeros(n2), 0.0, exact=True)


# ---------------------------------------------------------------------------
# Constrained quadratic programs
# ---------------------------------------------------------------------------


@dataclass
class ConstrainedSpec:
    """min 0.5 x'Qx + c'x  s.t.  G x <= d, with an optional Slater point."""

    Q: np.ndarray
    c: np.ndarray
    G: np.ndarray
    d: np.ndarray
    slater: Optional[np.ndarray] = None

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        self.G = np.asarray(self.G, dtype=float).reshape(-1, self.Q.shape[0])
        self.d = np.atleast_1d(np.asarray(self.d, dtype=float)) if np.size(self.d) else np.zeros(0)
        if self.slater is not None:
            self.slater = np.atleast_1d(np.asarray(self.slater, dtype=float))
            if self.G.shape[0] and np.any(self.G @ self.slater - self.d >= 0):
                raise ValueError("slater point does not strictly satisfy the constraints")


def qp_reference(Q, c, G, d, tol: float = 1e-9):
    """Primal-dual QP solution by enumerating active constraint subsets.

    For each subset the KKT linear system is solved; the first candidate that
    is primal feasible with nonnegative multipliers wins.  Construction error
    if no subset yields a feasible candidate.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    G = np.asarray(G, dtype=float).reshape(-1, Q.shape[0])
    d = np.atleast_1d(np.asarray(d, dtype=float)) if np.size(d) else np.zeros(0)
    n_con = G.shape[0]
    if n_con > 16:
        raise ValueError("active-set enumeration oracle is limited to few constraints")
    for size in range(n_con + 1):
        for mask in range(2**n_con):
            S = [j for j in range(n_con) if mask >> j & 1]
            if len(S) != size:
                continue
            k = len(S)
            kkt = np.zeros((Q.shape[0] + k, Q.shape[0] + k))
            kkt[: Q.shape[0], : Q.shape[0]] = Q
            if k:
                kkt[: Q.shape[0], Q.shape[0] :] = G[S].T
                kkt[Q.shape[0] :, : Q.shape[0]] = G[S]
            rhs = np.concatenate([-c, d[S]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[: Q.shape[0]]
            y = np.zeros(n_con)
            y[S] = sol[Q.shape[0] :]
            if np.any(y < -tol):
                continue
            if n_con and np.any(G @ x - d > tol):
                continue
            return x, np.maximum(y, 0.0)
    raise ValueError("no feasible active set found")


def constrained_qp_problem(spec: ConstrainedSpec, m_blocks: int = 1):
    """Inequality-constrained QP as a saddle problem over x free, y >= 0.

    L(x, y) = 0.5 x'Qx + c'x + y'(Gx - d); each constraint is one dual block.
    Returns the problem, the reference (x*, y*), and the optimal value.
    """
    Q, c, G, d = spec.Q, spec.c, spec.G, spec.d
    m = Q.shape[0]
    n_con = G.shape[0]
    if n_con == 0:
        # Keep a dual side for the algorithm: a vacuous constraint 0 <= 0.
        G = np.zeros((1, m))
        d = np.zeros(1)
        n_con = 1
    if m_blocks < 1 or m % m_blocks:
        raise ValueError(f"m_blocks={m_blocks} is below 1 or does not divide the primal dimension {m}")
    mb = m // m_blocks
    p = n_con
    structure = BlockStructure.from_dims([mb] * m_blocks, [1] * n_con)

    Lxx = np.zeros((m_blocks, m_blocks))
    for l in range(m_blocks):
        for i in range(m_blocks):
            Lxx[l, i] = np.linalg.norm(Q[l * mb : (l + 1) * mb, i * mb : (i + 1) * mb], 2)
    Gnorm = np.stack(
        [np.linalg.norm(G[:, i * mb : (i + 1) * mb], axis=1) for i in range(m_blocks)], axis=1
    )  # (n_con, m_blocks)
    lip = BlockLipschitz(
        Lxx=Lxx, Lxy=Gnorm.T.copy(), Lyy=np.zeros((n_con, n_con)), Lyx=Gnorm
    )

    def component_grad_x(l, i, x, y):
        base = (Q @ x + c)[i * mb : (i + 1) * mb]
        return base + p * y[l] * G[l, i * mb : (i + 1) * mb]

    def batch_grad_x(indices, i, points, weights):
        rows = np.asarray(indices, dtype=int)
        blk = slice(i * mb, (i + 1) * mb)
        # linear in y: one product with the weighted dual points, then the
        # weighted Q x + c, computed once per distinct primal array
        out = (p / rows.size) * (_weighted_y(points, weights)[rows] @ G[rows, blk])
        x_seen, base = None, None
        for (x, _), w in zip(points, weights):
            if x is not x_seen:
                x_seen, base = x, (Q @ x + c)[blk]
            out += w * base
        return out

    def grad_y(j, points):
        return np.array([[G[j] @ x - d[j]] for x, _ in points])

    def phi_value(x, y):
        return float(0.5 * x @ Q @ x + c @ x + y @ (G @ x - d))

    def phi_component(l, x, y):
        return float(0.5 * x @ Q @ x + c @ x + p * y[l] * (G[l] @ x - d[l]))

    problem = SaddleProblem(
        structure=structure,
        p=p,
        primal_prox=[ProxSpec.zero() for _ in range(m_blocks)],
        dual_prox=[ProxSpec.nonneg() for _ in range(n_con)],
        component_grad_x=component_grad_x,
        lipschitz=lip,
        grad_y=grad_y,
        batch_grad_x=batch_grad_x,
        full_grad_x=lambda x, y: Q @ x + c + G.T @ y,
        full_grad_y=lambda x, y: G @ x - d,
        phi_value=phi_value,
        phi_component=phi_component,
        start_x=np.zeros(m) if spec.slater is None else spec.slater.copy(),
        start_y=np.zeros(n_con),
        name=f"constrained_qp(m={m},constraints={n_con})",
        notes={"objective_Q": Q, "objective_c": c},
    )
    problem.notes["objective"] = lambda x: float(0.5 * x @ Q @ x + c @ x)
    problem.notes["constraints"] = lambda x: G @ x - d
    x_star, y_star = qp_reference(Q, c, G, d)
    f_star = float(0.5 * x_star @ Q @ x_star + c @ x_star)
    return problem, (x_star, y_star), f_star

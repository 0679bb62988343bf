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

Robust ERM and the QP are row-coupled: component l is
``Phi_l(x, y) = q(x) + p y_l phi_l(r_l . x)`` for the rows r_l of a matrix
R (the data A, the constraints G), the saddle form of SPDC (Zhang & Xiao,
2015) and SPDHG (Chambolle et al., 2018).  :func:`row_coupling` builds the
oracles and the margin cache :class:`RowMargins` of that form once for
both; each problem supplies R, phi, phi', q and its one-row float kernels.
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
    "row_coupling",
]


def _sigmoid(z, out=None, spare=None):
    # exp(-|z|) lies in [0, 1], so neither branch overflows; each branch is
    # the usual one-sided form for its sign of z, 1 / (1 + e) or e / (1 + e),
    # as one divide of the selected numerator.  That numerator is
    # exp(min(z, 0)): exp(0) = 1 where z >= 0, and exp(z) = e elsewhere,
    # since -|z| is z there; an exp costs less than a comparison and a select.
    # z is a float64 array; the result goes into out, and the numerator into
    # spare, which may be z.
    e = np.abs(z, out=np.empty_like(z) if out is None else out)  # an array also for 0-d z, so it is written in place
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.exp(np.minimum(z, 0.0, out=spare), out=spare)
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


def _refuse_non_finite(caller: str, **arrays) -> None:
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{caller} needs finite data: {name} has non-finite entries")


# ---------------------------------------------------------------------------
# Row-coupled problems: Phi_l(x, y) = q(x) + p y_l phi_l(r_l . x)
# ---------------------------------------------------------------------------


class RowMargins:
    """Per-run cache of the margins ``z = A x^k`` and ``z_prev = A x^(k-1)`` of a row-coupled problem.

    ``A`` is the problem's row matrix R.  Built over the run's primal
    buffers ``x`` and ``x_prev``, and synced.  The oracles read ``z`` for
    the array ``x`` and ``z_prev`` for ``x_prev``, found by identity
    (:meth:`margins`); for any other array they compute the rows they read.
    A move of primal block i costs one ``(n, mb)`` product with a column
    block of A, read in place through a strided view built once.  Every
    ``period`` moves, ``period`` being the number of primal blocks, ``z``
    is recomputed as ``A @ x``: that refresh costs as much as ``period``
    moves together, and it bounds the rounding drift of the rank-block
    updates whatever the run length.  The problem's factory builds one only
    for runs whose largest batch makes it pay.

    :meth:`slopes` gives ``phi'(z)`` or ``phi'(z_prev)`` on every row, the
    primal estimator's per-row factor, from the problem's ``slope`` and
    computed on first use after the margins change; a move hands the slopes
    of x^k on to x^(k-1) with the margins, so each step computes them for
    x^k alone.  They are written into two buffers the cache owns, used in
    turn: new slopes never go into the buffer the other iterate's slopes
    hold.  So an array that :meth:`slopes` returns keeps its values through
    the next move, as the slopes of x^(k-1), and is overwritten once the
    cache computes slopes after a second move or after a sync.
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
        self.buffers = (np.empty(n), np.empty(n))  # the slopes of x^k and x^(k-1), in turn
        self.spare = np.empty(n)  # for the intermediate values of the slopes
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
        """The slopes of the cached margins of the buffer ``x``, in a slope buffer; None where :meth:`margins` is.

        New slopes go into the slope buffer that the other iterate's slopes are not in.
        """
        if x is self.x:
            if self.s is None:
                self.s = self.slope(self.z, slice(None), self.buffers[self.s_prev is self.buffers[0]], self.spare)
            return self.s
        if x is self.x_prev:
            if self.s_prev is None:
                self.s_prev = self.slope(self.z_prev, slice(None), self.buffers[self.s is self.buffers[0]], self.spare)
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


def row_coupling(R, m_blocks, n_blocks, phi, slope, q=None, one_row_grad_x=None, one_row_grad_y=None,
                 caller="row_coupling", matrix="R") -> dict:
    """The oracles of a row-coupled problem, as keyword arguments of :class:`SaddleProblem`.

    Component l of the finite sum is ``Phi_l(x, y) = q(x) + p y_l
    phi_l(r_l . x)``, one per row r_l of the ``(n, m)`` matrix ``R``
    (p = n), with x in ``m_blocks`` equal primal blocks and y in
    ``n_blocks`` equal dual blocks of consecutive rows.  The problem gives:

    * ``phi(z, rows, out)``: ``phi_l`` at the margins ``z`` of the given
      rows (a slice), written into ``out``, which it returns;
    * ``slope(z, rows, out=None, spare=None, scale=None)``: ``phi_l'`` at
      the margins ``z`` of the given rows (a slice or an index array; z
      may hold one row of margins per primal point), times ``scale`` when
      given, into ``out`` (a new array when None), with ``spare`` for its
      intermediate values (it may be z, which is then overwritten);
    * ``q``: None, or ``(value, gradient)`` of the primal term;
    * the optional one-row float kernels ``one_row_grad_x`` and, for dual
      blocks of one row, ``one_row_grad_y`` (see :class:`SaddleProblem`);
      the dict passes them on, and ``batch_grad_x`` and ``grad_y`` call them
      at one row, so they have each other's bits.

    ``batch_grad_x`` on two rows or more, with a coupling cache that holds
    the slopes of every point's primal array, forms the coefficient
    ``sum_k (w_k p) y_k * slope(x_k)`` over all n rows, one term per point
    in the points' order, and gathers the drawn rows of it once.  The drawn
    rows of R on primal block i are gathered from a C-contiguous ``(n, mb)``
    copy of the block's columns, which gives the values of
    ``R[rows, block i]`` in less time; the whole index set reads R in place.
    The copies together hold as many bytes as R, so they double the memory
    that R's data takes for the problem's lifetime.  They are built on the
    first such call, so runs that make none (single samples, uncached runs)
    never build them.  Without a cache it computes one margin row per group
    of consecutive points that share a primal array.  ``q``'s gradient is
    added once per distinct primal array.  An empty index set is refused
    with ValueError.

    ``grad_y`` on a block of several rows allocates one new ``(len(points),
    nb)`` array per call, since the solver keeps a row of it, and writes
    each point's ``phi`` into it; the margins are the coupling cache's, or
    the block's rows of R times x.  The cache factory keeps
    :class:`RowMargins` where it pays.

    ``R`` must be finite, and its entries small enough that its squared
    norms are; otherwise ValueError names ``matrix`` and ``caller``.
    ``row_bound`` is R's largest entry in absolute value.
    """
    n, m = R.shape
    p = n
    mb, nb = m // m_blocks, n // n_blocks
    r_max = float(np.abs(R).max())  # NaN if an entry is NaN
    _refuse_non_finite(caller, **{matrix: r_max})
    if not math.isfinite(r_max * r_max * n * m):  # bounds the Gram matrix's eigenvalues
        raise ValueError(f"{caller} needs {matrix}'s squared norms to be finite: {matrix} has an entry of {r_max:.3g}")
    q_value, q_grad = (lambda x: 0.0, None) if q is None else q
    all_rows = np.arange(n)
    cols = [slice(i * mb, (i + 1) * mb) for i in range(m_blocks)]  # each primal block's columns
    dual_rows = [slice(j * nb, (j + 1) * nb) for j in range(n_blocks)]  # each dual block's rows
    # each primal block's columns as a C-contiguous (n, mb) copy, from which
    # take() gathers rows faster than R[rows, cols[i]]; built on the first
    # cached batch call, so runs that make none never pay for the copy
    col_blocks = None

    def margins(x, cache):
        z = None if cache is None else cache.margins(x)
        return R @ x if z is None else z

    def cached_coef(points, weights, cache):
        # sum_k (w_k p) y_k * slope(x_k) over all n rows, from the cache's
        # slopes, summed in the points' order into the first point's term,
        # the later terms formed in one buffer; None when the cache holds no
        # slopes for some point's array
        coef = term = None
        for (x, y), w in zip(points, weights):
            s = cache.slopes(x)
            if s is None:
                return None
            if coef is None:
                coef = y * (w * p)
                coef *= s
            else:
                term = np.multiply(y, w * p, out=term)
                term *= s
                coef += term
        return coef

    def batch_grad_x(indices, i, points, weights, cache=None):
        nonlocal col_blocks
        # a run's drawn indices are used as they are, without the asarray call
        if type(indices) is np.ndarray and indices.dtype is _INDEX:
            rows = indices
        else:
            rows = np.asarray(indices, dtype=int)
        count = rows.size
        if count < 2:
            try:  # an empty index set fails here, at no cost to the other paths
                l = rows.item(0)
            except IndexError:
                raise ValueError("batch_grad_x needs a nonempty index set, got an empty one") from None
            if one_row_grad_x is not None:
                coef, row = one_row_grad_x(l, i, points, weights, cache)
                return coef * row
        full = count == n and np.array_equal(rows, all_rows)
        if full:
            rows = slice(None)  # the whole index set: read R in place
        coef = None if cache is None else cached_coef(points, weights, cache)
        if coef is not None:
            # the coefficient is formed over all rows and gathered once, which
            # costs fewer numpy calls than gathering each group's rows; its
            # O(n) is below the O(n mb) of the move that keeps the cache current
            if full:
                sub_i = R[:, cols[i]]  # a view: the copy's row stride changes the product's bits
            else:
                if col_blocks is None:
                    col_blocks = [np.ascontiguousarray(R[:, c]) for c in cols]
                coef = coef[rows]
                sub_i = col_blocks[i].take(rows, axis=0)
        else:
            # consecutive points that share a primal array form one group:
            # the distinct arrays in order, and each point's group
            xs, which = [points[0][0]], []
            for x, _ in points:
                if x is not xs[-1]:
                    xs.append(x)
                which.append(len(xs) - 1)
            # one margin row per group; take() gathers whole rows faster
            # than fancy indexing
            sub = R if full else R.take(rows, axis=0)
            z = np.empty((len(xs), count))
            for r, x in enumerate(xs):
                np.matmul(sub, x, out=z[r])
            sub_i = sub[:, cols[i]]
            t = slope(z, rows, spare=z)
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
        # one-point formula's order, ((p y) t) @ R / v, bit for bit
        out = coef @ sub_i
        out /= count
        if q_grad is not None:
            x_seen = None
            for (x, _), w in zip(points, weights):
                if x is not x_seen:
                    x_seen, base = x, q_grad(x)[cols[i]]
                out += w * base
        return out

    def grad_y(j, points, cache=None):
        if one_row_grad_y is not None:
            return np.array(one_row_grad_y(j, points, cache))[:, None]
        rows = dual_rows[j]
        out = np.empty((len(points), nb))  # new at each call: the step keeps a row of it
        for row, (x, _) in zip(out, points):
            z = None if cache is None else cache.margins(x)  # written out: a call per point costs the step time
            phi(R[rows] @ x if z is None else z[rows], rows, row)
        return out

    def full_grad_x(x, y, cache=None):
        g = R.T @ slope(margins(x, cache), slice(None), scale=y)
        return g if q_grad is None else q_grad(x) + g

    def full_grad_y(x, y, cache=None):
        return phi(margins(x, cache), slice(None), np.empty(n))

    def phi_value(x, y):
        return q_value(x) + float(y @ full_grad_y(x, y))

    def phi_component(l, x, y):
        z = R[l : l + 1] @ x
        return q_value(x) + p * y[l] * float(phi(z, slice(l, l + 1), z)[0])

    def coupling_cache(x, y, x_prev, y_prev, v):
        # without the cache a step reads 2 (nb + v) rows of R, each m long:
        # the dual block's nb rows and the v drawn rows, at x^k and x^(k-1);
        # keeping the margins current costs a move and its share of the
        # refresh, 2 n mb
        if (nb + v) * m <= n * mb:
            return None
        return RowMargins(R, m_blocks, x, x_prev, slope)

    return dict(
        component_grad_x=lambda l, i, x, y: batch_grad_x(np.array([l]), i, ((x, y),), (1.0,)),
        grad_y=grad_y,
        batch_grad_x=batch_grad_x,
        full_grad_x=full_grad_x,
        full_grad_y=full_grad_y,
        phi_value=phi_value,
        phi_component=phi_component,
        coupling_cache=coupling_cache,
        one_row_grad_x=one_row_grad_x,
        one_row_grad_y=one_row_grad_y,
        row_bound=r_max,
    )


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


def robust_erm_problem(
    data: RobustErmDataset,
    radius: float = 10.0,
    m_blocks: int = 1,
    n_blocks: Optional[int] = None,
) -> SaddleProblem:
    """Worst-case-weighted logistic regression as a saddle problem.

    One coupling component per datum (p = n), row-coupled through the data
    (:func:`row_coupling` with R = A, ``phi_l(u) = log(1 + exp(-b_l u))``
    and no q).  The primal sits in the box ||x||_inf <= radius split across
    ``m_blocks``; the dual weight vector uses a single entropy-geometry
    simplex block when ``n_blocks == 1`` and per-coordinate [0, 1] boxes
    otherwise (recorded in ``notes``).  Its one-row float kernels are
    ``one_row_grad_x``, whose row is a block of a data row, and on one-row
    dual blocks ``one_row_grad_y``.

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
    neg_b = -b
    neg_b_list = neg_b.tolist()
    cols = [slice(i * mb, (i + 1) * mb) for i in range(m_blocks)]  # each primal block's columns
    row_views = list(A)  # built once: a list index costs less than A[l]

    def loss(z, rows, out):
        np.multiply(neg_b[rows], z, out=out)
        return np.logaddexp(0.0, out, out=out)

    def slope(z, rows, out=None, spare=None, scale=None):
        # d/du log(1 + exp(-b u)) = -b * sigmoid(-b u), with _sigmoid's
        # ufuncs in its order, so bit for bit
        neg_b_rows = neg_b[rows]
        u = np.multiply(neg_b_rows, z, out=spare)
        t = _sigmoid(u, out, u)
        return np.multiply(neg_b_rows if scale is None else scale * neg_b_rows, t, out=t)

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

    def one_row_grad_y(j, points, cache):
        # a one-row dual block's column as Python floats, one margin each
        a, nbl = row_views[j], neg_b_list[j]
        out = []  # a loop: a list comprehension's frame costs more per step
        for x, _ in points:
            u = a.dot(x) if cache is None or (z := cache.margins(x)) is None else z[j]
            out.append(_logaddexp0(nbl * float(u)))
        return out

    oracles = row_coupling(A, m_blocks, n_blocks, loss, slope, one_row_grad_x=one_row_grad_x,
                           one_row_grad_y=one_row_grad_y if nb == 1 else None, caller="robust_erm_problem",
                           matrix="A")
    _refuse_non_finite("robust_erm_problem", b=b)
    # equal blocks share one (immutable) spec, and a step plan one kernel for it
    primal_prox = [ProxSpec.box(-radius * np.ones(mb), radius * np.ones(mb))] * m_blocks
    if entropy:
        dual_prox = [ProxSpec.simplex(geometry=NEGATIVE_ENTROPY)]
    else:
        dual_prox = [ProxSpec.box(np.zeros(nb), np.ones(nb))] * n_blocks
    return SaddleProblem(
        structure=BlockStructure.from_dims([mb] * m_blocks, [nb] * n_blocks),
        p=p,
        primal_prox=primal_prox,
        dual_prox=dual_prox,
        lipschitz=_erm_lipschitz(A, m_blocks, n_blocks, entropy),
        start_x=np.zeros(m),
        start_y=np.full(n, 1.0 / p),
        name=f"robust_erm(n={n},m={m},M={m_blocks},N={n_blocks})",
        notes={
            "dual_box_relaxation": not entropy,
            "radius": radius,
            "flip_prob": data.flip_prob,
        },
        **oracles,
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
    is primal feasible with nonnegative multipliers wins.  A singular system
    (a singular Q, or dependent active rows) is solved by least squares, and
    its solution is a candidate only where it leaves a residual of at most
    ``tol`` in every equation.  Construction error if no subset yields a
    feasible candidate.
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
            except np.linalg.LinAlgError:  # singular: a least-squares point, if it solves the system
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
                if np.any(np.abs(kkt @ sol - rhs) > tol):
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


_QP_TOL = 1e-10  # relative tolerance of the QP's symmetry and semidefiniteness checks


def constrained_qp_problem(spec: ConstrainedSpec, m_blocks: int = 1):
    """Inequality-constrained QP as a saddle problem over x free, y >= 0.

    L(x, y) = 0.5 x'Qx + c'x + y'(Gx - d); each constraint is one dual block.
    It is row-coupled (:func:`row_coupling`) through R = G, with
    ``q(x) = 0.5 x'Qx + c'x`` and ``phi_l(u) = u - d_l``, and its one-row
    float kernel ``one_row_grad_y`` gives ``G_j x - d_j``.  It has no
    ``one_row_grad_x``: with q nonzero the primal term is not coef * row.
    ``Lxx_whole`` is ``||Q||_2``, the largest eigenvalue of Q.
    Returns the problem, the reference (x*, y*), and the optimal value.

    ``Q``, ``c``, ``G`` and ``d`` must be finite, and ``Q`` symmetric
    positive semidefinite: ``max |Q - Q'|`` at most ``1e-10 max |Q|``, and
    its smallest eigenvalue at least ``-1e-10`` times its largest in
    absolute value; otherwise ValueError names the array.
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
    _refuse_non_finite("constrained_qp_problem", Q=Q, c=c, d=d)
    if np.abs(Q - Q.T).max() > _QP_TOL * np.abs(Q).max():
        raise ValueError("constrained_qp_problem needs a symmetric Q: Q differs from its transpose")
    eig = np.linalg.eigvalsh(Q)
    whole = float(np.abs(eig).max())
    if eig[0] < -_QP_TOL * whole:
        raise ValueError(f"constrained_qp_problem needs a positive semidefinite Q: Q has the eigenvalue {eig[0]:.3g}")
    mb = m // m_blocks
    d_list = d.tolist()

    def objective(x):
        return float(0.5 * x @ Q @ x + c @ x)

    def residual(z, rows, out):
        return np.subtract(z, d[rows], out=out)

    def unit_slope(z, rows, out=None, spare=None, scale=None):
        out = np.empty_like(z) if out is None else out
        out[...] = 1.0 if scale is None else scale
        return out

    def one_row_grad_y(j, points, cache):
        return [float(G[j] @ x if cache is None or (z := cache.margins(x)) is None else z[j]) - d_list[j]
                for x, _ in points]

    oracles = row_coupling(G, m_blocks, n_con, residual, unit_slope, q=(objective, lambda x: Q @ x + c),
                           one_row_grad_y=one_row_grad_y, caller="constrained_qp_problem", matrix="G")
    Lxx = np.zeros((m_blocks, m_blocks))
    for l in range(m_blocks):
        for i in range(m_blocks):
            Lxx[l, i] = np.linalg.norm(Q[l * mb : (l + 1) * mb, i * mb : (i + 1) * mb], 2)
    Gnorm = np.stack(
        [np.linalg.norm(G[:, i * mb : (i + 1) * mb], axis=1) for i in range(m_blocks)], axis=1
    )  # (n_con, m_blocks)
    lip = BlockLipschitz(
        Lxx=Lxx, Lxy=Gnorm.T.copy(), Lyy=np.zeros((n_con, n_con)), Lyx=Gnorm, Lxx_whole=whole
    )
    problem = SaddleProblem(
        structure=BlockStructure.from_dims([mb] * m_blocks, [1] * n_con),
        p=n_con,
        primal_prox=[ProxSpec.zero() for _ in range(m_blocks)],
        dual_prox=[ProxSpec.nonneg() for _ in range(n_con)],
        lipschitz=lip,
        start_x=np.zeros(m) if spec.slater is None else spec.slater.copy(),
        start_y=np.zeros(n_con),
        name=f"constrained_qp(m={m},constraints={n_con})",
        notes={"objective_Q": Q, "objective_c": c, "objective": objective, "constraints": lambda x: G @ x - d},
        **oracles,
    )
    x_star, y_star = qp_reference(Q, c, G, d)
    return problem, (x_star, y_star), objective(x_star)

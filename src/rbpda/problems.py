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
    # the usual one-sided form for its sign of z.
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


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
    else:
        # In the [0, 1] boxes each weight is at most one (the weights may sum
        # to n), so D <= 1/4 and ||A_l' D A_i|| <= ||A_l|| ||A_i|| / 4.
        col = np.array([np.linalg.norm(blocks[:, i, :], 2) for i in range(m_blocks)])
        Lxx = 0.25 * np.outer(col, col)
        grouped = anorm.reshape(n_blocks, nb, m_blocks)
        Lyx = np.sqrt(np.sum(grouped**2, axis=1))  # (n_blocks, m_blocks)
        Lxy = Lyx.T.copy()
    Lyy = np.zeros((n_blocks, n_blocks))
    return BlockLipschitz(Lxx=Lxx, Lxy=Lxy, Lyy=Lyy, Lyx=Lyx)


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

    The primal-primal constants depend on the dual domain.  On the simplex
    the weights sum to one, so ``Lxx[l, i] = max_r ||a_{r,l}|| ||a_{r,i}|| / 4``
    over the rows r.  In the boxes each weight is at most one but the weights
    may sum to n, so ``Lxx[l, i] = ||A_l||_2 ||A_i||_2 / 4`` with ``A_i`` the
    column block of primal block i.
    """
    A, b = data.A, data.b
    n, m = A.shape
    p = n
    if n_blocks is None:
        n_blocks = n
    if m % m_blocks != 0:
        raise ValueError(f"m_blocks={m_blocks} does not divide m={m}")
    if n % n_blocks != 0:
        raise ValueError(f"n_blocks={n_blocks} does not divide n={n}")
    mb, nb = m // m_blocks, n // n_blocks
    entropy = n_blocks == 1

    structure = BlockStructure.from_dims([mb] * m_blocks, [nb] * n_blocks)
    primal_prox = [ProxSpec.box(-radius * np.ones(mb), radius * np.ones(mb)) for _ in range(m_blocks)]
    if entropy:
        dual_prox = [ProxSpec.simplex(geometry=NEGATIVE_ENTROPY)]
    else:
        dual_prox = [ProxSpec.box(np.zeros(nb), np.ones(nb)) for _ in range(n_blocks)]

    lip = _erm_lipschitz(A, m_blocks, n_blocks, entropy)

    def losses(x):
        return np.logaddexp(0.0, -b * (A @ x))

    neg_b = -b

    def component_grad_x(l, i, x, y):
        a = A[l]
        margin = float(a @ x)
        coef = p * y[l] * (-b[l]) * float(_sigmoid(np.array(-b[l] * margin)))
        return coef * a[i * mb : (i + 1) * mb]

    def batch_grad_x(indices, i, points):
        rows = np.asarray(indices, dtype=int)
        sub = A[rows]
        sub_i = sub[:, i * mb : (i + 1) * mb]
        neg_b_rows = neg_b[rows]
        out = np.empty((len(points), mb))
        x_seen, t = None, None
        for k, (x, y) in enumerate(points):
            if x is not x_seen:
                # d/dx log(1 + exp(-b a'x)) = -b * sigmoid(-b a'x) * a
                x_seen, t = x, neg_b_rows * _sigmoid(neg_b_rows * (sub @ x))
            coef = p * y[rows] * t
            # one (v,) @ (v, mb) product per point: stacking the points into
            # one matrix product would change the summation order
            out[k] = (coef @ sub_i) / rows.size
        return out

    def grad_x(i, x, y):
        margins = A @ x
        w = y * (-b) * _sigmoid(-b * margins)
        return A[:, i * mb : (i + 1) * mb].T @ w

    def full_grad_x_vec(x, y):
        w = y * (-b) * _sigmoid(-b * (A @ x))
        return A.T @ w

    def component_grad_y(l, j, x, y):
        out = np.zeros(nb)
        if j * nb <= l < (j + 1) * nb:
            a = A[l]
            out[l - j * nb] = p * float(np.logaddexp(0.0, -b[l] * float(a @ x)))
        return out

    def grad_y(j, x, y):
        rows = slice(j * nb, (j + 1) * nb)
        return np.logaddexp(0.0, -b[rows] * (A[rows] @ x))

    def phi_value(x, y):
        return float(y @ losses(x))

    def phi_component(l, x, y):
        return p * y[l] * float(np.logaddexp(0.0, -b[l] * float(A[l] @ x)))

    start_y = np.full(n, 1.0 / p)
    return SaddleProblem(
        structure=structure,
        p=p,
        primal_prox=primal_prox,
        dual_prox=dual_prox,
        component_grad_x=component_grad_x,
        component_grad_y=component_grad_y,
        lipschitz=lip,
        grad_x=grad_x,
        grad_y=grad_y,
        batch_grad_x=batch_grad_x,
        full_grad_x=full_grad_x_vec,
        full_grad_y=lambda x, y: losses(x),
        phi_value=phi_value,
        phi_component=phi_component,
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
        component_grad_y=lambda l, j, x, y: A.T @ x,
        lipschitz=lip,
        grad_x=lambda i, x, y: A @ y,
        grad_y=lambda j, x, y: A.T @ x,
        batch_grad_x=lambda idx, i, points: np.array([A @ y for _, y in points]),
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
    if n1 % m_blocks or n2 % n_blocks:
        raise ValueError("block counts must divide the payoff dimensions")
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
    # Deterministic interior start away from the saddle.
    signs_x = np.where(np.arange(n1) % 2 == 0, 1.0, -1.0)
    signs_y = np.where(np.arange(n2) % 2 == 0, 1.0, -1.0)
    problem = SaddleProblem(
        structure=structure,
        p=1,
        primal_prox=[ProxSpec.box(-w * np.ones(mb), w * np.ones(mb)) for _ in range(m_blocks)],
        dual_prox=[ProxSpec.box(-w * np.ones(nb), w * np.ones(nb)) for _ in range(n_blocks)],
        component_grad_x=lambda l, i, x, y: (A @ y)[i * mb : (i + 1) * mb],
        component_grad_y=lambda l, j, x, y: (A.T @ x)[j * nb : (j + 1) * nb],
        lipschitz=lip,
        grad_x=lambda i, x, y: (A @ y)[i * mb : (i + 1) * mb],
        grad_y=lambda j, x, y: (A.T @ x)[j * nb : (j + 1) * nb],
        batch_grad_x=lambda idx, i, points: np.array(
            [(A @ y)[i * mb : (i + 1) * mb] for _, y in points]
        ),
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
    if m % m_blocks:
        raise ValueError("m_blocks must divide the primal dimension")
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

    def grad_x(i, x, y):
        return (Q @ x + c + G.T @ y)[i * mb : (i + 1) * mb]

    def batch_grad_x(indices, i, points):
        rows = np.asarray(indices, dtype=int)
        G_rows = G[rows, i * mb : (i + 1) * mb]
        scale = p / rows.size
        out = np.empty((len(points), mb))
        x_seen, base = None, None
        for k, (x, y) in enumerate(points):
            if x is not x_seen:
                x_seen, base = x, (Q @ x + c)[i * mb : (i + 1) * mb]
            out[k] = base + scale * (y[rows] @ G_rows)
        return out

    def component_grad_y(l, j, x, y):
        if l == j:
            return np.array([p * (G[j] @ x - d[j])])
        return np.zeros(1)

    def grad_y(j, x, y):
        return np.array([G[j] @ x - d[j]])

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
        component_grad_y=component_grad_y,
        lipschitz=lip,
        grad_x=grad_x,
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

"""Block layouts, prox specifications, and the saddle-problem container.

A problem couples a block-partitioned primal variable x with a
block-partitioned dual variable y through a finite-sum function
Phi(x, y) = (1/p) * sum_l Phi_l(x, y), plus separable nonsmooth terms
handled by per-block proximal operators.  Gradients are user-supplied
closures, not autodifferentiated: the method consumes component- and
block-level partial gradients as first-class oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .bregman import EUCLIDEAN, BregmanGeometry, prox_step

__all__ = [
    "BlockLayout",
    "BlockStructure",
    "ProxSpec",
    "SaddleProblem",
    "Side",
    "ValidationReport",
    "validate_problem",
]

DOMAIN_SLACK = 1e-12  # absolute slack absorbing prox round-off
VALUE_SLACK = 1e-9  # slack of the indicator values f_value / h_value


@dataclass(frozen=True)
class BlockLayout:
    """Dimensions of one side (primal or dual) of a block partition."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 1:
            raise ValueError("need at least one block")
        if any(int(d) < 1 for d in self.dims):
            raise ValueError("block dimensions must be positive")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        ends = accumulate(self.dims)
        object.__setattr__(self, "_ranges", tuple(slice(e - d, e) for d, e in zip(self.dims, ends)))

    @property
    def n_blocks(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def ranges(self) -> tuple[slice, ...]:
        """Every block's slice, in block order."""
        return self._ranges

    def block_range(self, i: int) -> slice:
        if not 0 <= i < len(self._ranges):
            raise IndexError(f"block index {i} out of range [0, {self.n_blocks})")
        return self._ranges[i]


@dataclass(frozen=True)
class BlockStructure:
    """Primal and dual block layouts of a saddle problem."""

    primal: BlockLayout
    dual: BlockLayout

    @classmethod
    def from_dims(cls, primal_dims: Sequence[int], dual_dims: Sequence[int]) -> "BlockStructure":
        return cls(BlockLayout(tuple(primal_dims)), BlockLayout(tuple(dual_dims)))

    @property
    def M(self) -> int:
        return self.primal.n_blocks

    @property
    def N(self) -> int:
        return self.dual.n_blocks

    @property
    def m(self) -> int:
        return self.primal.total_dim

    @property
    def n(self) -> int:
        return self.dual.total_dim


@dataclass(frozen=True)
class ProxSpec:
    """Specification of one block's nonsmooth term f_i or h_j.

    ``kind`` is one of ``zero``, ``box``, ``simplex``, ``nonneg``,
    ``scaled_l1``.  The prox of each kind has a closed form (see
    :func:`rbpda.bregman.prox_step`).
    """

    kind: str
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    weight: float = 0.0
    geometry: BregmanGeometry = EUCLIDEAN

    def __post_init__(self):
        if self.kind not in ("zero", "box", "simplex", "nonneg", "scaled_l1"):
            raise ValueError(f"unknown prox kind: {self.kind!r}")
        if self.kind == "box":
            lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
            hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
            if lo.shape != hi.shape:
                raise ValueError("box bounds must have matching shapes")
            if np.any(lo > hi):
                raise ValueError("box lower bound exceeds upper bound")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        if self.kind == "simplex":
            if self.geometry.kind not in ("euclidean", "negative_entropy"):
                raise ValueError("simplex blocks support Euclidean or entropy geometry")
        elif self.geometry.is_entropy:
            raise ValueError("negative-entropy geometry is only defined on simplex blocks")
        if self.kind == "scaled_l1" and self.weight < 0:
            raise ValueError("scaled_l1 weight must be nonnegative")

    # -- factories -------------------------------------------------------
    @staticmethod
    def zero() -> "ProxSpec":
        return ProxSpec("zero")

    @staticmethod
    def box(lower, upper) -> "ProxSpec":
        return ProxSpec("box", lower=lower, upper=upper)

    @staticmethod
    def simplex(geometry: BregmanGeometry = EUCLIDEAN) -> "ProxSpec":
        return ProxSpec("simplex", geometry=geometry)

    @staticmethod
    def nonneg() -> "ProxSpec":
        return ProxSpec("nonneg")

    @staticmethod
    def scaled_l1(weight: float) -> "ProxSpec":
        return ProxSpec("scaled_l1", weight=float(weight))

    # -- domain helpers --------------------------------------------------
    def contains(self, x, slack: float = DOMAIN_SLACK) -> bool:
        x = np.asarray(x, dtype=float)
        if self.kind in ("zero", "scaled_l1"):
            return bool(np.all(np.isfinite(x)))
        if self.kind == "box":
            return bool(np.all(x >= self.lower - slack) and np.all(x <= self.upper + slack))
        if self.kind == "nonneg":
            return bool(np.all(x >= -slack))
        if self.kind == "simplex":
            return bool(np.all(x >= -slack) and abs(x.sum() - 1.0) <= max(slack, 1e-12 * x.size))
        return False

    def value(self, x) -> float:
        """Function value on the domain: indicators contribute 0, scaled_l1 its norm."""
        x = np.asarray(x, dtype=float)
        if self.kind == "scaled_l1":
            return self.weight * float(np.abs(x).sum())
        return 0.0 if self.contains(x, slack=VALUE_SLACK) else np.inf

    def feasible_point(self, dim: int) -> np.ndarray:
        """An interior-ish point of the domain, used to seed probes and starts."""
        if self.kind == "box":
            return 0.5 * (self.lower + self.upper) * np.ones(dim) if self.lower.size == dim else np.full(
                dim, 0.5 * float(self.lower.ravel()[0] + self.upper.ravel()[0])
            )
        if self.kind == "simplex":
            return np.full(dim, 1.0 / dim)
        return np.zeros(dim)


class Side:
    """One side (primal or dual) of a problem: its layout, prox specs and, where they stack, bounds.

    ``specs`` holds one :class:`ProxSpec` per block of ``layout``.  A side
    stacks when every block is ``box`` or ``nonneg`` (all Euclidean), or
    every block is ``zero``: ``lower`` and ``upper`` then concatenate the
    block bounds (a nonneg coordinate has bounds 0 and +inf; ``upper`` is
    None when no block is a box; both are None on an all-``zero`` side,
    whose domain is the finite vectors).  A box whose bounds neither have
    one entry nor the block's length does not stack.  Every whole-side
    operation takes one numpy call on a side that stacks and loops over the
    blocks otherwise, and both give the per-block results bit for bit, NaN
    and +-inf included.  ``responds`` says whether every block is a box or
    a simplex, the sides :meth:`best_response` serves.
    """

    def __init__(self, name: str, specs, layout: BlockLayout):
        self.name, self.specs, self.layout = name, tuple(specs), layout
        kinds = {spec.kind for spec in self.specs}
        self.responds = kinds <= {"box", "simplex"}
        self.stacks, self.lower, self.upper = kinds == {"zero"}, None, None
        if not kinds <= {"box", "nonneg"}:
            return
        lower, upper = [], []
        for spec, dim in zip(self.specs, layout.dims):
            if spec.kind == "nonneg":
                lower.append(np.zeros(dim))
                upper.append(np.full(dim, np.inf))
            elif spec.lower.shape in ((1,), (dim,)):
                lower.append(np.broadcast_to(spec.lower, (dim,)))
                upper.append(np.broadcast_to(spec.upper, (dim,)))
            else:
                return  # malformed bounds keep the per-block behaviour
        self.stacks, self.lower = True, np.concatenate(lower)
        self.upper = np.concatenate(upper) if "box" in kinds else None

    def _blocks(self, v):
        return zip(self.specs, (v[blk] for blk in self.layout.ranges))

    def contains(self, v, slack: float = DOMAIN_SLACK) -> bool:
        """Whether v lies in the side's domain, up to slack."""
        v = np.asarray(v, dtype=float)
        if not self.stacks:
            return all(spec.contains(vb, slack) for spec, vb in self._blocks(v))
        if self.lower is None:
            return bool(np.isfinite(v).all())
        if not (v >= self.lower - slack).all():
            return False
        return self.upper is None or bool((v <= self.upper + slack).all())

    def value(self, v) -> float:
        """The side's nonsmooth term at v: the mean of the block values (0 or inf for indicators)."""
        if self.stacks:
            return 0.0 if self.contains(v, VALUE_SLACK) else np.inf
        return float(sum(spec.value(vb) for spec, vb in self._blocks(v)) / self.layout.n_blocks)

    def prox(self, linear, step: float, base, geometry: Optional[BregmanGeometry] = None) -> np.ndarray:
        """Every block's :func:`~rbpda.bregman.prox_step`, as a new whole-side array.

        ``geometry`` replaces every block's own geometry when given.  A side
        that stacks takes a gradient step clipped to its bounds, without
        prox_step's finiteness check of ``linear``.
        """
        if not self.stacks:
            out = np.empty(self.layout.total_dim)
            for spec, blk in zip(self.specs, self.layout.ranges):
                geom = spec.geometry if geometry is None else geometry
                out[blk] = prox_step(geom, spec, linear[blk], step, base[blk])
            return out
        point = base - step * linear
        if self.lower is None:
            return point
        # np.clip's values bit for bit, in place, without its Python-level wrapper
        np.maximum(point, self.lower, out=point)
        return point if self.upper is None else np.minimum(point, self.upper, out=point)

    def best_response(self, g, maximize: bool) -> np.ndarray:
        """The point of a :attr:`responds` side that maximizes (or minimizes) <g, .>.

        A box coordinate takes its upper bound where the signed gradient is
        positive and its lower bound otherwise (0.0, -0.0 and NaN included);
        a simplex block takes the vertex of its first largest signed entry.
        """
        g = g if maximize else -g
        if self.stacks:
            return np.where(g > 0, self.upper, self.lower)
        out = np.zeros(self.layout.total_dim)
        for spec, blk in zip(self.specs, self.layout.ranges):
            if spec.kind == "box":
                out[blk] = np.where(g[blk] > 0, spec.upper, spec.lower)
            else:
                out[blk.start + int(np.argmax(g[blk]))] = 1.0
        return out

    def start(self) -> np.ndarray:
        """Every block's :meth:`ProxSpec.feasible_point`, the default start."""
        return np.concatenate([spec.feasible_point(d) for spec, d in zip(self.specs, self.layout.dims)])

    def probe(self, rng: np.random.Generator) -> np.ndarray:
        """A random domain point: a Gaussian draw under the Euclidean prox of every block."""
        dim = self.layout.total_dim
        return self.prox(np.zeros(dim), 1.0, rng.standard_normal(dim), EUCLIDEAN)


@dataclass
class SaddleProblem:
    """Finite-sum convex-concave saddle problem with block structure.

    Required oracles
    ----------------
    component_grad_x(l, i, x, y)
        Partial gradient of Phi_l with respect to primal block i.
    grad_y(j, points)
        Full partial gradient of Phi with respect to dual block j at every
        ``(x, y)`` pair of ``points``, as a ``(len(points), dim_j)`` array.
        The solver passes its two extrapolation points, ``(x^k, y^k)`` and
        ``(x^(k-1), y^(k-1))``, in one call, or only ``(x^k, y^k)`` when it
        kept the other row from the step before; each row must be exactly
        what a one-point call would return.  The solver keeps the returned
        array between steps, so an implementation must not write to it
        after returning it.  Only the primal side is sampled, so the dual
        oracle is always a block's full partial gradient.

    A step of the solver calls ``grad_y``, or on a one-coordinate dual block
    ``one_row_grad_y`` in its place, and ``batch_grad_x``, or at batch size
    1 ``one_row_grad_x`` in its place (below); the full-gradient baseline
    and the sup-gap best responses call one full gradient per side,
    ``full_grad_x`` and ``full_grad_y``.  Of these,
    ``batch_grad_x``, ``full_grad_x`` and ``full_grad_y`` default to
    enumeration: ``batch_grad_x`` and ``full_grad_x`` of the
    component closures, ``full_grad_y`` of the ``grad_y`` rows; built-in
    problems override them with vectorized closures.  Function values
    (``phi_value``, ``phi_component``) are needed only by metrics and may
    stay ``None``, in which case metrics degrade gracefully.

    batch_grad_x(indices, i, points, weights)
        The weighted sum ``sum_k weights[k] * g_k`` as a ``(dim_i,)``
        array, where ``g_k`` is the mean over ``indices`` of
        component_grad_x(l, i, x_k, y_k) at the k-th ``(x_k, y_k)`` pair of
        ``points``; a single point of weight 1.0 gives that point's mean.
        ``indices`` may be a read-only view of the run's drawn indices.
        The solver passes its three extrapolation points in one call, two of
        which share the primal array x^k, with the weights ``(1, c, -c)``,
        ``c = (N-1) theta^k``, and takes M times the result as its primal
        linear term.  An implementation should do the x-dependent
        work (row gathers, margins, Q x) once per distinct primal array,
        recognised by identity, and fold the weights in before its products
        with the data, so that a call costs one product, not one per point.

    one_row_grad_x(l, i, points, weights, cache)
        Optional: ``batch_grad_x`` at the one index ``l`` (an int) in
        factored form, ``(coef, row)``: a float and a float64 ``(dim_i,)``
        array whose product ``coef * row`` equals
        ``batch_grad_x([l], i, points, weights)`` bit for bit, under the
        coupling cache ``cache``, which it always receives (None without
        one); robust ERM's row is a block of a data row.  ``row_bound``
        bounds every entry of every row in absolute value (inf, the
        default, when no bound is known).  A step of batch size 1 calls it instead of
        ``batch_grad_x`` while the instance's ``batch_grad_x`` is still the
        one the problem was built with, and its prox forms
        ``M * (coef * row)`` in place; a wrapper set on ``batch_grad_x``
        afterwards switches this off, so the wrapper sees every call.

    one_row_grad_y(j, points, cache)
        Optional: the column of ``grad_y(j, points)`` on a one-coordinate
        dual block j, as a sequence of Python floats, one per point, each
        with the bits of ``grad_y``'s entry, under the coupling cache
        ``cache``, which it always receives (None without one).  A step
        calls it instead of ``grad_y`` on such a block while the instance's
        ``grad_y`` is still the one the problem was built with, and keeps
        the dual step in Python floats; a wrapper set on ``grad_y``
        afterwards switches this off, so the wrapper sees every call.

    full_grad_x(x, y) and full_grad_y(x, y)
        The whole-side partial gradients of Phi at one point, as ``(m,)``
        and ``(n,)`` arrays: every block's component mean, and every block's
        ``grad_y`` row, in block order.

    coupling_cache(x, y, x_prev, y_prev, v)
        Optional factory of a per-run cache of coupling products (robust ERM
        keeps the margins ``A x^k`` and ``A x^(k-1)``).  :func:`rbpda.run`
        calls it once, over the run's iterate buffers after the start point
        is set, with v the largest batch size the run can draw (p for an
        increasing schedule, the constant v otherwise); a hand-driven caller
        passes p.  It returns a synced cache, or None where keeping the
        products would cost more than the rows they save at batch size v,
        decided from the problem's sizes and v alone.  The cache lives on
        the run state, never on the problem, because concurrent runs share
        problems.  The contract:

        * the solver passes the cache as the keyword ``cache=`` to
          ``grad_y``, ``batch_grad_x``, ``full_grad_y`` and ``full_grad_x``
          (never otherwise, so problems without a cache keep their
          signatures), and as the last argument to ``one_row_grad_x`` and
          ``one_row_grad_y``;
        * the oracles look cached products up by identity of the primal
          array they receive (x^k or x^(k-1)); any other array is computed
          from scratch, so a cache never changes what an oracle means;
        * ``cache.move(i, dx)`` runs after a step has succeeded and its
          blocks are written: the cached x^k products become the x^(k-1)
          products, and the x^k products take the rank-block update of
          primal block i by ``dx``;
        * every ``cache.period`` moves the cache recomputes its products
          exactly, which bounds rounding drift whatever the run length;
        * ``cache.sync()`` recomputes the products exactly from the
          buffers; a restart syncs the cache (x^(k-1) was set to x^k), and
          each full-gradient baseline step syncs its cache;
        * ``cache.syncs`` counts the syncs, the one of a new cache included:
          a dual gradient computed from the cached products is reused by
          the next step only while the count is unchanged, because a sync
          can move the cached x^(k-1) products in their last bits.

        The default oracles accept the keyword and ignore it.

    ``sides`` holds the (primal, dual) :class:`Side`, which owns every
    whole-side operation on the prox specs: the domain checks, the values
    of f and h, the whole-side prox and the best responses.  It is built on
    first use and kept; ``__post_init__`` drops it, so call it again after
    replacing the prox specs.
    """

    structure: BlockStructure
    p: int
    primal_prox: list
    dual_prox: list
    component_grad_x: Callable[[int, int, np.ndarray, np.ndarray], np.ndarray]
    lipschitz: "object" = None  # BlockLipschitz; typed loosely to avoid an import cycle
    grad_y: Optional[Callable] = None
    batch_grad_x: Optional[Callable] = None
    full_grad_x: Optional[Callable] = None
    full_grad_y: Optional[Callable] = None
    phi_value: Optional[Callable] = None
    phi_component: Optional[Callable] = None
    coupling_cache: Optional[Callable] = None
    one_row_grad_x: Optional[Callable] = None
    one_row_grad_y: Optional[Callable] = None
    row_bound: float = math.inf
    start_x: Optional[np.ndarray] = None
    start_y: Optional[np.ndarray] = None
    name: str = "problem"
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if len(self.primal_prox) != self.structure.M:
            raise ValueError("need one primal prox spec per primal block")
        if len(self.dual_prox) != self.structure.N:
            raise ValueError("need one dual prox spec per dual block")
        if self.grad_y is None:
            raise ValueError("need grad_y")
        if not self.row_bound >= 0:  # also rejects NaN
            raise ValueError(f"row_bound must be nonnegative, got row_bound = {self.row_bound}")
        if self.batch_grad_x is None:
            self.batch_grad_x = self._batch_grad_x_looped
        # the batch_grad_x that one_row_grad_x factors and the grad_y whose
        # column one_row_grad_y gives; a step compares them by identity
        self._one_row_x_of, self._one_row_y_of = self.batch_grad_x, self.grad_y
        if self.full_grad_x is None:
            everything = np.arange(self.p)
            self.full_grad_x = lambda x, y, cache=None: np.concatenate(
                [self._batch_grad_x_looped(everything, i, ((x, y),), (1.0,)) for i in range(self.structure.M)]
            )
        if self.full_grad_y is None:
            self.full_grad_y = lambda x, y, cache=None: np.concatenate(
                [np.asarray(self.grad_y(j, [(x, y)]))[0] for j in range(self.structure.N)]
            )
        self._sides = None
        if self.start_x is None:
            self.start_x = self.sides[0].start()
        if self.start_y is None:
            self.start_y = self.sides[1].start()

    @property
    def sides(self) -> tuple:
        """The (primal, dual) :class:`Side`, built on first use."""
        if self._sides is None:
            st = self.structure
            self._sides = (Side("primal", self.primal_prox, st.primal), Side("dual", self.dual_prox, st.dual))
        return self._sides

    # -- default oracle built on the component closure ---------------------
    def _batch_grad_x_looped(self, indices, i, points, weights, cache=None):
        indices = np.asarray(indices, dtype=int)
        total = None
        for (x, y), w in zip(points, weights):
            acc = self.component_grad_x(int(indices[0]), i, x, y).astype(float, copy=True)
            for l in indices[1:]:
                acc += self.component_grad_x(int(l), i, x, y)
            term = w * (acc / indices.size)
            total = term if total is None else total + term
        return total

    # -- values ------------------------------------------------------------
    def f_value(self, x) -> float:
        return self.sides[0].value(x)

    def h_value(self, y) -> float:
        return self.sides[1].value(y)

    def lagrangian(self, x, y) -> Optional[float]:
        """L(x, y) = f(x) + Phi(x, y) - h(y); None when Phi values are unavailable."""
        if self.phi_value is None:
            return None
        return self.f_value(x) + float(self.phi_value(x, y)) - self.h_value(y)

    def in_domain(self, x, y, slack: float = DOMAIN_SLACK) -> bool:
        return self.sides[0].contains(x, slack) and self.sides[1].contains(y, slack)


@dataclass
class ValidationReport:
    """Structured list of failed consistency checks; empty means the problem passed."""

    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def _probe_points(problem: SaddleProblem, rng: np.random.Generator, count: int):
    """Random domain points: each (x, y) is the primal, then the dual :meth:`Side.probe`."""
    primal, dual = problem.sides
    return [(primal.probe(rng), dual.probe(rng)) for _ in range(count)]


def validate_problem(
    problem: SaddleProblem,
    tolerance: float = 1e-8,
    probes: int = 3,
    seed: int = 0,
    max_enumeration: int = 10_000,
) -> ValidationReport:
    """Check the consistency promises of the finite-sum structure.

    Flags dimension mismatches (also a ``batch_grad_x`` return that is not
    ``(dim_i,)`` and a one-point ``grad_y`` return that is not
    ``(1, dim_j)``), empty prox domains, and beyond ``tolerance`` at random
    domain probes: a weighted ``batch_grad_x`` call over the probes that
    differs from the weighted component means, a ``full_grad_x`` block that
    differs from the block's component mean (the finite-sum identity), a
    ``full_grad_y`` block that differs from the ``grad_y`` row, and
    Phi-value inconsistencies.  These probe checks are skipped when p
    exceeds ``max_enumeration``.  A ``one_row_grad_x`` is checked at index
    0 of every block, at one probe and at all probes with random weights:
    its row must be a float64 ``(dim_i,)`` array within ``row_bound``, and
    ``coef * row`` must have the bits of ``batch_grad_x([0], ...)``.  A
    ``one_row_grad_y`` is checked at every one-coordinate dual block, at one
    probe and at all probes: it must give one Python float per point, with
    the bits of ``grad_y``'s column.  Returns a report; never raises.
    """
    failures = []
    st = problem.structure
    rng = np.random.default_rng(seed)

    for side in problem.sides:
        for b, (spec, dim) in enumerate(zip(side.specs, side.layout.dims)):
            if spec.kind == "box" and spec.lower.size not in (1, dim):
                failures.append(f"{side.name} block {b}: box bound length does not match block dimension")
            if spec.kind == "box" and np.any(spec.lower > spec.upper):
                failures.append(f"{side.name} block {b}: empty box domain")

    try:
        points = _probe_points(problem, rng, probes)
    except Exception as exc:  # noqa: BLE001 - report, never abort
        failures.append(f"could not generate probe points: {exc}")
        return ValidationReport(failures)

    for x, y in points:
        for i in range(st.M):
            try:
                g = np.asarray(problem.component_grad_x(0, i, x, y))
            except Exception as exc:  # noqa: BLE001
                failures.append(f"component_grad_x(0, {i}) raised: {exc}")
                continue
            if g.shape != (st.primal.dims[i],):
                failures.append(
                    f"component_grad_x block {i}: shape {g.shape} != ({st.primal.dims[i]},)"
                )
            try:
                g = np.asarray(problem.batch_grad_x(np.array([0]), i, [(x, y)], (1.0,)))
            except Exception as exc:  # noqa: BLE001
                failures.append(f"batch_grad_x([0], {i}) raised: {exc}")
                continue
            if g.shape != (st.primal.dims[i],):
                failures.append(f"batch_grad_x block {i}: shape {g.shape} != ({st.primal.dims[i]},)")
        for j in range(st.N):
            try:
                g = np.asarray(problem.grad_y(j, [(x, y)]))
            except Exception as exc:  # noqa: BLE001
                failures.append(f"grad_y({j}) raised: {exc}")
                continue
            if g.shape != (1, st.dual.dims[j]):
                failures.append(f"grad_y block {j}: shape {g.shape} != (1, {st.dual.dims[j]})")
        if failures:
            break

    if problem.p <= max_enumeration and not failures:
        everything = np.arange(problem.p)
        weights = tuple(rng.uniform(-2.0, 2.0, len(points)))
        for i in range(st.M):
            try:
                got = np.asarray(problem.batch_grad_x(everything, i, points, weights))
                want = problem._batch_grad_x_looped(everything, i, points, weights)
            except Exception as exc:  # noqa: BLE001
                failures.append(f"weighted batch_grad_x failed at block {i}: {exc}")
                continue
            err = np.linalg.norm(got - want)
            if err > tolerance * (1.0 + np.linalg.norm(want)):
                failures.append(
                    f"batch_grad_x mismatch at primal block {i}: "
                    f"|weighted call - weighted component means| = {err:.3e}"
                )
        for x, y in points:
            try:
                full_x = np.asarray(problem.full_grad_x(x, y))
                means = [problem._batch_grad_x_looped(everything, i, [(x, y)], (1.0,)) for i in range(st.M)]
                full_y = np.asarray(problem.full_grad_y(x, y))
                rows = [np.asarray(problem.grad_y(j, [(x, y)]))[0] for j in range(st.N)]
            except Exception as exc:  # noqa: BLE001
                failures.append(f"full-gradient check failed: {exc}")
                continue
            if full_x.shape != (st.m,) or full_y.shape != (st.n,):
                failures.append(f"full gradient shapes {full_x.shape}, {full_y.shape} != ({st.m},), ({st.n},)")
                continue
            for i, blk in enumerate(st.primal.ranges):
                err = np.linalg.norm(means[i] - full_x[blk])
                if err > tolerance * (1.0 + np.linalg.norm(full_x[blk])):
                    failures.append(
                        f"finite-sum mismatch at primal block {i}: "
                        f"|mean component grad - full_grad_x| = {err:.3e}"
                    )
            for j, blk in enumerate(st.dual.ranges):
                err = np.linalg.norm(rows[j] - full_y[blk])
                if err > tolerance * (1.0 + np.linalg.norm(rows[j])):
                    failures.append(
                        f"full_grad_y mismatch at dual block {j}: |full_grad_y slice - grad_y row| = {err:.3e}"
                    )
            if problem.phi_value is not None and problem.phi_component is not None:
                total = sum(problem.phi_component(l, x, y) for l in range(problem.p)) / problem.p
                full = problem.phi_value(x, y)
                if abs(total - full) > tolerance * (1.0 + abs(full)):
                    failures.append(
                        f"Phi value mismatch: mean of components {total:.6e} vs full {full:.6e}"
                    )

    if problem.one_row_grad_x is not None and not failures:
        weights = tuple(rng.uniform(-2.0, 2.0, len(points)))
        for i, dim in enumerate(st.primal.dims):
            for pts, ws in ((points[:1], (1.0,)), (points, weights)):
                try:
                    coef, row = problem.one_row_grad_x(0, i, pts, ws, None)
                    want = np.asarray(problem.batch_grad_x(np.array([0]), i, pts, ws), dtype=float)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"one_row_grad_x(0, {i}) raised: {exc}")
                    break
                if type(row) is not np.ndarray or row.dtype != np.float64 or row.shape != (dim,):
                    failures.append(f"one_row_grad_x block {i}: the row is not a float64 ({dim},) array")
                elif not np.abs(row).max() <= problem.row_bound:
                    failures.append(f"one_row_grad_x block {i}: a row entry exceeds row_bound")
                elif (coef * row).tobytes() != want.tobytes():
                    failures.append(f"one_row_grad_x block {i}: coef * row differs from batch_grad_x([0]) in its bits")

    if problem.one_row_grad_y is not None and not failures:
        for j, dim in enumerate(st.dual.dims):
            if dim != 1:
                continue
            for pts in (points[:1], points):
                try:
                    got = list(problem.one_row_grad_y(j, pts, None))
                    want = np.asarray(problem.grad_y(j, pts), dtype=float)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"one_row_grad_y({j}) raised: {exc}")
                    break
                if len(got) != len(pts) or any(type(g) is not float for g in got):
                    failures.append(f"one_row_grad_y block {j}: not one Python float per point")
                elif want.shape != (len(pts), 1) or np.array(got).tobytes() != want.tobytes():
                    failures.append(f"one_row_grad_y block {j}: differs from grad_y's column in its bits")

    return ValidationReport(failures)

"""Block layouts, prox specifications, and the saddle-problem container.

A problem couples a block-partitioned primal variable x with a
block-partitioned dual variable y through a finite-sum function
Phi(x, y) = (1/p) * sum_l Phi_l(x, y), plus separable nonsmooth terms
handled by per-block proximal operators.  Gradients are user-supplied
closures, not autodifferentiated: the method consumes component- and
block-level partial gradients as first-class oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .bregman import EUCLIDEAN, BregmanGeometry

__all__ = [
    "BlockLayout",
    "BlockStructure",
    "ProxSpec",
    "SaddleProblem",
    "SideBounds",
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


@dataclass(frozen=True)
class SideBounds:
    """One side's domain as whole-vector bounds, where its block kinds allow it.

    ``lower`` and ``upper`` concatenate the block bounds of a side whose
    blocks are all ``box`` or ``nonneg`` (a nonneg coordinate has upper bound
    +inf; ``upper`` is None when no block is a box).  Both are None on an
    all-``zero`` side, whose domain check is finiteness.  :meth:`contains`
    gives exactly the per-block :meth:`ProxSpec.contains` result, NaN and
    +-inf included.
    """

    lower: Optional[np.ndarray]
    upper: Optional[np.ndarray]

    @classmethod
    def of(cls, specs, layout: BlockLayout) -> Optional["SideBounds"]:
        """Stacked bounds of a side, or None when it needs the per-block loop."""
        kinds = {spec.kind for spec in specs}
        if kinds == {"zero"}:
            return cls(None, None)
        if not kinds <= {"box", "nonneg"}:
            return None
        lower, upper = [], []
        for spec, dim in zip(specs, layout.dims):
            if spec.kind == "nonneg":
                lower.append(np.zeros(dim))
                upper.append(np.full(dim, np.inf))
            elif spec.lower.shape in ((1,), (dim,)):
                lower.append(np.broadcast_to(spec.lower, (dim,)))
                upper.append(np.broadcast_to(spec.upper, (dim,)))
            else:
                return None  # malformed bounds keep the per-block behaviour
        return cls(np.concatenate(lower), np.concatenate(upper) if "box" in kinds else None)

    def contains(self, v, slack: float = DOMAIN_SLACK) -> bool:
        v = np.asarray(v, dtype=float)
        if self.lower is None:
            return bool(np.isfinite(v).all())
        if not (v >= self.lower - slack).all():
            return False
        return self.upper is None or bool((v <= self.upper + slack).all())


@dataclass
class SaddleProblem:
    """Finite-sum convex-concave saddle problem with block structure.

    Required oracles
    ----------------
    component_grad_x(l, i, x, y)
        Partial gradient of Phi_l with respect to primal block i.
    component_grad_y(l, j, x, y)
        Partial gradient of Phi_l with respect to dual block j.  The solver
        never calls it; it is required only when ``grad_y`` is not given,
        since the default ``grad_y`` enumerates it.

    A step of the solver calls ``grad_y`` and ``batch_grad_x``; the
    full-gradient baseline and the sup-gap best responses call one full
    gradient per side, ``full_grad_x`` and ``full_grad_y``.  All four default
    to enumeration of the components; built-in problems override them with
    vectorized closures.  Function values (``phi_value``, ``phi_component``)
    are needed only by metrics and may stay ``None``, in which case metrics
    degrade gracefully.

    grad_y(j, points)
        Full partial gradient of Phi with respect to dual block j at every
        ``(x, y)`` pair of ``points``, as a ``(len(points), dim_j)`` array.
        The solver passes its two extrapolation points, ``(x^k, y^k)`` and
        ``(x^(k-1), y^(k-1))``, in one call, or only ``(x^k, y^k)`` when it
        kept the other row from the step before; each row must be exactly
        what a one-point call would return.  The solver keeps the returned
        array between steps, so an implementation must not write to it
        after returning it.

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

    full_grad_x(x, y) and full_grad_y(x, y)
        The whole-side partial gradients of Phi at one point, as ``(m,)``
        and ``(n,)`` arrays: every block's component mean, and every block's
        ``grad_y`` row, in block order.

    coupling_cache(x, y, x_prev, y_prev)
        Optional factory of a per-run cache of coupling products (robust ERM
        keeps the margins ``A x^k`` and ``A x^(k-1)``).  :func:`rbpda.run`
        builds one over the run's iterate buffers after the start point is
        set; it lives on the run state, never on the problem, because
        concurrent runs share problems.  A cache is on (its products are
        current) or off (it holds nothing the oracles may read).  The
        contract:

        * a new cache is synced and on;
        * ``cache.plan(v)``, called by :func:`rbpda.run` before the first
          step and before every step whose expected batch size v differs
          from the last one planned (v comes from the run's counters and
          batch schedule, so a seed reproduces it), returns whether the
          cache stays on until the next call.  It turns the cache on only
          with an exact ``cache.sync()``, and decides from the problem's
          sizes and v alone, so it is idempotent for an unchanged v;
        * while the cache is on, the solver passes it as the keyword
          ``cache=`` to ``grad_y``, ``batch_grad_x``, ``full_grad_y`` and
          ``full_grad_x`` (never otherwise, so problems without a cache
          keep their signatures);
        * the oracles look cached products up by identity of the primal
          array they receive (x^k or x^(k-1)); any other array, or any
          array while the cache is off, is computed from scratch, so a
          cache never changes what an oracle means;
        * ``cache.move(i, dx)`` runs only while the cache is on, after a
          step has succeeded and its blocks are written: the cached x^k
          products become the x^(k-1) products, and the x^k products take
          the rank-block update of primal block i by ``dx``;
        * every ``cache.period`` moves the cache recomputes its products
          exactly, which bounds rounding drift whatever the run length;
        * ``cache.sync()`` recomputes the products exactly from the
          buffers and turns the cache on; a restart syncs a cache that is
          on (x^(k-1) was set to x^k), and each full-gradient baseline step
          syncs its cache;
        * ``cache.syncs`` counts the syncs, the one of a new cache included:
          a dual gradient computed from the cached products is reused by
          the next step only while the count is unchanged, because a sync
          can move the cached x^(k-1) products in their last bits.

        The default oracles accept the keyword and ignore it.

    Whole-side domain bounds (:meth:`side_bounds`) are built on first use
    and cached; ``__post_init__`` clears the cache, so call it again after
    replacing the prox specs.
    """

    structure: BlockStructure
    p: int
    primal_prox: list
    dual_prox: list
    component_grad_x: Callable[[int, int, np.ndarray, np.ndarray], np.ndarray]
    component_grad_y: Optional[Callable[[int, int, np.ndarray, np.ndarray], np.ndarray]] = None
    lipschitz: "object" = None  # BlockLipschitz; typed loosely to avoid an import cycle
    grad_y: Optional[Callable] = None
    batch_grad_x: Optional[Callable] = None
    full_grad_x: Optional[Callable] = None
    full_grad_y: Optional[Callable] = None
    phi_value: Optional[Callable] = None
    phi_component: Optional[Callable] = None
    coupling_cache: Optional[Callable] = None
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
        if self.grad_y is None and self.component_grad_y is None:
            raise ValueError("need grad_y or component_grad_y")
        if self.grad_y is None:
            self.grad_y = self._grad_y_enumerated
        if self.batch_grad_x is None:
            self.batch_grad_x = self._batch_grad_x_looped
        if self.full_grad_x is None:
            everything = np.arange(self.p)
            self.full_grad_x = lambda x, y, cache=None: np.concatenate(
                [self._batch_grad_x_looped(everything, i, ((x, y),), (1.0,)) for i in range(self.structure.M)]
            )
        if self.full_grad_y is None:
            self.full_grad_y = lambda x, y, cache=None: np.concatenate(
                [np.asarray(self.grad_y(j, [(x, y)]))[0] for j in range(self.structure.N)]
            )
        if self.start_x is None:
            self.start_x = np.concatenate(
                [self.primal_prox[i].feasible_point(d) for i, d in enumerate(self.structure.primal.dims)]
            )
        if self.start_y is None:
            self.start_y = np.concatenate(
                [self.dual_prox[j].feasible_point(d) for j, d in enumerate(self.structure.dual.dims)]
            )
        self._side_bounds = None

    def side_specs(self, side: int) -> tuple:
        """(prox specs, layout) of side 0 (primal) or 1 (dual)."""
        if side:
            return self.dual_prox, self.structure.dual
        return self.primal_prox, self.structure.primal

    def side_bounds(self) -> tuple:
        """(primal, dual) :class:`SideBounds`, None for a side that needs the per-block loop."""
        if self._side_bounds is None:
            self._side_bounds = tuple(SideBounds.of(*self.side_specs(side)) for side in (0, 1))
        return self._side_bounds

    # -- default oracles built on the component closures ------------------
    def _grad_y_enumerated(self, j, points, cache=None):
        means = []
        for x, y in points:
            acc = self.component_grad_y(0, j, x, y).astype(float, copy=True)
            for l in range(1, self.p):
                acc += self.component_grad_y(l, j, x, y)
            means.append(acc / self.p)
        return np.stack(means)

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
    def _side_value(self, side: int, v) -> float:
        bounds = self.side_bounds()[side]
        if bounds is not None:
            return 0.0 if bounds.contains(v, VALUE_SLACK) else np.inf
        specs, lay = self.side_specs(side)
        return float(
            sum(specs[b].value(v[lay.block_range(b)]) for b in range(lay.n_blocks)) / lay.n_blocks
        )

    def f_value(self, x) -> float:
        return self._side_value(0, x)

    def h_value(self, y) -> float:
        return self._side_value(1, y)

    def lagrangian(self, x, y) -> Optional[float]:
        """L(x, y) = f(x) + Phi(x, y) - h(y); None when Phi values are unavailable."""
        if self.phi_value is None:
            return None
        return self.f_value(x) + float(self.phi_value(x, y)) - self.h_value(y)

    def in_domain(self, x, y, slack: float = DOMAIN_SLACK) -> bool:
        return self.side_contains(0, x, slack) and self.side_contains(1, y, slack)

    def side_contains(self, side: int, v, slack: float = DOMAIN_SLACK) -> bool:
        """Whether v lies in the domain of side 0 (primal) or 1 (dual), up to slack."""
        bounds = self.side_bounds()[side]
        if bounds is not None:
            return bounds.contains(v, slack)
        specs, lay = self.side_specs(side)
        return all(specs[b].contains(v[lay.block_range(b)], slack) for b in range(lay.n_blocks))


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
    """Random domain points, obtained by proxing raw Gaussian draws block by block."""
    from .bregman import prox_step  # local import keeps module load order flexible

    pts = []
    for _ in range(count):
        x = np.empty(problem.structure.m)
        for i, d in enumerate(problem.structure.primal.dims):
            spec = problem.primal_prox[i]
            raw = rng.standard_normal(d)
            x[problem.structure.primal.block_range(i)] = prox_step(
                EUCLIDEAN, spec if not spec.geometry.is_entropy else ProxSpec.simplex(), np.zeros(d), 1.0, raw
            )
        y = np.empty(problem.structure.n)
        for j, d in enumerate(problem.structure.dual.dims):
            spec = problem.dual_prox[j]
            raw = rng.standard_normal(d)
            y[problem.structure.dual.block_range(j)] = prox_step(
                EUCLIDEAN, spec if not spec.geometry.is_entropy else ProxSpec.simplex(), np.zeros(d), 1.0, raw
            )
        pts.append((x, y))
    return pts


def validate_problem(
    problem: SaddleProblem,
    tolerance: float = 1e-8,
    probes: int = 3,
    seed: int = 0,
    max_enumeration: int = 10_000,
) -> ValidationReport:
    """Check the consistency promises of the finite-sum structure.

    Flags dimension mismatches (also a ``batch_grad_x`` return that is not
    ``(dim_i,)``), empty prox domains, and beyond ``tolerance`` at random
    domain probes: a weighted ``batch_grad_x`` call over the probes that
    differs from the weighted component means, a ``full_grad_x`` block that
    differs from the block's component mean (the finite-sum identity), a
    ``full_grad_y`` block that differs from the ``grad_y`` row, and
    Phi-value inconsistencies.  These probe checks are skipped when p
    exceeds ``max_enumeration``.  Returns a report; never raises.
    """
    failures = []
    st = problem.structure
    rng = np.random.default_rng(seed)

    for i, spec in enumerate(problem.primal_prox):
        if spec.kind == "box" and spec.lower.size not in (1, st.primal.dims[i]):
            failures.append(f"primal block {i}: box bound length does not match block dimension")
        if spec.kind == "box" and np.any(spec.lower > spec.upper):
            failures.append(f"primal block {i}: empty box domain")
    for j, spec in enumerate(problem.dual_prox):
        if spec.kind == "box" and spec.lower.size not in (1, st.dual.dims[j]):
            failures.append(f"dual block {j}: box bound length does not match block dimension")
        if spec.kind == "box" and np.any(spec.lower > spec.upper):
            failures.append(f"dual block {j}: empty box domain")

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
        for j in range(st.N if problem.component_grad_y is not None else 0):
            try:
                g = np.asarray(problem.component_grad_y(0, j, x, y))
            except Exception as exc:  # noqa: BLE001
                failures.append(f"component_grad_y(0, {j}) raised: {exc}")
                continue
            if g.shape != (st.dual.dims[j],):
                failures.append(
                    f"component_grad_y block {j}: shape {g.shape} != ({st.dual.dims[j]},)"
                )
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

    return ValidationReport(failures)

"""Bregman distances and the per-block proximal step.

Every block of the primal and dual variables carries a Bregman geometry:
either the usual half-squared Euclidean distance, or negative entropy on
the probability simplex (whose Bregman distance is the KL divergence).
The proximal step solves, exactly and in closed form,

    minimize_x  g(x) + <r, x> + (1/t) * D(x, x_bar)

for the supported choices of g (see ``ProxSpec`` in :mod:`rbpda.blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "BregmanGeometry",
    "EUCLIDEAN",
    "NEGATIVE_ENTROPY",
    "DomainError",
    "bregman_distance",
    "prox_kernel",
    "prox_step",
    "project_simplex",
]


class DomainError(ValueError):
    """Raised when a point lies outside the geometry's domain."""


@dataclass(frozen=True)
class BregmanGeometry:
    """A 1-strongly-convex reference function for one block.

    Parameters
    ----------
    kind : str
        Either ``"euclidean"`` or ``"negative_entropy"``.
    epsilon_floor : float
        Entropy boundary guard: multiplicative updates never produce exact
        zeros, but serialized warm starts might, so iterates are kept at or
        above this floor before normalization.
    """

    kind: str = "euclidean"
    epsilon_floor: float = 1e-30

    def __post_init__(self):
        if self.kind not in ("euclidean", "negative_entropy"):
            raise ValueError(f"unknown Bregman geometry kind: {self.kind!r}")
        if not self.epsilon_floor > 0:
            raise ValueError("epsilon_floor must be positive")

    @property
    def is_entropy(self) -> bool:
        return self.kind == "negative_entropy"


EUCLIDEAN = BregmanGeometry("euclidean")
NEGATIVE_ENTROPY = BregmanGeometry("negative_entropy")


def bregman_distance(geom: BregmanGeometry, x, x_bar) -> float:
    """Evaluate D(x, x_bar) for the given geometry.

    Euclidean geometry gives half the squared distance; negative entropy on
    the simplex gives the KL divergence.  ``x_bar`` must be strictly inside
    the domain for entropy (every coordinate at least ``epsilon_floor``).
    """
    x = np.asarray(x, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    if x.shape != x_bar.shape:
        raise ValueError("dimension mismatch between x and x_bar")
    if not geom.is_entropy:
        d = x - x_bar
        return 0.5 * float(d @ d)
    if np.any(x_bar < geom.epsilon_floor):
        raise DomainError("reference point on the entropy boundary")
    if np.any(x < 0):
        raise DomainError("entropy distance needs nonnegative x")
    # KL divergence; 0 * log(0 / q) = 0 by convention.
    ratio = np.where(x > 0, x / x_bar, 1.0)
    return float(np.sum(np.where(x > 0, x * np.log(ratio), 0.0)) - x.sum() + x_bar.sum())


def project_simplex(v) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex.

    Sort-based algorithm; exactness matters for the KKT-residual tests.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u - (css - 1.0) / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _soft_threshold(z, thresh):
    return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


_FLOAT64 = np.dtype(float)
FLOAT_KINDS = ("zero", "box", "nonneg")  # the kinds whose kernels run in Python floats


def _checked(linear, step: float, x_bar):
    """``(linear, x_bar)`` as float arrays, after the shape, finiteness and step checks of every kind."""
    # a float64 ndarray is used as it is, without the asarray call
    r = linear if type(linear) is np.ndarray and linear.dtype is _FLOAT64 else np.asarray(linear, dtype=float)
    if type(x_bar) is not np.ndarray or x_bar.dtype is not _FLOAT64:
        x_bar = np.asarray(x_bar, dtype=float)
    if r.shape != x_bar.shape:
        raise ValueError("dimension mismatch between linear term and x_bar")
    # entrywise and without arithmetic: r.r would be cheaper but overflows
    # (and warns) once entries pass ~1e154.  A zero byte in the isfinite mask
    # is a non-finite entry; the byte search costs less than count_nonzero,
    # whose Python-level dispatch is most of its time at block sizes
    if b"\x00" in np.isfinite(r).tobytes():
        raise ValueError("non-finite entries in the linear term")
    if not step > 0:
        raise ValueError("step must be positive")
    return r, x_bar


def _float_clip(lo: float, hi: float):
    """The prox of a one-coordinate box [lo, hi] in Python floats, with the checks of every kind.

    A zero block has the bounds -inf and inf, a nonneg block 0 and inf:
    clipping to an infinite bound gives the same bits as not clipping.  The
    operations and their order are those of the array kernel, and the
    comparisons are numpy's ``maximum``/``minimum`` (a tie keeps the bound,
    a NaN point stays NaN), so the result equals the one-element array
    result bit for bit.
    """

    def prox_float(r, step, x_bar):
        if not math.isfinite(r):
            raise ValueError("non-finite entries in the linear term")
        if not step > 0:
            raise ValueError("step must be positive")
        point = x_bar - step * r
        point = point if point > lo or point != point else lo
        return point if point < hi or point != point else hi

    return prox_float


def _list_clip(lower, upper, array):
    """The prox of a box [lower, upper] on lists of floats, with the checks of every kind.

    ``lower`` and ``upper`` are lists, a bound per coordinate, or
    ``repeat`` of one bound for every coordinate.  Each coordinate is
    clipped by :func:`_float_clip`'s rule, so the result equals the array
    kernel's bit for bit.  The checks are the array kernel's, in its order;
    lists of a length that per-coordinate bounds do not fit pass the checks
    and go to ``array``, the array kernel, for its verdict.
    """
    width = len(lower) if lower.__class__ is list else None

    def prox_list(linear, step, x_bar):
        if len(linear) != len(x_bar):
            raise ValueError("dimension mismatch between linear term and x_bar")
        if width is not None and len(x_bar) != width:
            return array(linear, step, x_bar).tolist()
        if not all(map(math.isfinite, linear)):
            raise ValueError("non-finite entries in the linear term")
        if not step > 0:
            raise ValueError("step must be positive")
        out = []
        for r, x, lo, hi in zip(linear, x_bar, lower, upper):
            point = x - step * r
            point = point if point > lo or point != point else lo
            out.append(point if point < hi or point != point else hi)
        return out

    return prox_list


def _refusal(message: str, scalar: bool):
    """A kernel that makes the common checks, then refuses its (geometry, spec) pair."""
    check = _float_clip(-math.inf, math.inf) if scalar else _checked

    def prox_refused(linear, step, x_bar):
        check(linear, step, x_bar)
        raise ValueError(message)

    return prox_refused


def _array_kernel(geom: BregmanGeometry, spec):
    """The array prox of one (geometry, spec) pair; see :func:`prox_kernel`."""
    kind = spec.kind
    if geom.is_entropy:
        if kind != "simplex":
            return _refusal("negative-entropy geometry supports only simplex blocks", False)
        floor = geom.epsilon_floor
        largest, total = np.maximum.reduce, np.add.reduce  # .max() and .sum() without their Python-level wrappers

        def prox_entropy(linear, step, x_bar):
            r, x_bar = _checked(linear, step, x_bar)
            w = np.maximum(x_bar, floor)
            if not w.ndim:  # 0-d inputs give a numpy scalar: its one entry is stepped as an array
                return prox_entropy(r.reshape(1), step, w.reshape(1))[0]
            # log(max(x_bar, floor)) - step r, less its max, exponentiated,
            # floored and normalized, each written in place into the new array w
            np.log(w, out=w)
            w -= step * r
            w -= largest(w, axis=None)
            np.exp(w, out=w)
            np.maximum(w, floor, out=w)
            w /= total(w, axis=None)
            return w

        return prox_entropy
    if kind == "zero":

        def prox_zero(linear, step, x_bar):
            r, x_bar = _checked(linear, step, x_bar)
            return x_bar - step * r

        return prox_zero
    if kind == "box":
        lower, upper = spec.lower, spec.upper

        def prox_box(linear, step, x_bar):
            r, x_bar = _checked(linear, step, x_bar)
            point = x_bar - step * r
            out = point if point.ndim else None  # clip into the new point; 0-d inputs give a numpy scalar
            # np.clip's values bit for bit, without its Python-level wrapper
            return np.minimum(np.maximum(point, lower, out=out), upper, out=out)

        return prox_box
    if kind == "nonneg":

        def prox_nonneg(linear, step, x_bar):
            r, x_bar = _checked(linear, step, x_bar)
            point = x_bar - step * r
            return np.maximum(point, 0.0, out=point if point.ndim else None)

        return prox_nonneg
    if kind == "simplex":

        def prox_simplex(linear, step, x_bar):
            r, x_bar = _checked(linear, step, x_bar)
            return project_simplex(x_bar - step * r)

        return prox_simplex
    if kind == "scaled_l1":
        weight = spec.weight

        def prox_scaled_l1(linear, step, x_bar):
            r, x_bar = _checked(linear, step, x_bar)
            return _soft_threshold(x_bar - step * r, step * weight)

        return prox_scaled_l1
    return _refusal(f"unknown prox spec kind: {kind!r}", False)


def _float_kernel(geom: BregmanGeometry, spec):
    """The one-coordinate prox of a zero, box or nonneg spec in Python floats; see :func:`prox_kernel`."""
    if geom.is_entropy:
        return _refusal("negative-entropy geometry supports only simplex blocks", True)
    if spec.kind != "box":
        return _float_clip(0.0 if spec.kind == "nonneg" else -math.inf, math.inf)
    if spec.lower.size != 1:
        return _refusal("dimension mismatch between the box bounds and x_bar", True)
    return _float_clip(spec.lower.item(0), spec.upper.item(0))


def _list_kernel(geom: BregmanGeometry, spec):
    """The prox of a block on lists of floats; see :func:`prox_kernel`."""
    array = _array_kernel(geom, spec)
    if geom.is_entropy or spec.kind not in FLOAT_KINDS:

        def prox_listed(linear, step, x_bar):
            return array(linear, step, x_bar).tolist()

        return prox_listed
    if spec.kind != "box":
        return _list_clip(repeat(0.0 if spec.kind == "nonneg" else -math.inf), repeat(math.inf), array)
    if spec.lower.size == 1:  # one bound for every coordinate, as numpy broadcasts it
        return _list_clip(repeat(spec.lower.item(0)), repeat(spec.upper.item(0)), array)
    return _list_clip(spec.lower.tolist(), spec.upper.tolist(), array)


_OVERFLOW_FREE = 2.0**1000  # a product of this size and a few roundings is still finite


def _factored_kernel(geom: BregmanGeometry, spec, scale: float, row_bound: float):
    """The prox of the linear term ``scale * (coef * row)``; see :func:`prox_kernel`."""
    array = _array_kernel(geom, spec)
    if geom.is_entropy or spec.kind not in FLOAT_KINDS:

        def prox_formed(linear, step, x_bar):
            coef, row = linear
            return array(scale * (coef * row), step, x_bar)

        return prox_formed
    lower = spec.lower if spec.kind == "box" else 0.0 if spec.kind == "nonneg" else None
    upper = spec.upper if spec.kind == "box" else None
    # |coef| below the limit keeps every entry of the term below 2**1000, so
    # finite; a NaN or infinite coef, or one past the limit, is checked entrywise
    bound = scale * row_bound
    limit = math.inf if bound == 0 else _OVERFLOW_FREE / bound

    def prox_factored(linear, step, x_bar):
        coef, row = linear
        if row.shape != x_bar.shape:
            raise ValueError("dimension mismatch between linear term and x_bar")
        r = coef * row
        r *= scale
        if not -limit < coef < limit and b"\x00" in np.isfinite(r).tobytes():
            raise ValueError("non-finite entries in the linear term")
        if not step > 0:
            raise ValueError("step must be positive")
        # x_bar - step * r, written into r: the array kernel's operations in its order
        r *= step
        np.subtract(x_bar, r, out=r)
        if lower is not None:
            np.maximum(r, lower, out=r)
        if upper is not None:
            np.minimum(r, upper, out=r)
        return r

    return prox_factored


def prox_kernel(geom: BregmanGeometry, spec, form: str = "array", factored=None):
    """The prox of one block, resolved once, as a function ``(linear, step, x_bar) -> point``.

    The geometry and ``spec`` (its kind and bounds) are read here; each call
    makes every check of :func:`prox_step` and gives its result bit for bit.
    ``form`` is what the function takes and returns: ``"array"``, arrays;
    ``"float"``, floats, for a one-coordinate block; ``"list"``, lists of
    floats, for a block of a few coordinates.  In the last two forms zero,
    box and nonneg specs run in Python floats, coordinate by coordinate,
    with the array kernel's checks in its order and its messages, and with
    numpy's ``maximum``/``minimum`` as the clip (a tie keeps the bound, a
    NaN point stays NaN): a small block's prox then costs a few float
    operations per coordinate instead of numpy's per-call overhead, which
    makes the list form the cheaper one up to about 14 coordinates
    (:data:`rbpda.solver.SMALL`).  Any other kind goes through its array
    kernel.  The entropy kernel writes one new array in place:
    max(x_bar, floor), its log, less step times the linear term, less its
    max, its exp, floored, then normalized.  A pair that has no prox (entropy
    geometry off the simplex, an unknown kind, a float against a wider box)
    gives a function that makes the common checks and then raises
    ValueError.

    With ``factored = (scale, row_bound)`` the linear term comes factored,
    as ``(coef, row)``: a float and a float64 1-d array of ``x_bar``'s
    shape whose entries are at most ``row_bound`` in absolute value.  The
    function proxes ``scale * (coef * row)`` bit for bit.  For zero, box
    and nonneg specs it forms the term once and scales, subtracts and
    clips it in place, and its finiteness check is one comparison of
    ``coef`` wherever ``|coef| * scale * row_bound`` is certainly finite;
    elsewhere the check runs entrywise, so every verdict is kept.  Other
    kinds form the term and call their array kernel.
    """
    if form not in ("array", "float", "list"):
        raise ValueError(f"unknown kernel form: {form!r}")
    if factored is not None:
        return _factored_kernel(geom, spec, *factored)
    if form == "list":
        return _list_kernel(geom, spec)
    if form == "float" and spec.kind in FLOAT_KINDS:
        return _float_kernel(geom, spec)
    array = _array_kernel(geom, spec)
    if form == "array":
        return array

    def prox_one(linear, step, x_bar):
        return array(np.array([linear]), step, np.array([x_bar])).item()

    return prox_one


def prox_step(geom: BregmanGeometry, spec, linear, step: float, x_bar):
    """Exact minimizer of ``g(x) + <linear, x> + (1/step) * D(x, x_bar)``.

    ``spec`` selects g: zero, a box/simplex/orthant indicator, or a scaled
    l1 norm.  Under Euclidean geometry this reduces to the classical prox of
    g at ``x_bar - step * linear``; under negative entropy on the simplex it
    is the exponentiated-gradient update, stabilized by a max-subtraction in
    the log domain so large exponents never overflow.

    ``linear`` and ``x_bar`` are arrays of one shape, and the result is a
    new array of that shape.  Both may instead be floats, for a
    one-coordinate block: the result is then a float, equal bit for bit to
    the one-element array result, and for zero, box and nonneg specs it is
    computed in Python floats without numpy's per-call overhead.  Either
    form raises ValueError for mismatched shapes, a non-finite linear term
    or a step that is not positive.  This is :func:`prox_kernel` resolved
    and called at once; a caller that proxes one block many times resolves
    its kernel once instead.
    """
    scalar = isinstance(linear, float) and isinstance(x_bar, float)
    return prox_kernel(geom, spec, "float" if scalar else "array")(linear, step, x_bar)

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

import numpy as np

__all__ = [
    "BregmanGeometry",
    "EUCLIDEAN",
    "NEGATIVE_ENTROPY",
    "DomainError",
    "bregman_distance",
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
_SCALAR_KINDS = ("zero", "box", "nonneg")


def _as_float_array(v) -> np.ndarray:
    # a float64 ndarray is used as it is, without the asarray call
    return v if type(v) is np.ndarray and v.dtype is _FLOAT64 else np.asarray(v, dtype=float)


def _prox_scalar(geom: BregmanGeometry, spec, r: float, step: float, x_bar: float) -> float:
    """:func:`prox_step` on one coordinate in Python floats, for zero, box and nonneg specs.

    The operations and their order are those of the array path, and the
    comparisons are numpy's ``maximum``/``minimum`` (a tie keeps the bound,
    a NaN point stays NaN), so the result equals the one-element array
    result bit for bit.
    """
    if not math.isfinite(r):
        raise ValueError("non-finite entries in the linear term")
    if not step > 0:
        raise ValueError("step must be positive")
    if geom.is_entropy:
        raise ValueError("negative-entropy geometry supports only simplex blocks")
    point = x_bar - step * r
    if spec.kind == "box":
        if spec.lower.size != 1:
            raise ValueError("dimension mismatch between the box bounds and x_bar")
        lo, hi = spec.lower.item(0), spec.upper.item(0)
        point = point if point > lo or point != point else lo
        return point if point < hi or point != point else hi
    if spec.kind == "nonneg":
        return point if point > 0.0 or point != point else 0.0
    return point


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
    or a step that is not positive.
    """
    if isinstance(linear, float) and isinstance(x_bar, float):
        if spec.kind in _SCALAR_KINDS:
            return _prox_scalar(geom, spec, linear, step, x_bar)
        return prox_step(geom, spec, np.array([linear]), step, np.array([x_bar])).item()
    r = _as_float_array(linear)
    x_bar = _as_float_array(x_bar)
    if r.shape != x_bar.shape:
        raise ValueError("dimension mismatch between linear term and x_bar")
    # entrywise and without arithmetic: r.r would be cheaper but overflows
    # (and warns) once entries pass ~1e154; count_nonzero beats isfinite().all()
    if np.count_nonzero(np.isfinite(r)) != r.size:
        raise ValueError("non-finite entries in the linear term")
    if not step > 0:
        raise ValueError("step must be positive")

    if geom.is_entropy:
        if spec.kind != "simplex":
            raise ValueError("negative-entropy geometry supports only simplex blocks")
        z = np.log(np.maximum(x_bar, geom.epsilon_floor)) - step * r
        z -= z.max()
        w = np.exp(z)
        w = np.maximum(w, geom.epsilon_floor)
        return w / w.sum()

    point = x_bar - step * r
    if spec.kind == "zero":
        return point
    out = point if point.ndim else None  # clip into the new point; 0-d inputs give a numpy scalar
    if spec.kind == "box":
        # np.clip's values bit for bit, without its Python-level wrapper
        return np.minimum(np.maximum(point, spec.lower, out=out), spec.upper, out=out)
    if spec.kind == "nonneg":
        return np.maximum(point, 0.0, out=out)
    if spec.kind == "simplex":
        return project_simplex(point)
    if spec.kind == "scaled_l1":
        return _soft_threshold(point, step * spec.weight)
    raise ValueError(f"unknown prox spec kind: {spec.kind!r}")

"""Seeded randomness, block selection, batch schedules, and the gradient estimator.

One deterministic stream drives a whole run in a fixed draw order (dual block,
then primal block, then component indices), so a (seed, stream) pair
reproduces full trajectories bit for bit.  Component indices are drawn
uniformly with replacement; when the scheduled batch reaches p the solver
enumerates all components instead, which makes the estimate exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "make_rng",
    "BlockCounters",
    "BatchSchedule",
    "draw_block",
    "next_batch_size",
    "sample_indices",
    "estimate_partial_grad_x",
    "expected_inverse_batch",
]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent deterministic generator for (seed, stream)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(int(stream),))))


@dataclass
class BlockCounters:
    """Per-primal-block selection counts; after k iterations they sum to k."""

    counts: np.ndarray

    @classmethod
    def zeros(cls, M: int) -> "BlockCounters":
        return cls(np.zeros(M, dtype=np.int64))

    def record(self, i: int) -> None:
        self.counts[i] += 1

    def reset(self) -> None:
        self.counts[:] = 0

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class BatchSchedule:
    """Batch-size rule: increasing with the block's selection count, or constant.

    Increasing: v = min(p, ceil((I_i + 1) * (k+1)^eta)), optionally capped at
    ceil(saturation_fraction * p) (a practical option, off by default; the
    rate guarantees use the uncapped rule).
    """

    kind: str
    eta: float = 0.0
    v: int = 1
    saturation_fraction: Optional[float] = None

    @staticmethod
    def increasing(eta: float = 0.0, saturation_fraction: Optional[float] = None) -> "BatchSchedule":
        if eta < 0:
            raise ValueError("eta must be nonnegative")
        if saturation_fraction is not None and not 0 < saturation_fraction <= 1:
            raise ValueError("saturation_fraction must lie in (0, 1]")
        return BatchSchedule("increasing", eta=float(eta), saturation_fraction=saturation_fraction)

    @staticmethod
    def constant(v: int, p: int) -> "BatchSchedule":
        if not 1 <= v <= p:
            raise ValueError(f"constant batch size must satisfy 1 <= v <= p, got v={v}, p={p}")
        return BatchSchedule("constant", v=int(v))


def draw_block(rng: np.random.Generator, count: int) -> int:
    """Uniform draw over {0, ..., count-1}."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return int(rng.integers(count))


def next_batch_size(
    schedule: BatchSchedule, counters: BlockCounters, i_k: int, k: int, p: int
) -> int:
    """Batch size for the selected primal block at iteration k.

    In increasing mode the block's selection counter is incremented afterward.
    """
    if schedule.kind == "constant":
        if schedule.v > p:
            raise ValueError("constant batch size exceeds the number of components")
        return schedule.v
    v = min(p, math.ceil((int(counters.counts[i_k]) + 1) * (k + 1) ** schedule.eta))
    if schedule.saturation_fraction is not None:
        v = min(v, math.ceil(schedule.saturation_fraction * p))
    counters.record(i_k)
    return int(v)


def sample_indices(rng: np.random.Generator, v: int, p: int) -> np.ndarray:
    """v i.i.d. uniform component indices over {0, ..., p-1}; duplicates permitted."""
    if v < 1 or p < 1:
        raise ValueError("need v >= 1 and p >= 1")
    if v == 1:
        # a scalar draw gives the same index and generator state as size=1,
        # at a fraction of the call overhead
        return np.array([rng.integers(0, p)])
    return rng.integers(0, p, size=v)


def estimate_partial_grad_x(problem, indices, i: int, points) -> np.ndarray:
    """Mean of component_grad_x over ``indices`` at block i, one row per ``(x, y)`` point.

    The caller applies the M and (N-1)*theta scalings of the update rule.
    """
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        raise ValueError("indices must be nonempty")
    return np.asarray(problem.batch_grad_x(indices, i, points), dtype=float)


def expected_inverse_batch(M: int, k: int, eta: float = 0.0) -> tuple[float, float]:
    """Exact E[1/((I+1)(k+1)^eta)] for I ~ Binomial(k, 1/M), and its upper bound.

    The exact value is (1 - (1 - 1/M)^(k+1)) * M / ((k+1)^(1+eta)); the bound
    is M / (k+1)^(1+eta).  The exact value never exceeds the bound.
    """
    if M < 1 or k < 0 or eta < 0:
        raise ValueError("need M >= 1, k >= 0, eta >= 0")
    pbar = 1.0 / M
    exact = (1.0 - (1.0 - pbar) ** (k + 1)) / ((k + 1) * pbar) / (k + 1) ** eta
    bound = M / (k + 1) ** (1.0 + eta)
    return exact, bound

"""Seeded randomness, block selection, batch schedules, and the gradient estimator.

One deterministic stream drives a whole run in a fixed draw order (dual block,
then primal block, then component indices), so a (seed, stream) pair
reproduces full trajectories bit for bit.  Component indices are drawn
uniformly with replacement; when the scheduled batch reaches p the solver
enumerates all components instead, which makes the estimate exact.

Draws may be taken ahead, and yield exactly the sequence that
:func:`draw_block` and :func:`sample_indices` give one step at a time.  When
every step draws the same pattern, :class:`ChunkedDraws` draws a chunk of
steps in one call; when the batch size depends on the drawn block (an
increasing batch at p > 1), or a step is too wide for a chunk,
:class:`WordDraws` draws the generator's raw 32-bit words ahead and maps
them to blocks and indices as numpy does.  :func:`rbpda.solver.run` takes
every run's draws ahead; steps driven by hand draw one step at a time.  The
trajectory is still fixed by (seed, stream); only the generator's position
after a failed step, or after the run, is unspecified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "make_rng",
    "BlockCounters",
    "BatchSchedule",
    "draw_block",
    "next_batch_size",
    "typical_batch_size",
    "sample_indices",
    "estimate_partial_grad_x",
    "expected_inverse_batch",
    "CHUNK_ELEMENTS",
    "ChunkedDraws",
    "WORD_CHUNK",
    "WordDraws",
    "chunked_draws",
]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent deterministic generator for (seed, stream)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(int(stream),))))


@dataclass
class BlockCounters:
    """Per-primal-block selection counts; after k iterations they sum to k.

    ``total`` is their sum and ``low`` their minimum, both kept by
    :meth:`record` and :meth:`reset`; ``counts`` changes only through them.
    ``low`` costs amortized O(1) per record: it rises once every block at
    the minimum has been recorded, and only then are the blocks at the new
    minimum counted.
    """

    counts: np.ndarray
    total: int = field(init=False)
    low: int = field(init=False)
    _at_low: int = field(init=False, repr=False)  # blocks whose count is ``low``

    def __post_init__(self):
        self.total = int(self.counts.sum())
        self._set_low(int(self.counts.min()))

    def _set_low(self, low: int) -> None:
        self.low = low
        self._at_low = int(np.count_nonzero(self.counts == low))

    @classmethod
    def zeros(cls, M: int) -> "BlockCounters":
        return cls(np.zeros(M, dtype=np.int64))

    def record(self, i: int) -> None:
        count = self.counts.item(i)
        self.counts[i] = count + 1
        self.total += 1
        if count == self.low:
            self._at_low -= 1
            if not self._at_low:
                self._set_low(count + 1)

    def reset(self) -> None:
        self.counts[:] = 0
        self.total = 0
        self.low = 0
        self._at_low = self.counts.size


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


def typical_batch_size(schedule: BatchSchedule, counters: BlockCounters, k: int, p: int) -> int:
    """Batch size the rule gives at iteration k to a block drawn as often as the mean block.

    Reads the counters without recording a selection, so it draws nothing
    and moves no state; a run's coupling cache is planned from it.
    """
    if schedule.kind == "constant":
        return schedule.v
    mean_count = counters.total / counters.counts.size
    v = min(p, math.ceil((mean_count + 1) * (k + 1) ** schedule.eta))
    if schedule.saturation_fraction is not None:
        v = min(v, math.ceil(schedule.saturation_fraction * p))
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


CHUNK_ELEMENTS = 1 << 14  # most integers one chunk of ChunkedDraws holds (128 KiB)


class ChunkedDraws:
    """A run's draws, taken ahead in chunks, when every step draws the same pattern.

    Each step draws its dual block over N, its primal block over M and, for a
    constant batch v < p, v component indices over p; at v >= p it draws no
    indices and enumerates all p components.  numpy draws bounded integers
    (Lemire's method) element by element from the same generator stream for
    one call over an array of bounds as for the same bounds in scalar calls,
    so one ``rng.integers(0, bounds)`` over the pattern tiled for a chunk of
    steps gives exactly what :func:`draw_block` and :func:`sample_indices`
    give step after step.  A chunk (``buffer``) holds at most
    :data:`CHUNK_ELEMENTS` integers and covers at most the ``steps`` still to
    come; a step taken after those is drawn as a chunk of one.  Built by
    :func:`chunked_draws`, which checks that one step fits a chunk.
    """

    def __init__(self, rng: np.random.Generator, N: int, M: int, p: int, v: int, steps: int):
        self.pattern = np.array([N, M] + ([p] * v if v < p else []), dtype=np.int64)
        self.width = self.pattern.size
        self.cap = CHUNK_ELEMENTS // self.width  # steps per full chunk
        self.rng = rng
        self.left = steps
        if v >= p:
            self.full = np.arange(p)
            self.full.flags.writeable = False
        else:
            self.full = None
        self.buffer = None
        self._at = self._size = 0

    def _fill(self) -> None:
        n = min(self.cap, max(self.left, 1))
        self.left -= n
        buf = self.rng.integers(0, np.tile(self.pattern, n)).reshape(n, self.width)
        buf.flags.writeable = False  # index rows are handed out as views
        self.buffer = buf
        self._dual, self._primal = buf[:, 0].tolist(), buf[:, 1].tolist()
        self._indices = buf[:, 2:]
        self._at, self._size = 0, n

    def blocks(self) -> tuple[int, int]:
        """The next step's dual and primal blocks."""
        t = self._at
        if t == self._size:
            self._fill()
            t = 0
        self._at = t + 1
        return self._dual[t], self._primal[t]

    def indices(self, v: int) -> np.ndarray:
        """The component indices of the step whose blocks were taken last; ``v`` is the pattern's."""
        full = self.full
        return self._indices[self._at - 1] if full is None else full


WORD_CHUNK = 4096  # most 32-bit words one fill of WordDraws draws ahead (32 KiB)
_WORD = 1 << 32


class WordDraws:
    """A run's draws, taken ahead as raw 32-bit words, when the batch size changes from step to step.

    numpy draws an integer below a bound r <= 2**32 from the generator's
    stream of 32-bit words by Lemire's method (Lemire, "Fast random integer
    generation in an interval", ACM TOMACS 2019): with m = w * r for the
    next word w, it rejects w while ``m % 2**32 < (2**32 - r) % r`` and
    otherwise gives ``m >> 32``; a bound of 1 takes no word.  A fill draws
    the words themselves, ``rng.integers(0, 2**32, size=n, dtype=np.uint64)``,
    and this class maps them the same way, so :meth:`blocks` and
    :meth:`indices` give exactly what :func:`draw_block` and
    :func:`sample_indices` give step after step.

    Blocks are mapped one word at a time in Python ints.  Each fill also
    maps every word by p at once, with one flag for a rejection anywhere in
    the fill: the v indices of a step in a fill without one are a read-only
    slice of that map, and otherwise they are mapped word by word.  A batch
    of v >= p takes no word and gets the read-only ``arange(p)``, built on
    its first use.  Words a fill leaves over carry into the next.  A fill
    draws :data:`WORD_CHUNK` words, or more when one step's indices need
    more.  Built by :func:`chunked_draws` for bounds up to 2**32; any
    sequence of batch sizes may be taken.
    """

    def __init__(self, rng: np.random.Generator, N: int, M: int, p: int):
        self.rng = rng
        self.N, self.M, self.p = N, M, p
        self._cut = [(_WORD - r) % r for r in (N, M, p)]  # rejection thresholds
        self.full = None
        self.words = np.zeros(0, dtype=np.uint64)
        self._map = None  # the words mapped by p, set by each fill
        self._clean = True
        self._at = self._size = 0

    def _fill(self, need: int) -> None:
        """Draw words so that at least ``need`` are left, keeping the ones not yet taken."""
        rest = self.words[self._at:]
        words = self.rng.integers(0, _WORD, size=max(need - rest.size, WORD_CHUNK), dtype=np.uint64)
        if rest.size:
            words = np.concatenate((rest, words))
        m = words * np.uint64(self.p)
        cut = self._cut[2]
        self._clean = not cut or int(m.astype(np.uint32).min()) >= cut
        m >>= np.uint64(32)
        m = m.view(np.int64)
        m.flags.writeable = False  # indices are handed out as views
        self.words, self._map = words, m
        self._at, self._size = 0, words.size

    def _bounded(self, r: int, cut: int) -> int:
        """The next value below r, as ``rng.integers(r)`` draws it."""
        if r == 1:
            return 0
        while True:
            if self._at == self._size:
                self._fill(1)
            m = self.words.item(self._at) * r
            self._at += 1
            if m & 0xFFFFFFFF >= cut:
                return m >> 32

    def blocks(self) -> tuple[int, int]:
        """The next step's dual and primal blocks."""
        N, M = self.N, self.M
        cut_n, cut_m, _ = self._cut
        at = self._at
        if at + 2 <= self._size and N > 1 and M > 1:
            # two words in hand, both accepted: the common case
            words = self.words
            m, n = words.item(at) * N, words.item(at + 1) * M
            if m & 0xFFFFFFFF >= cut_n and n & 0xFFFFFFFF >= cut_m:
                self._at = at + 2
                return m >> 32, n >> 32
        return self._bounded(N, cut_n), self._bounded(M, cut_m)

    def indices(self, v: int) -> np.ndarray:
        """The step's v component indices, drawn after its blocks."""
        p = self.p
        if v >= p:
            if self.full is None:
                self.full = np.arange(p)
                self.full.flags.writeable = False
            return self.full
        at = self._at
        if at + v > self._size:
            self._fill(v)
            at = 0
        if self._clean:
            self._at = at + v
            return self._map[at:at + v]
        cut = self._cut[2]
        return np.array([self._bounded(p, cut) for _ in range(v)], dtype=np.int64)


def chunked_draws(rng: np.random.Generator, N: int, M: int, p: int, batch: BatchSchedule,
                  steps: int) -> Optional[ChunkedDraws | WordDraws]:
    """The draws of a run of ``steps`` steps, taken ahead; None if they must be drawn step by step.

    Every step draws the same pattern for a constant batch, and at p = 1,
    where every batch enumerates the one component: that pattern is drawn
    in chunks (:class:`ChunkedDraws`) if it fits :data:`CHUNK_ELEMENTS`.
    Otherwise, as for an increasing batch at p > 1, whose number of indices
    depends on the drawn block, the words are drawn ahead
    (:class:`WordDraws`) while N, M and p are at most 2**32.
    """
    if batch.kind == "constant" or p == 1:
        v = batch.v if batch.kind == "constant" else 1
        if (2 if v >= p else 2 + v) <= CHUNK_ELEMENTS:
            return ChunkedDraws(rng, N, M, p, v, steps)
    return WordDraws(rng, N, M, p) if max(N, M, p) <= _WORD else None


def estimate_partial_grad_x(problem, indices, i: int, points, **kw) -> np.ndarray:
    """Mean of component_grad_x over ``indices`` at block i, one row per ``(x, y)`` point.

    Each row is one ``batch_grad_x`` call at its point with weight 1.0; the
    caller applies the M and (N-1)*theta scalings of the update rule.
    Keyword arguments (a run's ``cache=``) go to ``batch_grad_x`` unchanged.
    """
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        raise ValueError("indices must be nonempty")
    return np.stack([np.asarray(problem.batch_grad_x(indices, i, [point], (1.0,), **kw), dtype=float)
                     for point in points])


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

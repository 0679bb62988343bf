"""Seeded randomness, block selection, batch schedules, and the gradient estimator.

One deterministic stream drives a whole run in a fixed draw order (dual block,
then primal block, then component indices), so a (seed, stream) pair
reproduces full trajectories bit for bit.  Component indices are drawn
uniformly with replacement; when the scheduled batch reaches p the solver
enumerates all components instead, which makes the estimate exact.

A step takes its draws from a :class:`WordDraws`: ``blocks()`` gives its dual
and primal blocks and, once its batch size v is known, ``indices(v)`` its
component indices.  :meth:`WordDraws.steps` gives the draws of many steps of
one batch size at once, their indices as one block with a row per step.
These are the only ways an index reaches a step.  :func:`draw_block` and
:func:`sample_indices`, called one at a time, define the draws:
:class:`WordDraws` draws the generator's raw 32-bit words and maps them to
blocks and indices as numpy does, so it gives the same draws for any
sequence of batch sizes.  :func:`rbpda.solver.run` draws its words ahead;
steps driven by hand draw only the words each step takes, so after each of
them the generator sits where those calls leave it.  N, M and p must be at
most 2**32.  The trajectory is fixed by (seed, stream) either way; only the
generator's position after a failed step, or after a run, is unspecified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "make_rng",
    "BlockCounters",
    "BatchSchedule",
    "draw_block",
    "next_batch_size",
    "increasing_batch_size",
    "sample_indices",
    "estimate_partial_grad_x",
    "expected_inverse_batch",
    "WORD_BOUND",
    "WORD_CHUNK",
    "WordDraws",
]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent deterministic generator for (seed, stream)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(int(stream),))))


@dataclass
class BlockCounters:
    """Per-primal-block selection counts since the last restart, which lead k during a run (see ``StepPlan``).

    ``low`` is their minimum, kept by :meth:`record`, :meth:`add` and
    :meth:`reset` (also through :meth:`restart`); ``counts`` changes only
    through them.
    ``low`` costs amortized O(1) per record: it rises once every block at
    the minimum has been recorded, and only then are the blocks at the new
    minimum counted, on a Python list of the counts (for a few blocks, a
    numpy comparison and count cost more in dispatch than in work).
    """

    counts: np.ndarray
    low: int = field(init=False)
    _at_low: int = field(init=False, repr=False)  # blocks whose count is ``low``

    def __post_init__(self):
        self._set_low(int(self.counts.min()))

    def _set_low(self, low: int) -> None:
        self.low = low
        self._at_low = self.counts.tolist().count(low)

    @classmethod
    def zeros(cls, M: int) -> "BlockCounters":
        return cls(np.zeros(M, dtype=np.int64))

    def record(self, i: int) -> None:
        count = self.counts.item(i)
        self.counts[i] = count + 1
        if count == self.low:
            self._at_low -= 1
            if not self._at_low:
                self._set_low(count + 1)

    def add(self, blocks: np.ndarray) -> None:
        """Record each of ``blocks`` (an int array), as :meth:`record` would in turn, in one pass."""
        self.counts += np.bincount(blocks, minlength=self.counts.size)
        self._set_low(int(self.counts.min()))

    def reset(self) -> None:
        self.counts[:] = 0
        self._set_low(0)

    def restart(self, k: int, eta: float, p: int, bar: int) -> bool:
        """Whether the increasing rule at the least count and k reaches ``bar``, resetting the counts where it does.

        The rule is nondecreasing in a block's count, so the least v_i is the
        rule at ``low`` and the test is O(1); it is the restart test of
        :func:`~rbpda.solver.restart_if_saturated` and of a run's plan.
        """
        if increasing_batch_size(self.low, k, eta, p) >= bar:
            self.reset()
            return True
        return False


@dataclass(frozen=True)
class BatchSchedule:
    """Batch-size rule: increasing with the block's selection count, or constant.

    Increasing: v = min(p, ceil((I_i + 1) * (k+1)^eta)).
    """

    kind: str
    eta: float = 0.0
    v: int = 1

    @staticmethod
    def increasing(eta: float = 0.0) -> "BatchSchedule":
        if not 0 <= eta < math.inf:  # also rejects NaN
            raise ValueError("eta must be finite and nonnegative")
        return BatchSchedule("increasing", eta=float(eta))

    @staticmethod
    def constant(v: int, p: int) -> "BatchSchedule":
        if not 1 <= v <= p:
            raise ValueError(f"constant batch size must satisfy 1 <= v <= p, got v={v}, p={p}")
        return BatchSchedule("constant", v=int(v))


def draw_block(rng: np.random.Generator, count: int) -> int:
    """Uniform draw over {0, ..., count-1}: a block draw, which :class:`WordDraws` reproduces."""
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
    v = increasing_batch_size(counters.counts.item(i_k), k, schedule.eta, p)
    counters.record(i_k)
    return int(v)


def increasing_batch_size(count: int, k: int, eta: float, p: int) -> int:
    """The increasing rule v = min(p, ceil((count + 1) * (k + 1)^eta)), which is p past float range.

    ``count`` is how often the block was selected before iteration k.
    """
    try:
        return min(p, math.ceil((count + 1) * (k + 1) ** eta))
    except OverflowError:  # raised by the power, or by the ceiling of an infinite product
        return p


def sample_indices(rng: np.random.Generator, v: int, p: int) -> np.ndarray:
    """v i.i.d. uniform component indices over {0, ..., p-1}; duplicates permitted.

    These are a step's index draws, which :class:`WordDraws` reproduces.
    """
    if v < 1 or p < 1:
        raise ValueError("need v >= 1 and p >= 1")
    return rng.integers(0, p, size=v)


WORD_CHUNK = 4096  # most 32-bit words one fill of WordDraws draws ahead (32 KiB)
WORD_BOUND = 1 << 32  # the largest bound WordDraws maps words by


class WordDraws:
    """A plan's draws, taken as the generator's raw 32-bit words.

    numpy draws an integer below a bound r <= 2**32 from the generator's
    stream of 32-bit words by Lemire's method (Lemire, "Fast random integer
    generation in an interval", ACM TOMACS 2019): with m = w * r for the
    next word w, it rejects w while ``m % 2**32 < (2**32 - r) % r`` and
    otherwise gives ``m >> 32``; a bound of 1 takes no word.  A fill draws
    the words themselves, ``rng.integers(0, 2**32, size=n, dtype=np.uint64)``,
    and this class maps them the same way, so :meth:`blocks` and
    :meth:`indices` give exactly what :func:`draw_block` and
    :func:`sample_indices` give step after step, for any sequence of batch
    sizes.

    Each fill maps every word by N, by M and by p at once, with one flag per
    bound for a rejection anywhere in the fill.  In a fill clean for N and
    M, :meth:`blocks` reads the two blocks from those maps (a bound of 1
    maps every word to 0 and takes none); in a fill clean for p, a step's v
    indices are a read-only slice of the p map.  Otherwise they are mapped
    word by word.  A batch of v >= p takes no word and gets the read-only
    ``arange(p)``, built on its first use.  Words a fill leaves over carry
    into the next.  With ``ahead`` a fill draws :data:`WORD_CHUNK` words, or
    more when one step's indices need more.  Without it a fill draws only
    the words the call needs, one step's at most, so once a step's draws
    are taken no word is left over: the generator sits where
    :func:`draw_block` and :func:`sample_indices` called in turn leave it,
    and it may be used, saved or restored between steps.  N, M and p of
    more than 2**32 raise ValueError, naming the bound.

    :meth:`steps` reads many steps of one batch size at once, as strided
    slices of the maps of a fill clean for every bound its steps take words
    of, and gives None otherwise; a :class:`~rbpda.solver.StepPlan` then
    takes those steps one at a time, from the same words.
    """

    def __init__(self, rng: np.random.Generator, N: int, M: int, p: int, ahead: bool = True):
        for name, r in (("N", N), ("M", M), ("p", p)):
            if r > WORD_BOUND:
                raise ValueError(f"{name} = {r} exceeds 2**32")
        self.rng, self.ahead = rng, ahead
        self.N, self.M, self.p = N, M, p
        self._bounds = np.array([[N], [M], [p]], dtype=np.uint64)
        self._cut = [(WORD_BOUND - r) % r for r in (N, M, p)]  # rejection thresholds
        self._width = (N > 1) + (M > 1)  # the words two accepted blocks take
        self._off = int(N > 1)  # the primal block's word, after the dual block's
        self.full = None
        self.words = np.zeros(0, dtype=np.uint64)
        self._maps = self._dual = self._primal = self._map = None  # the words mapped by N, M and p
        self._fast = 0  # blocks are read from the maps while the position is below it
        self._clean_blocks = self._clean = True  # no rejection in the fill for N and M, and for p
        self._at = self._size = 0

    def _fill(self, need: int) -> None:
        """Draw words so that at least ``need`` are left, keeping the ones not yet taken."""
        rest = self.words[self._at:]
        size = max(need - rest.size, WORD_CHUNK) if self.ahead else need - rest.size
        words = self.rng.integers(0, WORD_BOUND, size=size, dtype=np.uint64)
        if rest.size:
            words = np.concatenate((rest, words))
        m = self._bounds * words  # one row per bound, in one pass
        clean = (m.astype(np.uint32).min(axis=1) >= self._cut).tolist()
        m >>= np.uint64(32)
        m = m.view(np.int64)
        m.flags.writeable = False  # indices are handed out as views
        # the primal map starts at the primal block's word, so both blocks are read at one position
        self._maps = m
        self._dual, self._primal, self._map = memoryview(m[0]), memoryview(m[1, self._off:]), m[2]
        self._clean_blocks = clean[0] and clean[1]
        # the last word cannot hold both blocks; blocks() then maps word by word
        self._fast = words.size - 1 if self._clean_blocks else 0
        self._clean = clean[2]
        self.words = words
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
        at = self._at
        if at < self._fast:
            self._at = at + self._width
            return self._dual[at], self._primal[at]
        cut_n, cut_m, _ = self._cut
        return self._bounded(self.N, cut_n), self._bounded(self.M, cut_m)

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

    def steps(self, n: int, v: int) -> tuple:
        """The draws of up to ``n`` steps of batch size ``v``, at least one, as ``(duals, primals, indices)``, or None.

        ``duals`` and ``primals`` are int64 arrays of the blocks that
        :meth:`blocks` would give step after step, from the same words, and
        ``indices`` is a read-only int64 block of one row per step, the
        indices :meth:`indices` would give: at v >= p, ``arange(p)``
        broadcast to every row.  The steps are strided views of the fill's
        maps, as many as it holds (it is refilled first if it cannot hold
        one step), where it is clean for every bound they take words of.
        Otherwise, and where no step takes a word (N = M = 1 and v >= p), it
        gives None, and the caller takes the steps one at a time.  It serves
        a constant batch rule, and the increasing rule without restarts once
        it gives every step v = p.
        """
        p = self.p
        per = self._width + (v if v < p else 0)  # the words of one step without a rejection
        if self._size - self._at < per:
            self._fill(per)
        if per == 0 or not (self._clean_blocks and (v >= p or self._clean)):
            return None
        at = self._at
        count = min(n, (self._size - at) // per)
        self._at = at + count * per
        # one row of `per` words per step: the dual block's word, the primal
        # block's and the indices'; a bound of 1 maps every word to 0
        m = self._maps[:, at:self._at].reshape(3, count, per)
        if v < p:
            indices = m[2, :, self._width:]
        else:  # arange(p) in every row, a zero-stride view; np.broadcast_to takes ~4x as long to make it
            full = self.indices(v)
            indices = np.ndarray((count, p), full.dtype, full, 0, (0, full.itemsize))  # read-only, as full is
        return m[0, :, 0], m[1, :, self._off if self.M > 1 else 0], indices


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

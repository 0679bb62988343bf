"""In-memory span recorder for the traced benchmark run.

The recorder instruments rbpda from outside: it replaces names that the
solver looks up at call time (module globals, class methods, and the oracle
closures stored on a problem instance) with wrappers that time each call as a
span.  A span has a name, start, end, parent span and run id; self time is a
span's duration minus the durations of its direct children.  Wrappers return
exactly what the wrapped callable returns, so a traced solve follows the same
trajectory as an untraced one and only its timing changes.

Counters are updated by per-wrapper hooks at the same boundaries, so counts
are taken where the work happens.  :meth:`SpanRecorder.restore` undoes every
patch in reverse order.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import numpy as np


class SpanRecorder:
    """Spans and counters of one traced run, and the patches that produce them."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack = [-1]
        self._patches = []

    # -- recording --------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.runs.append(self.run_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1

    def wrap(self, name: str, fn, hook=None):
        """Callable that records a span per call of ``fn``, then runs ``hook``.

        ``hook(recorder, args, result)`` runs after a successful call and
        outside the span, so counting does not inflate the layer's time.
        """
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if hook is not None:
                hook(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` (module, class or instance) by a traced wrapper."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), hook))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ---------------------------------------------------------
    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span duration and self time (duration minus direct children)."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        return dur, dur - child

    def layers(self) -> dict:
        """Per span name: call count, durations (s) and total self time (s)."""
        dur, own = self.durations()
        names = np.asarray(self.names)
        out = {}
        for name in dict.fromkeys(self.names):
            sel = names == name
            out[name] = {"calls": int(sel.sum()), "dur": dur[sel], "self_s": float(own[sel].sum())}
        return out

    def write(self, path) -> None:
        """Save every span to a compressed ``.npz`` file."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_table=np.asarray(table),
            name=np.asarray([index[n] for n in self.names], dtype=np.int32),
            parent=np.asarray(self.parents, dtype=np.int64),
            run=np.asarray(self.runs, dtype=np.int32),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
        )

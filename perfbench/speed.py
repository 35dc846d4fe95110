"""Machine-speed probe and the timeline that normalises samples by it.

The benchmark runs on small shared machines whose speed drifts: a fixed
piece of work can take 1.5x to 1.8x longer for seconds to minutes at a time,
and a whole run can fall inside a slow stretch. Taking the fastest or the
median sample cannot undo that, so every timed sample is paired with probes
of the machine's current speed.

The probe runs fixed kernels that belong to the benchmark, not to the
package, so a change to the package never changes what the probe runs:

- ``small_arrays``: finiteness checks, column sorts and softmaxes on 5-30 x
  32 arrays, as the encoder and the learned pooler do per instance;
- ``rows_and_tuples``: small matrix products, a per-row argsort of 60
  scores and Python tuple building, as the objectives do;
- ``row_argsort``: a per-row stable argsort of 2000 scores and a Python
  membership test on the top 5, as Recall@K does on a large score matrix.

Each kernel's time over its reference time is its slowdown factor. Kinds of
work do not slow down alike. On the machine below, over minutes of drift,
training epochs followed the first two kernels closely but barely followed
``row_argsort``, while Recall@K over 2000 candidates followed
``row_argsort`` and moved half as much as the others. So a sample is
scaled by the geometric mean factor of the kernels that resemble it:
``ARRAY_KERNELS`` for set-up and training, ``RANK_KERNELS`` for scoring and
ranking in the long eval pass, and all three for the 200-group eval passes,
which mix encoding and ranking on small rows.

A ``Timeline`` runs a probe at every cut it is asked for. The wall time
between two cuts, not counting the probes, is a segment; the segment's time
at reference speed is its wall time divided by the mean factor of the probes
at its two ends. A sample spanning several cuts is the sum of its segments,
so a long operation cut in the middle follows the speed through its length.
"""

from __future__ import annotations

import time

import numpy as np

KERNELS = ("small_arrays", "rows_and_tuples", "row_argsort")
ARRAY_KERNELS = ("small_arrays", "rows_and_tuples")
RANK_KERNELS = ("row_argsort",)
SHORT_EVAL_KERNELS = KERNELS

# Each kernel's time in seconds at the reference speed: the 10th percentile
# of 1500 probes on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS on
# one thread). They only fix the scale of the reported times; any fixed
# values would do.
REFERENCE_S = (0.00176, 0.00185, 0.00713)


class SpeedProbe:
    """Runs the fixed kernels; returns each one's slowdown factor."""

    def __init__(self):
        rng = np.random.default_rng(20221005)
        self._small = [rng.standard_normal((int(n), 32))
                       for n in rng.integers(5, 30, 80)]
        self._rows = [rng.standard_normal((int(n), 32))
                      for n in rng.integers(5, 30, 60)]
        self._w = rng.standard_normal((32, 32)) / 6.0
        self._v = rng.standard_normal(32)
        self._scores = rng.standard_normal((50, 2000))
        self._relevant = {3, 17}
        self._kernels = (self._small_arrays, self._rows_and_tuples,
                         self._row_argsort)
        for _ in range(3):  # warm caches and allocator before the first cut
            self.measure()

    def _small_arrays(self) -> float:
        total = 0.0
        for x in self._small:
            if not np.isfinite(x).all():
                raise ValueError("probe input is not finite")
            s = -np.sort(-x, axis=0)
            e = np.exp(s - s.max(axis=0))
            e /= e.sum(axis=0)
            total += float((e * s).sum(axis=0) @ self._w[0])
        return total

    def _rows_and_tuples(self) -> int:
        pooled = []
        for f in self._rows:
            z = np.tanh(f @ self._w) @ self._v
            e = np.exp(z - z.max())
            pooled.append((e / e.sum()) @ f)
        e = np.stack(pooled)
        s = e @ e.T
        kept = 0
        for i in range(len(s)):
            order = np.argsort(-s[i], kind="stable")
            kept += len(tuple(int(j) for j in order if j != i)[:20])
        return kept

    def _row_argsort(self) -> int:
        hits = 0
        for row in self._scores:
            top = np.argsort(-row, kind="stable")[:5]
            hits += any(int(j) in self._relevant for j in top)
        return hits

    def times(self) -> list[float]:
        """Each kernel's wall time in seconds."""
        out = []
        for kernel in self._kernels:
            t0 = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - t0)
        return out

    def measure(self) -> tuple[float, ...]:
        """Each kernel's time over its reference time, in ``KERNELS`` order."""
        return tuple(t / ref for t, ref in zip(self.times(), REFERENCE_S))


class Timeline:
    """Cuts that each run a probe, and samples measured between cuts."""

    def __init__(self, probe):
        self._probe = probe  # callable returning one factor per kernel
        self.before: list[float] = []  # clock when each cut's probe began
        self.after: list[float] = []  # clock when it ended
        self.factors: list[tuple[float, ...]] = []

    def cut(self) -> int:
        """Probe the machine now; return the cut's index."""
        t0 = time.perf_counter()
        factors = self._probe()
        t1 = time.perf_counter()
        self.before.append(t0)
        self.after.append(t1)
        self.factors.append(tuple(factors))
        return len(self.factors) - 1

    def span(self, first: int, last: int,
             kernels=ARRAY_KERNELS) -> tuple[float, float]:
        """Wall seconds from cut ``first`` to cut ``last`` without the probes'
        own time, and the same seconds at reference speed as measured by
        ``kernels``."""
        if not 0 <= first < last < len(self.factors):
            raise ValueError(f"no span from cut {first} to cut {last}")
        gaps = (np.asarray(self.before[first + 1:last + 1])
                - np.asarray(self.after[first:last]))
        cols = [KERNELS.index(k) for k in kernels]
        per_cut = np.exp(np.log(np.asarray(self.factors[first:last + 1])[:, cols])
                         .mean(axis=1))
        speed = (per_cut[:-1] + per_cut[1:]) / 2.0
        return float(gaps.sum()), float((gaps / speed).sum())

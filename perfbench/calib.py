"""A fixed reference computation that tracks the machine's current speed.

On a shared host the same code runs 20-40% faster or slower from one minute
to the next, with the neighbours' load.  Wall times of runs made minutes
apart then differ by more than any change worth measuring.  A slow stretch
slows every computation at once, so the benchmark times this reference,
which never changes, next to the work it measures, and reports that work at
the nominal speed:

    normalized = measured * nominal_s / reference seconds per call

The reference has the shape of a qlex query on the workload's corpus size:
a regex tokenizer with a dict lookup and a count per token in Python, a
scatter-add of postings into a dense float64 vector of ``n_docs`` scores,
and a stable argsort of it.  Its arrays are as large as the query's, so a
neighbour that competes for cache or memory slows both alike.  It imports
nothing from qlex, so a change to the package cannot move it.
"""

from __future__ import annotations

import re
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

_TOKEN = re.compile(r"[A-Za-z0-9_]+")


class Reference:
    """The reference computation on fixed inputs (seed 0): ``n_docs`` scores,
    ``postings`` of them set per call; ``nominal_s`` is the seconds per call
    that counts as the nominal speed."""

    def __init__(self, n_docs: int, postings: int, nominal_s: float):
        rng = np.random.default_rng(0)
        words = [f"ident{i}Part_{i % 97}" for i in rng.integers(0, 5_000, size=600)]
        self.text = " ".join(words)
        self.vocab = {w.lower(): i for i, w in enumerate(sorted(set(words)))}
        self.n_docs = n_docs
        self.rows = rng.integers(0, n_docs, size=postings)
        self.weights = rng.random(postings)
        self.doc_ids = [f"d{i}" for i in range(n_docs)]
        self.nominal_s = nominal_s

    def call(self) -> int:
        """One reference call; returns a checksum so nothing is skipped."""
        tokens = [t.lower() for t in _TOKEN.findall(self.text)]
        ids = [self.vocab.get(t, -1) for t in tokens]
        counts = Counter(tokens)
        scores = np.zeros(self.n_docs, dtype=np.float64)
        scores[self.rows] += self.weights
        order = np.argsort(-scores, kind="stable")[:100]
        hits = [(self.doc_ids[i], float(scores[i])) for i in order]
        return sum(ids) + len(counts) + len(hits)

    def sample(self, seconds: float) -> float:
        """Call the reference for about ``seconds`` (at least three times);
        return the mean seconds per call."""
        n = 0
        start = perf_counter()
        while True:
            self.call()
            n += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds and n >= 3:
                return elapsed / n


class SpeedLog:
    """Reference samples taken between measured intervals.  Take one before
    the first interval; ``factor`` then takes the next one and returns the
    factor that brings the interval between them to nominal speed."""

    def __init__(self, reference: Reference, sample_s: float):
        self.reference = reference
        self.sample_s = sample_s
        self.samples: list[float] = []

    def sample(self) -> float:
        per_call = self.reference.sample(self.sample_s)
        self.samples.append(per_call)
        return per_call

    def factor(self) -> float:
        """Sample; the factor for the time measured since the previous sample."""
        before = self.samples[-1]
        return self.reference.nominal_s / ((before + self.sample()) / 2)

    def speed(self) -> float:
        """Median machine speed over the run, relative to nominal (1 = nominal)."""
        return self.reference.nominal_s / statistics.median(self.samples)

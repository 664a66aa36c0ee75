"""The label-free exponent predictor, its inputs, recovery and fitting.

The predictor maps one corpus statistic, the hapax token mass ``htok``
(fraction of token occurrences whose type occurs exactly once in the whole
corpus), to a retrieval exponent::

    q_pred = clip(1 - c * htok, 0.01, 1.0)        c = 7.28

Its inputs, the token count and the hapax-type count, are read from
:func:`qlex.index.count_tokens`, the same tokenize-and-count pass that builds
the index, so ``htok`` and the index agree on what a token is by construction,
stopword removal included.  After a build from the same corpus object and mode
they cost no second pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .corpus_io import Corpus
from .index import count_tokens
from .tokenizers import TokenizerMode

__all__ = ["CorpusStats", "compute_corpus_stats", "predict_q", "recovery", "fit_coefficient"]

COEFFICIENT = 7.28
CLIP_LO, CLIP_HI = 0.01, 1.0


@dataclass(frozen=True)
class CorpusStats:
    """The predictor's inputs: a corpus's token count under one tokenizer mode,
    and how many of its types occur exactly once.

    ``htok`` is occurrence mass, not a vocabulary fraction: each hapax type
    contributes exactly one occurrence, so ``htok = hapax_types / n_tok``.
    """

    n_tok: int
    hapax_types: int

    def __post_init__(self):
        if not (self.n_tok >= 1 and 0 <= self.hapax_types <= self.n_tok):
            raise ValueError(f"invalid stats: need n_tok >= 1 and 0 <= hapax_types <= n_tok, "
                             f"got n_tok={self.n_tok}, hapax_types={self.hapax_types}")

    @property
    def htok(self) -> float:
        return self.hapax_types / self.n_tok


def compute_corpus_stats(corpus: Corpus, mode: TokenizerMode) -> CorpusStats:
    """Statistics of the index's own tokenize-and-count pass.

    Reuses the pass of an earlier build from the same corpus object and
    mode.  Raises BuildError on an empty or token-free corpus.
    """
    counts = count_tokens(corpus, mode)
    # A type occurs once in the corpus when it is in one document, once.
    hapax_types = int(((counts.df == 1) & (counts.tfs[counts.col_ptr[:-1]] == 1)).sum())
    return CorpusStats(n_tok=counts.n_tok, hapax_types=hapax_types)


def predict_q(stats: CorpusStats) -> float:
    """Predicted exponent ``clip(1 - 7.28 * htok, 0.01, 1.0)``."""
    return min(max(1.0 - COEFFICIENT * stats.htok, CLIP_LO), CLIP_HI)


def recovery(ndcg_bm25: float, ndcg_pred: float, ndcg_opt: float) -> float | None:
    """Fraction of the oracle gain captured by the predicted exponent.

    ``(pred - bm25) / (opt - bm25)``.  When the oracle gap is below 1e-9
    the ratio is undefined and None is returned; report it as "flat"
    (a value, not an error).  May exceed 1 or go negative.
    """
    gap = ndcg_opt - ndcg_bm25
    if abs(gap) < 1e-9:
        return None
    return (ndcg_pred - ndcg_bm25) / gap


def fit_coefficient(points: Iterable[tuple[float, float]]) -> float:
    """Least squares through the origin for ``1 - q_opt = c * htok``.

    ``points`` are (htok, q_opt) pairs; returns
    ``sum(htok * (1 - q_opt)) / sum(htok^2)``.  A single point gives the
    exact fit.  All-zero htok leaves c undefined and raises ValueError.
    """
    pts = list(points)
    if not pts:
        raise ValueError("cannot fit a coefficient to zero points")
    num = sum(h * (1.0 - q) for h, q in pts)
    den = sum(h * h for h, _ in pts)
    if den == 0.0 or not math.isfinite(den):
        raise ValueError("coefficient undefined: all htok values are zero")
    return num / den

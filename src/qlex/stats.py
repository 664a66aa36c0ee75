"""Corpus statistics and the label-free exponent predictor.

The predictor maps one corpus statistic, the hapax token mass ``htok``
(fraction of token occurrences whose type occurs exactly once in the whole
corpus), to a retrieval exponent::

    q_pred = clip(1 - c * htok, 0.01, 1.0)        c = 7.28

Statistics are read from :func:`qlex.index.count_tokens`, the same
tokenize-and-count pass that builds the index, so ``htok`` and the index
agree on what a token is by construction, stopword removal included.  After
a build from the same corpus object and mode they cost no second pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus_io import Corpus
from .index import count_tokens
from .tokenizers import TokenizerMode

__all__ = ["CorpusStats", "PredictorModel", "DEFAULT_PREDICTOR",
           "compute_corpus_stats", "predict_q", "recovery", "fit_coefficient"]


@dataclass(frozen=True)
class CorpusStats:
    """Token-level statistics of a corpus under one tokenizer mode.

    ``htok`` is occurrence mass, not a vocabulary fraction: each hapax type
    contributes exactly one occurrence, so ``htok = hapax_types / n_tok``.
    ``median_df`` uses the lower median for even vocabulary sizes.
    """

    n_tok: int
    vocab_size: int
    htok: float
    ttr: float
    median_df: float
    frac_df_le5: float

    def __post_init__(self):
        if not (0.0 <= self.htok <= self.ttr <= 1.0):
            raise ValueError(f"invalid stats: need 0 <= htok <= ttr <= 1, "
                             f"got htok={self.htok}, ttr={self.ttr}")
        if self.vocab_size > self.n_tok:
            raise ValueError("vocab_size cannot exceed n_tok")


@dataclass(frozen=True)
class PredictorModel:
    coefficient: float = 7.28
    clip_lo: float = 0.01
    clip_hi: float = 1.0


DEFAULT_PREDICTOR = PredictorModel()


def compute_corpus_stats(corpus: Corpus, mode: TokenizerMode) -> CorpusStats:
    """Statistics of the index's own tokenize-and-count pass.

    Reuses the pass of an earlier build from the same corpus object and
    mode.  Raises BuildError on an empty or token-free corpus.
    """
    counts = count_tokens(corpus, mode)
    n_tok, vocab_size = counts.n_tok, len(counts.terms)
    # A type occurs once in the corpus when it is in one document, once.
    hapax_types = int(((counts.df == 1) & (counts.tfs[counts.col_ptr[:-1]] == 1)).sum())
    df_sorted = np.sort(counts.df)
    return CorpusStats(
        n_tok=n_tok,
        vocab_size=vocab_size,
        htok=hapax_types / n_tok,
        ttr=vocab_size / n_tok,
        median_df=float(df_sorted[(vocab_size - 1) // 2]),
        frac_df_le5=int((df_sorted <= 5).sum()) / vocab_size,
    )


def predict_q(stats: CorpusStats, model: PredictorModel = DEFAULT_PREDICTOR) -> float:
    """Predicted exponent ``clip(1 - c * htok, lo, hi)``."""
    raw = 1.0 - model.coefficient * stats.htok
    return min(max(raw, model.clip_lo), model.clip_hi)


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

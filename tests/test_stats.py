"""Corpus statistics, the exponent predictor, recovery, and fitting."""

import math

import numpy as np
import pytest

from qlex import (BuildError, CorpusStats, compute_corpus_stats, fit_coefficient, predict_q,
                  recovery)
from qlex.tokenizers import TokenizerMode

from conftest import make_corpus


def stats_with_htok(htok: float) -> CorpusStats:
    return CorpusStats(n_tok=1_000_000, hapax_types=round(htok * 1_000_000))


class TestCorpusStats:
    def test_small_corpus_by_hand(self):
        # Tokens: [aa bb bb] + [cc aa]: aa:2 bb:2 cc:1 -> one hapax type, htok=1/5.
        corpus = make_corpus(["aa bb bb", "cc aa"])
        s = compute_corpus_stats(corpus, TokenizerMode.T1)
        assert (s.n_tok, s.hapax_types) == (5, 1)
        assert s.htok == pytest.approx(1 / 5)

    def test_all_unique_tokens_htok_equals_ttr_equals_1(self):
        # Every type is a hapax, so hapax types, types and tokens are one count.
        corpus = make_corpus(["alpha beta", "gamma delta"])
        s = compute_corpus_stats(corpus, TokenizerMode.T1)
        assert s.hapax_types == s.n_tok == 4 and s.htok == 1.0

    def test_stats_follow_index_token_stream(self):
        # Stopwords removed under T0 shrink n_tok accordingly.
        corpus = make_corpus(["the parser", "the state"])
        s = compute_corpus_stats(corpus, TokenizerMode.T0)
        assert s.n_tok == 2 and s.hapax_types == 2

    def test_empty_stream_rejected(self):
        with pytest.raises(BuildError):
            compute_corpus_stats(make_corpus(["the of"]), TokenizerMode.T0)

    def test_invariant_enforced(self):
        # More hapax types than tokens, a negative count, no tokens.
        for n_tok, hapax_types in [(10, 11), (10, -1), (0, 0)]:
            with pytest.raises(ValueError):
                CorpusStats(n_tok=n_tok, hapax_types=hapax_types)


class TestPredictor:
    def test_published_operating_points(self):
        # (htok, expected q at two-decimal display)
        table = [(0.0630, 0.54), (0.0156, 0.89), (0.0244, 0.82),
                 (0.0160, 0.88), (0.0133, 0.90), (0.0206, 0.85)]
        for htok, expected in table:
            assert round(predict_q(stats_with_htok(htok)), 2) == expected

    def test_clipping(self):
        assert predict_q(stats_with_htok(0.5)) == 0.01
        assert predict_q(stats_with_htok(0.0)) == 1.0

    def test_low_hapax_mass_stays_near_bm25(self):
        # htok <= 0.0206 keeps the predicted exponent at or above 0.85.
        for htok in np.linspace(0.0, 0.0206, 50):
            assert predict_q(stats_with_htok(float(htok))) >= 0.85


class TestRecovery:
    def test_published_example(self):
        r = recovery(0.258, 0.448, 0.487)
        assert r == pytest.approx(0.8297, abs=5e-4)
        assert 0.80 <= r <= 0.85

    def test_flat_when_gap_below_threshold(self):
        assert recovery(0.4, 0.4, 0.4) is None
        assert recovery(0.4, 0.5, 0.4 + 5e-10) is None

    def test_can_exceed_one_or_go_negative(self):
        assert recovery(0.2, 0.5, 0.4) > 1.0
        assert recovery(0.2, 0.1, 0.4) < 0.0


class TestFitCoefficient:
    def test_single_point_exact(self):
        assert fit_coefficient([(0.1, 0.5)]) == pytest.approx(5.0)

    def test_recovers_exact_linear_data(self):
        c_true = 7.28
        hs = [0.01, 0.02, 0.05, 0.063]
        pts = [(h, 1.0 - c_true * h) for h in hs]
        assert fit_coefficient(pts) == pytest.approx(c_true, rel=1e-12)

    def test_scale_consistency(self):
        # Doubling every htok halves the fitted coefficient.
        pts = [(0.01, 0.9), (0.02, 0.85), (0.04, 0.7)]
        c1 = fit_coefficient(pts)
        c2 = fit_coefficient([(2 * h, q) for h, q in pts])
        assert c2 == pytest.approx(c1 / 2.0, rel=1e-12)

    def test_least_squares_through_origin(self):
        rng = np.random.default_rng(99)
        hs = rng.uniform(0.005, 0.08, size=12)
        qs = np.clip(1.0 - 6.5 * hs + rng.normal(0, 0.01, size=12), 0.0, 1.0)
        c = fit_coefficient(list(zip(hs, qs)))
        expected = float(np.sum(hs * (1.0 - qs)) / np.sum(hs * hs))
        assert c == pytest.approx(expected, rel=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_coefficient([])
        with pytest.raises(ValueError):
            fit_coefficient([(0.0, 0.5), (0.0, 0.9)])

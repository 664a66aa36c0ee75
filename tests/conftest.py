"""Shared fixtures and corpus builders."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from qlex import Corpus, Document, QrelSet, QuerySet
from qlex import index as index_module
from qlex.tokenizers import TokenizerMode


# A deep run of every property test (hypothesis marks each @given test), for CI:
#   python -m pytest tests -m hypothesis --hypothesis-profile=deep
settings.register_profile("deep", max_examples=2000, deadline=None)


# Header states no build or rescale writes: (scorer, fields that differ from
# a freshly built index of that scorer).  IndexHeader refuses each at
# construction, and a file carrying one is a corrupt-header error.
IMPOSSIBLE_HEADERS = [
    ("bm25", {"k1": float("nan")}),
    ("bm25", {"k1": 0.0}),
    ("bm25", {"b": 7.0}),
    ("bm25", {"b": float("nan")}),
    ("bm25", {"avg_len": -1.0}),
    ("bm25", {"avg_len": float("inf")}),
    ("bm25", {"applied_q": 0.5, "applied_gamma": 2.0}),
    ("bm25", {"applied_q": float("inf")}),
    ("bm25", {"applied_gamma": float("-inf")}),
    ("bm25", {"applied_gamma": -3.0}),
    ("dph", {"k1": 1.5}),
    ("dph", {"b": 0.75}),
    ("dph", {"avg_len": 0.0}),
    ("dph", {"applied_q": 0.5}),
]
IMPOSSIBLE_HEADER_IDS = ["k1_nan", "k1_zero", "b_7", "b_nan", "avg_len_negative", "avg_len_inf",
                         "q_and_gamma", "q_inf", "gamma_inf", "gamma_negative", "dph_k1",
                         "dph_b", "dph_avg_len_zero", "dph_rescaled"]
# Two more that only an in-memory header can hold: a file writes "not set" as
# NaN, so on disk the first is k1_nan above and the second a legal DPH header.
IN_MEMORY_IMPOSSIBLE_HEADERS = [("bm25", {"k1": None}), ("dph", {"k1": float("nan")})]
IN_MEMORY_IMPOSSIBLE_HEADER_IDS = ["bm25_k1_none", "dph_k1_nan"]


# The benchmark's input generator, read-only, so tests also run on
# benchmark-shaped text at smoke size.
_GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_gen_spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN_PATH)
perfbench_gen = importlib.util.module_from_spec(_gen_spec)
_gen_spec.loader.exec_module(perfbench_gen)


def run_length(length: int):
    """Inside the block, cut the columns into runs of about ``length`` entries."""
    return mock.patch.object(index_module, "_RUN_ENTRIES", length)


# Texts whose "alpha" column (every document) is longer than a run of at
# most 5 entries and straddles a run boundary; "solo" is a hapax.
RUN_TEXTS = st.lists(st.lists(st.sampled_from(["alpha", "beta", "gamma", "parseHTTPServer",
                                               "snake_case_id", "the", "x", "naïveÜber"]),
                              max_size=10).map(lambda words: " ".join(["alpha", *words])),
                     min_size=6, max_size=30).map(lambda texts: [texts[0] + " solo", *texts[1:]])


def column_slice(index, term_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and scores of one vocabulary column of ``index`` (views)."""
    start, end = index.col_ptr[term_id], index.col_ptr[term_id + 1]
    return index.row_idx[start:end], index.scores[start:end]


def make_corpus(texts: list[str], prefix: str = "d") -> Corpus:
    return Corpus([Document(f"{prefix}{i}", t) for i, t in enumerate(texts)])


def random_corpus(rng: np.random.Generator, n_docs: int, vocab: int,
                  min_len: int = 3, max_len: int = 30) -> Corpus:
    words = [f"w{i}" for i in range(vocab)]
    texts = []
    for _ in range(n_docs):
        size = int(rng.integers(min_len, max_len + 1))
        texts.append(" ".join(rng.choice(words, size=size)))
    return make_corpus(texts)


def write_jsonl_corpus(path: Path, corpus: Corpus) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(json.dumps({"doc_id": doc.doc_id, "text": doc.text}) + "\n")
    return path


def write_jsonl_queries(path: Path, entries: list[tuple[str, str]]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, text in entries:
            fh.write(json.dumps({"query_id": qid, "text": text}) + "\n")
    return path


def write_qrels(path: Path, rows: list[tuple[str, str, int]]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, doc_id, rel in rows:
            fh.write(f"{qid}\t{doc_id}\t{rel}\n")
    return path


def hapax_mechanism_corpus(n_docs: int = 1000, group_size: int = 100,
                           mids_per_group: int = 16, n_queries: int = 100,
                           ) -> tuple[Corpus, QuerySet, QrelSet]:
    """Synthetic corpus where gold documents are reachable only via a hapax.

    Documents form groups of ``group_size`` sharing ``mids_per_group``
    mid-frequency tokens (df = group_size); every document also carries a
    unique hapax token.  Query j pairs doc j's hapax with the mid tokens of
    the *next* group, so the gold document matches only on the hapax while
    ``group_size`` distractors match every mid token.  All documents have
    identical length, neutralizing length normalization.
    """
    n_groups = n_docs // group_size
    texts = []
    for d in range(n_docs):
        g = d // group_size
        mids = [f"mid{g}x{j}" for j in range(mids_per_group)]
        texts.append(" ".join([f"hapax{d}"] + mids))
    corpus = make_corpus(texts)
    queries = []
    qrel_rows = []
    for j in range(n_queries):
        g_other = (j // group_size + 1) % n_groups
        mids = [f"mid{g_other}x{i}" for i in range(mids_per_group)]
        queries.append((f"q{j}", " ".join([f"hapax{j}"] + mids)))
        qrel_rows.append((f"q{j}", f"d{j}", 1))
    qrels = QrelSet(judgments={q: {d: r} for q, d, r in qrel_rows})
    return corpus, QuerySet(queries), qrels


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # Stash phase reports on the item so teardown fixtures can see the
    # call outcome (used for the acceptance criteria PASS/FAIL lines).
    outcome = yield
    rep = outcome.get_result()
    setattr(item, "rep_" + rep.when, rep)


@pytest.fixture
def t0() -> TokenizerMode:
    return TokenizerMode.T0


@pytest.fixture
def t1() -> TokenizerMode:
    return TokenizerMode.T1

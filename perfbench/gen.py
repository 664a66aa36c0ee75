"""Seeded input generator for the qlex benchmark.

Writes ``corpus.jsonl``, ``queries.jsonl``, ``eval_queries.jsonl`` and
``qrels.tsv`` for one workload into an output directory.  The program under
test reads them through ``qlex.corpus_io``; it never sees the seed.  The same
(workload, seed, size) always gives byte-identical files.

    python3 perfbench/gen.py --workload search_t0_50k --seed 1 --out DIR [--smoke]

Workloads (see perfbench/README.md for why each exists):

* ``search_t0_50k``: code-like documents whose identifiers follow a Zipf law;
  each query is 2-6 tokens around one planted near-unique identifier.  Query
  tokens avoid the Zipf head, so postings are short and ranking all N docs
  is the bulk of a query.
* ``search_t2_20k``: identifiers built from a small shared part vocabulary in
  camelCase / snake_case; queries are code snippets of 12-36 identifiers
  whose sub-tokens hit long postings, so accumulation is the bulk of a query.
* ``eval_hapax``: a generalised hapax-mechanism corpus (groups sharing
  mid-frequency tokens, one hapax per document) with Zipf background noise
  and graded qrels, for the sweep / occlusion / bootstrap path.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from pathlib import Path

import numpy as np

# Full and smoke sizes.  Smoke sizes keep every code path but finish in seconds.
SIZES = {
    "search_t0_50k": {
        "full": dict(n_docs=50_000, n_queries=2_000, n_eval=100, n_parts=4_000, n_idents=80_000,
                     doc_len=(8, 24)),
        "smoke": dict(n_docs=2_000, n_queries=150, n_eval=30, n_parts=600, n_idents=4_000,
                      doc_len=(8, 24)),
    },
    "search_t2_20k": {
        "full": dict(n_docs=20_000, n_queries=600, n_eval=25, n_parts=120, n_idents=20_000,
                     doc_len=(8, 20)),
        "smoke": dict(n_docs=1_000, n_queries=80, n_eval=30, n_parts=80, n_idents=2_000,
                      doc_len=(8, 20)),
    },
    "eval_hapax": {
        "full": dict(n_docs=20_000, n_queries=200, group_size=100, n_mids=8, n_noise_words=5_000),
        "smoke": dict(n_docs=1_000, n_queries=40, group_size=50, n_mids=8, n_noise_words=500),
    },
}
WORKLOADS = tuple(SIZES)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SEPARATORS = (" ", ".", "(", ", ", " = ", ")\n", "; ", " + ")

# Query tokens of the t0 workload are drawn below this Zipf rank only, which
# keeps their postings short (the workload is meant to be rank-bound).
_T0_QUERY_MIN_RANK = 300


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode("ascii"))])


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _zipf(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """Zipf-distributed ranks in [0, len(cdf)); rank 0 is the most frequent."""
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


def _parts(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct pronounceable lowercase word parts of 2-3 CV syllables.

    CV syllables of at least two pairs cannot spell any bundled stopword.
    """
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        k = 2 * n
        n_syl = rng.integers(2, 4, size=k)
        cons = rng.integers(len(_CONSONANTS), size=(k, 3))
        vows = rng.integers(len(_VOWELS), size=(k, 3))
        for i in range(k):
            word = "".join(_CONSONANTS[cons[i, j]] + _VOWELS[vows[i, j]] for j in range(n_syl[i]))
            if word not in seen:
                seen.add(word)
                out.append(word)
                if len(out) == n:
                    break
    return out


def _render(parts: list[str], style: int) -> str:
    """Join identifier parts as camelCase (0), snake_case (1) or PascalCase (2)."""
    if style == 1 or len(parts) == 1:
        return "_".join(parts)
    if style == 0:
        return parts[0] + "".join(p.capitalize() for p in parts[1:])
    return "".join(p.capitalize() for p in parts)


def _identifiers(rng: np.random.Generator, parts: list[str], n: int, min_parts: int,
                 max_parts: int, part_cdf: np.ndarray | None) -> list[str]:
    """``n`` identifiers, unique after lowercasing, built from ``parts``."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        k = 2 * n
        # Part counts cycle with position rather than being drawn, so the
        # Zipf head does not make one seed's identifiers longer than another's.
        sizes = min_parts + np.arange(k) % (max_parts - min_parts + 1)
        styles = rng.integers(3, size=k)
        picks = (_zipf(rng, part_cdf, (k, max_parts)) if part_cdf is not None
                 else rng.integers(len(parts), size=(k, max_parts)))
        for i in range(k):
            ident = _render([parts[j] for j in picks[i, :sizes[i]]], int(styles[i]))
            if ident.lower() not in seen:
                seen.add(ident.lower())
                out.append(ident)
                if len(out) == n:
                    break
    return out


def _code_text(rng: np.random.Generator, tokens: list[str]) -> str:
    seps = rng.integers(len(_SEPARATORS), size=len(tokens))
    return "".join(tok + _SEPARATORS[s] for tok, s in zip(tokens, seps)).rstrip()


def _docs_from_ranks(rng: np.random.Generator, idents: list[str], cdf: np.ndarray,
                     n_docs: int, lo: int, hi: int) -> tuple[list[list[str]], list[np.ndarray]]:
    lengths = rng.integers(lo, hi + 1, size=n_docs)
    ranks = _zipf(rng, cdf, int(lengths.sum()))
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    doc_ranks = [ranks[bounds[d]:bounds[d + 1]] for d in range(n_docs)]
    return [[idents[r] for r in dr] for dr in doc_ranks], doc_ranks


def _search_t0(rng: np.random.Generator, n_docs: int, n_queries: int, n_eval: int,
               n_parts: int, n_idents: int, doc_len: tuple[int, int]):
    parts = _parts(rng, n_parts)
    idents = _identifiers(rng, parts, n_idents, 1, 3, None)
    cdf = _zipf_cdf(len(idents), 1.1)
    docs, doc_ranks = _docs_from_ranks(rng, idents, cdf, n_docs, *doc_len)
    tail_cdf = _zipf_cdf(len(idents) - _T0_QUERY_MIN_RANK, 1.1)

    gold = rng.choice(n_docs, size=n_queries, replace=False)
    queries, qrels = [], []
    for j, d in enumerate(gold):
        a, b = rng.integers(n_parts, size=2)
        planted = f"{parts[a]}{parts[b].capitalize()}{j:x}q"
        docs[d].insert(int(rng.integers(len(docs[d]) + 1)), planted)
        if rng.random() < 0.5:  # near-unique: df 2 half of the time
            other = int(rng.integers(n_docs))
            if other != d:
                docs[other].append(planted)
        n_ctx = int(rng.integers(1, 6))
        ctx = list(dict.fromkeys(idents[r] for r in doc_ranks[d] if r >= _T0_QUERY_MIN_RANK))
        rng.shuffle(ctx)
        ctx = ctx[:n_ctx]
        while len(ctx) < n_ctx:
            ctx.append(idents[_T0_QUERY_MIN_RANK + int(_zipf(rng, tail_cdf, 1)[0])])
        # One query in five does not name the planted identifier at all.
        tokens = ctx if rng.random() < 0.2 else ctx + [planted]
        rng.shuffle(tokens)
        queries.append((f"q{j}", " ".join(tokens)))
        qrels.append((f"q{j}", f"d{d}", 1))
    texts = [_code_text(rng, toks) for toks in docs]
    return texts, queries, queries[:n_eval], qrels


def _search_t2(rng: np.random.Generator, n_docs: int, n_queries: int, n_eval: int,
               n_parts: int, n_idents: int, doc_len: tuple[int, int]):
    # Parts are drawn uniformly and identifiers by a mild Zipf law, so many
    # sub-tokens sit in a large share of the documents while no term reaches
    # df > N/2, where the RSJ odds fall below 1 and the q-log IDF turns negative.
    parts = _parts(rng, n_parts)
    idents = _identifiers(rng, parts, n_idents, 2, 4, None)
    cdf = _zipf_cdf(len(idents), 0.8)
    docs, _ = _docs_from_ranks(rng, idents, cdf, n_docs, *doc_len)

    def fresh(n: int) -> list[str]:
        return [parts[p] for p in rng.integers(n_parts, size=n)]

    gold = rng.choice(n_docs, size=n_queries, replace=False)
    queries, qrels = [], []
    for j, d in enumerate(gold):
        # The planted identifier's whole form is near-unique; its parts are common.
        planted = _render(fresh(2) + [f"{j:x}x"], 0)
        docs[d].insert(int(rng.integers(len(docs[d]) + 1)), planted)
        own = list(docs[d])
        rng.shuffle(own)
        snippet = own[:5]
        # Unseen identifiers: their whole token is out of vocabulary, their parts are not.
        for _ in range(2):
            snippet.append(_render(fresh(3), int(rng.integers(3))) + "Tmp")
        # Snippet lengths vary (12-36 identifiers, mean 24), as pasted code does.
        size = int(rng.integers(12, 37))
        snippet.extend(idents[r] for r in _zipf(rng, cdf, size - 1 - len(snippet)))
        # One snippet in three does not name the planted identifier at all.
        if planted in snippet:
            snippet.remove(planted)
        if rng.random() >= 1 / 3:
            snippet.append(planted)
        rng.shuffle(snippet)
        queries.append((f"q{j}", _code_text(rng, snippet)))
        qrels.append((f"q{j}", f"d{d}", 1))
    texts = [_code_text(rng, toks) for toks in docs]
    return texts, queries, queries[:n_eval], qrels


def _eval_hapax(rng: np.random.Generator, n_docs: int, n_queries: int, group_size: int,
                n_mids: int, n_noise_words: int):
    """Generalised hapax-mechanism corpus.

    Documents form groups of ``group_size`` sharing ``n_mids`` mid-frequency
    tokens; every document carries its own hapax plus Zipf background noise.
    Query j names its gold document's hapax, a df-2 token the gold shares
    with one sibling (graded 1), the mids of the *next* group (so
    ``group_size`` distractors match many tokens) and one noise word.
    """
    n_groups = n_docs // group_size
    noise_words = _parts(rng, n_noise_words)
    noise_cdf = _zipf_cdf(n_noise_words, 1.0)
    noise = _zipf(rng, noise_cdf, n_docs * 10).reshape(n_docs, 10)
    docs = []
    for d in range(n_docs):
        g = d // group_size
        docs.append([f"hapax{d}"] + [f"mid{g}x{i}" for i in range(n_mids)]
                    + [noise_words[w] for w in noise[d]])
    gold = rng.choice(n_docs, size=n_queries, replace=False)
    # The queries' noise words are drawn stratified: one uniform draw per
    # 1/n_queries slice of the Zipf CDF, in shuffled order.  The commonest
    # noise words are in over half the documents, so independent draws let
    # the queries' postings, and the cost of a query, swing by 15% per seed.
    strata = (rng.permutation(n_queries) + rng.random(n_queries)) / n_queries
    query_noise = np.minimum(np.searchsorted(noise_cdf, strata, side="right"), n_noise_words - 1)
    queries, qrels = [], []
    for j, d in enumerate(gold):
        sibling = int(rng.integers(n_docs - 1))
        sibling += sibling >= d
        docs[d].append(f"pair{j}")
        docs[sibling].append(f"pair{j}")
        g_other = (d // group_size + 1) % n_groups
        tokens = ([f"hapax{d}", f"pair{j}"] + [f"mid{g_other}x{i}" for i in range(n_mids)]
                  + [noise_words[int(query_noise[j])]])
        queries.append((f"q{j}", " ".join(tokens)))
        qrels.append((f"q{j}", f"d{d}", 2))
        qrels.append((f"q{j}", f"d{sibling}", 1))
    texts = [" ".join(toks) for toks in docs]
    return texts, queries, queries, qrels


_BUILDERS = {"search_t0_50k": _search_t0, "search_t2_20k": _search_t2, "eval_hapax": _eval_hapax}


def generate(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    """Write the workload's input files into ``out``; return a size summary."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    params = SIZES[workload]["smoke" if smoke else "full"]
    texts, queries, eval_queries, qrels = _BUILDERS[workload](_rng(workload, seed), **params)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for d, text in enumerate(texts):
            fh.write(json.dumps({"doc_id": f"d{d}", "text": text}) + "\n")
    for name, entries in (("queries.jsonl", queries), ("eval_queries.jsonl", eval_queries)):
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            for qid, text in entries:
                fh.write(json.dumps({"query_id": qid, "text": text}) + "\n")
    with open(out / "qrels.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for qid, doc_id, rel in qrels:
            fh.write(f"{qid}\t{doc_id}\t{rel}\n")
    return {"n_docs": len(texts), "n_queries": len(queries), "n_eval_queries": len(eval_queries)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)
    summary = generate(args.workload, args.seed, args.out, args.smoke)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

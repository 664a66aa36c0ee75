"""Command-line interface.

Subcommands: build, rescale, search, sweep, predict-q, eval, occlusion,
bench.  Every subcommand echoes its effective configuration to stderr so a
run is reproducible from its log line alone.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import time

import numpy as np

from . import __version__
from .corpus_io import load_corpus, load_queries, load_qrels
from .errors import QlexError
from .evaluation import (DEFAULT_DF_BINS, DEFAULT_Q_GRID, NDCG_CUTOFF, _check_bins,
                         _check_budgets, _check_grid, _check_seed, _judged, _q_text,
                         _walk, df_bin_occlusion, eval_mrr, eval_ndcg, eval_recall,
                         paired_bootstrap, q_sweep, recall_at_token_budget,
                         report_to_json, report_to_tsv, sweep_to_csv)
from .index import _check_mark, _check_param, build_index
from .query import _check_k, batch_retrieve, format_trec_run, rank_from_scores, top_k
from .stats import compute_corpus_stats, predict_q
from .storage import dumps_index, load_index, save_index, write_atomic
from .tokenizers import TokenizerMode
from .transforms import build_dph_index, rescale_index, rescale_index_gamma


def _echo_config(args: argparse.Namespace) -> None:
    pairs = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    print("config: " + " ".join(f"{k}={v}" for k, v in pairs.items()), file=sys.stderr)


def _mode(args: argparse.Namespace) -> TokenizerMode:
    return TokenizerMode(args.mode)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        write_atomic(out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _parse_bins(text: str) -> list[tuple[int, int | None]]:
    """Comma-separated inclusive upper edges; an open final bin is appended.
    Edges not ascending from 1 give bins that ``_check_bins`` rejects."""
    edges = _parse_ints(text)
    return list(zip([1] + [edge + 1 for edge in edges], edges + [None]))


def _checked(parse, check, *names):
    """An argparse ``type=`` that runs the library's rule, ``check(parse(text), *names)``,
    at parse time; a ValueError is re-raised as ArgumentTypeError, whose message argparse keeps."""
    def convert(text: str):
        try:
            value = parse(text)
            check(value, *names)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return convert


# ------------------------------------------------------------ subcommands

def _cmd_build(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    mode = _mode(args)
    if args.dph:
        index = build_dph_index(corpus, mode)
    else:
        index = build_index(corpus, mode, args.k1, args.b)
    save_index(index, args.index)
    print(f"built {index.header.scorer} index: N={index.num_docs} "
          f"V={index.vocab_size} nnz={index.nnz} -> {args.index}")
    return 0


def _cmd_rescale(args: argparse.Namespace) -> int:
    out = args.out or args.index
    if args.q is not None:
        name, value, transform = "q", args.q, rescale_index
    else:
        name, value, transform = "gamma", args.gamma, rescale_index_gamma
    index = transform(load_index(args.index), value)
    if index.header.applied_q is None and index.header.applied_gamma is None:  # the identity gate
        print(f"rescale skipped (bit-identity gate at {name}={value})")
        if out == args.index:
            return 0
    else:
        print(f"rescaled to {name}={value} -> {out}")
    save_index(index, out)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    queries = load_queries(args.queries)
    rankings = batch_retrieve(index, queries, args.k)
    _write_or_print(format_trec_run(rankings), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    queries = load_queries(args.queries)
    qrels = load_qrels(args.qrels)
    _judged(queries, qrels)
    grid = DEFAULT_Q_GRID if args.grid is None else args.grid
    table = q_sweep(load_index(args.index), queries, qrels, grid)
    _write_or_print(sweep_to_csv(table), args.out)
    print(f"q_opt={_q_text(table.q_opt)}", file=sys.stderr)
    return 0


def _cmd_predict_q(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    stats = compute_corpus_stats(corpus, _mode(args))
    q = predict_q(stats)
    print(f"htok\t{stats.htok:.6f}")
    print(f"q_pred\t{q:.4f}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.budgets is not None and not args.corpus:
        raise QlexError("--budgets needs --corpus for the token counter")
    queries = load_queries(args.queries)
    qrels = load_qrels(args.qrels)
    judged = _judged(queries, qrels)
    if args.budgets is not None:
        open(args.corpus, "rb").close()  # fail now, without holding the corpus while scoring
    index = load_index(args.index)
    depth = max(args.k, 100)
    placed = {qid: [] for qid, _ in queries}  # an unjudged query places no judged document
    rankings = []
    for qid, scores, places in _walk(index, qrels, judged, depth):
        placed[qid] = places
        if args.budgets is not None:  # the budget walk reads hits down to the first relevant one
            rankings.append(rank_from_scores(index, scores, places[0][0] + 1 if places else depth,
                                             qid))
    ndcg = eval_ndcg(placed, qrels)
    reports = {
        f"ndcg@{NDCG_CUTOFF}": ndcg,
        "mrr": eval_mrr(placed, qrels),
        f"recall@{args.k}": eval_recall(placed, qrels, args.k),
    }
    boot = None
    if args.compare_index:
        other = load_index(args.compare_index)
        other_placed = {qid: places for qid, _, places in _walk(other, qrels, judged, NDCG_CUTOFF)}
        boot = paired_bootstrap(ndcg.per_query, eval_ndcg(other_placed, qrels).per_query,
                                resamples=args.resamples, seed=args.seed)
    if args.budgets is not None:
        budget_rows = recall_at_token_budget(rankings, qrels, args.budgets,
                                             load_corpus(args.corpus))
        for budget, rec in budget_rows:
            print(f"recall@{budget}tok\t{rec:.4f}", file=sys.stderr)

    if args.format == "json":
        _write_or_print(report_to_json(reports, boot), args.out)
    else:
        _write_or_print(report_to_tsv(reports), args.out)
        if boot is not None:
            print(f"bootstrap: delta={boot.mean_delta:+.6f} "
                  f"ci=[{boot.ci_lo:+.6f}, {boot.ci_hi:+.6f}] "
                  f"reversals={boot.sign_reversals}/{boot.resamples} {boot.p_label()}",
                  file=sys.stderr)
    for name, rep in reports.items():
        print(f"{name}: mean={rep.mean:.4f} n={rep.n_queries} skipped={rep.n_skipped}",
              file=sys.stderr)
    return 0


def _cmd_occlusion(args: argparse.Namespace) -> int:
    queries = load_queries(args.queries)
    qrels = load_qrels(args.qrels)
    _judged(queries, qrels)
    bins = DEFAULT_DF_BINS if args.bins is None else args.bins
    index = load_index(args.index)
    if args.q is not None and index.header.applied_q != args.q:
        index = rescale_index(index, args.q)  # an index already at q is used as it is
    rows = df_bin_occlusion(index, queries, qrels, bins)
    lines = ["df_lo\tdf_hi\tmean_ndcg_loss"]
    for (lo, hi), loss in rows:
        lines.append(f"{lo}\t{hi if hi is not None else 'inf'}\t{loss:+.6f}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _median_mad(values: list[float]) -> tuple[float, float]:
    med = float(np.median(values))
    mad = float(np.median([abs(v - med) for v in values]))
    return med, mad


def _cmd_bench(args: argparse.Namespace) -> int:
    queries = load_queries(args.queries)
    if not queries:
        raise QlexError(f"no query to time in {args.queries}")
    corpus = load_corpus(args.corpus)
    mode = _mode(args)

    t0 = time.perf_counter()
    index = build_index(corpus, mode, args.k1, args.b)
    build_s = time.perf_counter() - t0
    size_bytes = len(dumps_index(index))

    rescale_ms = None
    if args.q is not None and args.q != 1.0:
        t0 = time.perf_counter()
        index = rescale_index(index, args.q)
        rescale_ms = (time.perf_counter() - t0) * 1e3

    texts = [text for _, text in queries]
    # Steady state: warm every query once, then time with the collector off.
    for text in texts:
        top_k(index, text, mode, args.k)
    p50s, p95s = [], []
    gc.disable()
    try:
        for _ in range(args.trials):
            laps = []
            for text in texts:
                t0 = time.perf_counter()
                top_k(index, text, mode, args.k)
                laps.append((time.perf_counter() - t0) * 1e3)
            p50s.append(float(np.percentile(laps, 50)))
            p95s.append(float(np.percentile(laps, 95)))
    finally:
        gc.enable()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50_med, p50_mad = _median_mad(p50s)
    p95_med, p95_mad = _median_mad(p95s)
    print(f"index build        {build_s:10.3f} s")
    print(f"index size         {size_bytes / 1e6:10.3f} MB")
    if rescale_ms is not None:
        print(f"rescale (q={args.q:g})   {rescale_ms:10.3f} ms")
    print(f"query p50          {p50_med:10.4f} +/- {p50_mad:.4f} ms "
          f"({args.trials} trials x {len(texts)} queries, top-{args.k})")
    print(f"query p95          {p95_med:10.4f} +/- {p95_mad:.4f} ms")
    print(f"peak RSS           {peak_rss_mb:10.1f} MB")
    return 0


# ----------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlex",
        description="Lexical code retrieval with a q-log deformation of the RSJ-odds IDF.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("build", _cmd_build, "build a score index from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True, help="output index path")
    p.add_argument("--mode", default="t0", choices=[m.value for m in TokenizerMode])
    p.add_argument("--k1", type=_checked(float, _check_param, "k1"), default=1.5)
    p.add_argument("--b", type=_checked(float, _check_param, "b"), default=0.75)
    p.add_argument("--dph", action="store_true", help="bake parameter-free DPH scores instead")

    p = add("rescale", _cmd_rescale, "apply a q-log or gamma IDF transform in place")
    p.add_argument("--index", required=True)
    p.add_argument("--out", help="write to a new path instead of overwriting")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=_checked(float, _check_mark, "q"))
    group.add_argument("--gamma", type=_checked(float, _check_mark, "gamma"))

    p = add("search", _cmd_search, "run queries and emit a TREC-style run file")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=_checked(int, _check_k), default=100)
    p.add_argument("--out")

    p = add("sweep", _cmd_sweep, "mean NDCG@10 across an exponent grid")
    p.add_argument("--index", required=True, help="untransformed baseline index")
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--grid", type=_checked(_parse_floats, _check_grid),
                   help="comma-separated q values")
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = add("predict-q", _cmd_predict_q, "predict the exponent from corpus statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", default="t0", choices=[m.value for m in TokenizerMode])

    p = add("eval", _cmd_eval, "NDCG/MRR/recall report, optional paired bootstrap")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=_checked(int, _check_k), default=10, help="recall cutoff (>= 1)")
    p.add_argument("--format", default="tsv", choices=["tsv", "json"])
    p.add_argument("--out")
    p.add_argument("--compare-index", help="second index for a paired bootstrap on NDCG@10")
    p.add_argument("--resamples", type=_checked(int, _check_k, "resamples"), default=10_000)
    p.add_argument("--seed", type=_checked(int, _check_seed), default=0)
    p.add_argument("--budgets", type=_checked(_parse_ints, _check_budgets),
                   help="comma-separated token budgets (needs --corpus)")
    p.add_argument("--corpus", help="corpus path for the budget token counter")

    p = add("occlusion", _cmd_occlusion, "NDCG loss per document-frequency bin")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--q", type=_checked(float, _check_mark, "q"),
                   help="operating exponent (rescales a pristine index)")
    p.add_argument("--bins", type=_checked(_parse_bins, _check_bins),
                   help="comma-separated inclusive upper df edges")
    p.add_argument("--out")

    p = add("bench", _cmd_bench, "steady-state build/rescale/query timings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--mode", default="t0", choices=[m.value for m in TokenizerMode])
    p.add_argument("--q", type=_checked(float, _check_mark, "q"))
    p.add_argument("--k1", type=_checked(float, _check_param, "k1"), default=1.5)
    p.add_argument("--b", type=_checked(float, _check_param, "b"), default=0.75)
    p.add_argument("--k", type=_checked(int, _check_k), default=100, help="retrieval depth")
    p.add_argument("--trials", type=_checked(int, _check_k, "trials"), default=5)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (QlexError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

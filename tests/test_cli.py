"""End-to-end subcommand coverage through main(argv)."""

import json
from collections import Counter

import numpy as np
import pytest

from qlex import cli, evaluation, load_index, load_qrels, load_queries, query, tokenize
from qlex.cli import _parse_bins, main
from qlex.evaluation import EvalReport, paired_bootstrap, report_to_json

from conftest import (hapax_mechanism_corpus, make_corpus, random_corpus, write_jsonl_corpus,
                      write_jsonl_queries, write_qrels)
from oracles import eval_by_batch_retrieve


@pytest.fixture
def workdir(tmp_path):
    """Small self-consistent corpus, queries, and qrels on disk."""
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, n_docs=40, vocab=60, min_len=4, max_len=15)
    write_jsonl_corpus(tmp_path / "corpus.jsonl", corpus)
    queries = [(f"q{i}", corpus.texts[i]) for i in range(8)]
    write_jsonl_queries(tmp_path / "queries.jsonl", queries)
    write_qrels(tmp_path / "qrels.tsv", [(f"q{i}", f"d{i}", 1) for i in range(8)])
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


JUDGED = ["--index", "base.qlx", "--queries", "queries.jsonl", "--qrels", "qrels.tsv"]


@pytest.fixture
def refused(tmp_path, monkeypatch, capsys):
    """The one check of a refusal before any load.  A bad argument exits 2 from
    argparse with every loader and the build raising; bad input exits 1 with
    only the query and qrels loaders live, the inputs such a rule reads.  Either
    way the rule's message is on stderr, stdout is empty and no file is written."""
    def check(*argv, message, code=2):
        def loader(*args):
            raise AssertionError(f"loaded {args} before refusing {argv}")
        live = () if code == 2 else ("load_queries", "load_qrels")
        for name in {"load_index", "load_queries", "load_qrels", "load_corpus",
                     "build_index"} - set(live):
            monkeypatch.setattr(cli, name, loader)
        files = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        try:
            rc = run(*argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        rule = "error: argument --" if code == 2 else "error: "
        assert rc == code and rule in captured.err and message in captured.err
        assert captured.out == "" and sorted(tmp_path.rglob("*")) == files
    return check


class TestBuildRescaleSearch:
    def test_build_writes_index(self, workdir, capsys):
        rc = run("build", "--corpus", workdir / "corpus.jsonl",
                 "--index", workdir / "idx.qlx", "--mode", "t1")
        assert rc == 0
        assert (workdir / "idx.qlx").exists()
        out = capsys.readouterr()
        assert "built bm25 index" in out.out
        assert "config:" in out.err

    def test_build_dph(self, workdir, capsys):
        rc = run("build", "--corpus", workdir / "corpus.jsonl",
                 "--index", workdir / "dph.qlx", "--dph")
        assert rc == 0
        assert "built dph index" in capsys.readouterr().out
        assert load_index(workdir / "dph.qlx").header.scorer == "dph"

    def test_rescale_roundtrip_and_q1_gate(self, workdir, capsys):
        run("build", "--corpus", workdir / "corpus.jsonl",
            "--index", workdir / "idx.qlx", "--mode", "t1")
        base = (workdir / "idx.qlx").read_bytes()

        rc = run("rescale", "--index", workdir / "idx.qlx",
                 "--out", workdir / "same.qlx", "--q", "1.0")
        assert rc == 0
        assert "rescale skipped (bit-identity gate at q=1.0)" in capsys.readouterr().out
        assert (workdir / "same.qlx").read_bytes() == base

        rc = run("rescale", "--index", workdir / "idx.qlx",
                 "--out", workdir / "q03.qlx", "--q", "0.3")
        assert rc == 0
        rescaled = load_index(workdir / "q03.qlx")
        assert rescaled.header.applied_q == 0.3
        assert (workdir / "idx.qlx").read_bytes() == base  # --out leaves input alone

    def test_rescale_twice_fails(self, workdir, capsys):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "idx.qlx")
        run("rescale", "--index", workdir / "idx.qlx", "--q", "0.5")
        rc = run("rescale", "--index", workdir / "idx.qlx", "--q", "0.5")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_rescale_gamma_gate(self, workdir, capsys):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "idx.qlx")
        rc = run("rescale", "--index", workdir / "idx.qlx", "--gamma", "1.0")
        assert rc == 0
        assert "gamma=1.0" in capsys.readouterr().out

    def test_search_emits_trec_run(self, workdir, capsys):
        run("build", "--corpus", workdir / "corpus.jsonl",
            "--index", workdir / "idx.qlx", "--mode", "t1")
        rc = run("search", "--index", workdir / "idx.qlx",
                 "--queries", workdir / "queries.jsonl", "--k", "5")
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
        assert len(lines) == 8 * 5
        qid, doc_id, rank, score = lines[0].split("\t")
        assert (qid, rank) == ("q0", "1")
        assert doc_id == "d0"  # query 0 is doc 0's own text
        float(score)

    def test_search_to_file(self, workdir):
        run("build", "--corpus", workdir / "corpus.jsonl",
            "--index", workdir / "idx.qlx", "--mode", "t1")
        rc = run("search", "--index", workdir / "idx.qlx",
                 "--queries", workdir / "queries.jsonl", "--k", "3",
                 "--out", workdir / "run.txt")
        assert rc == 0
        assert len((workdir / "run.txt").read_text().splitlines()) == 8 * 3

    def test_search_prints_the_bytes_it_writes(self, workdir, capsysbinary):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "idx.qlx")
        search = ("search", "--index", workdir / "idx.qlx", "--queries", workdir / "queries.jsonl")
        capsysbinary.readouterr()
        assert run(*search) == 0
        printed = capsysbinary.readouterr().out
        assert run(*search, "--out", workdir / "run.tsv") == 0
        assert capsysbinary.readouterr().out == b""
        assert printed.count(b"\n") == 8 * 40 and printed == (workdir / "run.tsv").read_bytes()


class TestAnalysisCommands:
    @pytest.fixture
    def mech(self, tmp_path, capsys):
        corpus, queries, qrels = hapax_mechanism_corpus(
            n_docs=400, group_size=100, mids_per_group=16, n_queries=30)
        write_jsonl_corpus(tmp_path / "corpus.jsonl", corpus)
        write_jsonl_queries(tmp_path / "queries.jsonl", list(queries))
        write_qrels(tmp_path / "qrels.tsv",
                    [(q, d, r) for q, by in qrels.judgments.items()
                     for d, r in by.items()])
        run("build", "--corpus", tmp_path / "corpus.jsonl",
            "--index", tmp_path / "base.qlx", "--mode", "t0")
        capsys.readouterr()  # drain setup output so tests parse clean streams
        return tmp_path

    def test_sweep_csv(self, mech, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_index", lambda path: loads.append(path) or load_index(path))
        rc = run("sweep", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                 "--grid", "0.1,0.3,1.0")
        assert rc == 0 and loads == [str(mech / "base.qlx")]
        out = capsys.readouterr()
        lines = out.out.strip().splitlines()
        assert lines[0] == "q,mean_ndcg"
        assert len(lines) == 4
        assert "q_opt=" in out.err

    def test_sweep_prints_the_swept_q(self, mech, capsys):
        # .2f would print 0.12, 0.38 and 0.39: points that were not swept.
        # q <= 0 is legal: q = 0 is ln_0(x) = x - 1, Box-Cox with lambda = 1.
        for grid, want in (("0.125,0.375,0.385,0.5", ["0.125", "0.375", "0.385", "0.50"]),
                           ("0.5,0,-1", ["0.50", "0.00", "-1.00"])):
            rc = run("sweep", "--index", mech / "base.qlx",
                     "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                     "--grid", grid)
            assert rc == 0
            out = capsys.readouterr()
            texts = [line.split(",")[0] for line in out.out.strip().splitlines()[1:]]
            assert texts == want
            (q_opt,) = [line[len("q_opt="):] for line in out.err.splitlines()
                        if line.startswith("q_opt=")]
            assert q_opt in texts

    def test_predict_q_machine_readable(self, mech, capsys):
        rc = run("predict-q", "--corpus", mech / "corpus.jsonl", "--mode", "t0")
        assert rc == 0
        fields = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
        htok, q_pred = float(fields["htok"]), float(fields["q_pred"])
        assert 0.0 < htok < 1.0
        assert q_pred == pytest.approx(min(1.0, max(0.01, 1 - 7.28 * htok)), abs=5e-5)

    def test_eval_tsv_and_json(self, mech, capsys):
        rc = run("eval", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv")
        assert rc == 0
        out = capsys.readouterr()
        assert out.out.startswith("query_id\t")
        assert "ndcg@10: mean=" in out.err

        rc = run("eval", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                 "--format", "json", "--out", mech / "report.json")
        assert rc == 0
        payload = json.loads((mech / "report.json").read_text())
        assert set(payload) == {"ndcg@10", "mrr", "recall@10"}

    def test_eval_compare_bootstrap(self, mech, capsys):
        run("rescale", "--index", mech / "base.qlx",
            "--out", mech / "q01.qlx", "--q", "0.1")
        capsys.readouterr()  # drop the rescale notice before parsing JSON
        rc = run("eval", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                 "--compare-index", mech / "q01.qlx",
                 "--format", "json", "--resamples", "500", "--seed", "7")
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        boot = payload["bootstrap"]
        assert boot["mean_delta"] > 0.5  # q=0.1 rescues the hapax queries
        assert boot["resamples"] == 500 and boot["seed"] == 7

        # The report is exactly the reference metrics over both indexes' rankings.
        queries, qrels = load_queries(mech / "queries.jsonl"), load_qrels(mech / "qrels.tsv")
        base, other = (load_index(mech / name) for name in ("base.qlx", "q01.qlx"))
        expected, _ = eval_by_batch_retrieve(base, queries, qrels, 10)
        reports = {name: EvalReport(per_query, float(np.mean(list(per_query.values()))),
                                    len(per_query), len(queries) - len(per_query))
                   for name, per_query in expected.items()}
        other_ndcg = eval_by_batch_retrieve(other, queries, qrels, 10)[0]["ndcg@10"]
        boot = paired_bootstrap(expected["ndcg@10"], other_ndcg, resamples=500, seed=7)
        assert out == report_to_json(reports, boot)

    def test_eval_ranks_only_for_budgets_and_scores_each_judged_query_once(self, mech, capsys,
                                                                           monkeypatch):
        run("rescale", "--index", mech / "base.qlx", "--out", mech / "q01.qlx", "--q", "0.1")
        judged = list(load_queries(mech / "queries.jsonl"))
        unjudged = [("u0", "hapax200 mid0x1"), ("u1", "hapax201")]
        write_jsonl_queries(mech / "mixed.jsonl", unjudged[:1] + judged + unjudged[1:])
        base = load_index(mech / "base.qlx")
        columns = {qid: tuple(query._columns(base, tokenize(text, base.header.mode)))
                   for qid, text in judged + unjudged}
        assert len(set(columns.values())) == len(columns)
        by_columns = {cols: qid for qid, cols in columns.items()}

        scored, ranked = [], []
        score, rank = query._score, query.rank_from_scores

        def record_score(index, cols):
            scored.append((index.header.applied_q, by_columns[tuple(cols)]))
            return score(index, cols)

        def record_rank(index, scores, k, query_id=""):
            ranked.append((index.header.applied_q, query_id, k))
            return rank(index, scores, k, query_id)

        for module in (query, evaluation):
            monkeypatch.setattr(module, "_score", record_score)
        for module in (query, cli):
            monkeypatch.setattr(module, "rank_from_scores", record_rank)
        common = ["--queries", mech / "mixed.jsonl", "--qrels", mech / "qrels.tsv",
                  "--compare-index", mech / "q01.qlx", "--resamples", "100"]
        once_per_index = Counter((q, qid) for q in (None, 0.1) for qid, _ in judged)

        assert run("eval", "--index", mech / "base.qlx", *common) == 0
        assert ranked == []
        assert Counter(scored) == once_per_index

        scored.clear()
        capsys.readouterr()
        assert run("eval", "--index", mech / "base.qlx", *common, "--k", "150",
                   "--budgets", "128,1024", "--corpus", mech / "corpus.jsonl",
                   "--format", "json") == 0
        captured = capsys.readouterr()
        assert "recall@1024tok" in captured.err and "recall@150" in json.loads(captured.out)
        assert [(q, qid) for q, qid, _ in ranked] == [(None, qid) for qid, _ in judged]
        assert all(1 <= k <= 150 for _, _, k in ranked)
        assert Counter(scored) == once_per_index

    @pytest.mark.parametrize("k", ["0", "-95"])
    def test_eval_rejects_a_cutoff_below_one(self, mech, refused, k):
        refused("eval", "--index", mech / "base.qlx", "--queries", mech / "queries.jsonl",
                "--qrels", mech / "qrels.tsv", "--k", k, "--out", mech / "report.tsv",
                message=f"k must be >= 1, got {k}")

    def test_eval_budgets_need_corpus(self, mech, capsys):
        rc = run("eval", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                 "--budgets", "128,1024")
        assert rc == 1
        assert "--corpus" in capsys.readouterr().err

        rc = run("eval", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                 "--budgets", "128,1024", "--corpus", mech / "corpus.jsonl")
        assert rc == 0
        assert "recall@128tok" in capsys.readouterr().err

    def test_occlusion_table(self, mech, capsys):
        rc = run("occlusion", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                 "--q", "0.1", "--bins", "1,5,100")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "df_lo\tdf_hi\tmean_ndcg_loss"
        assert len(lines) == 5  # 3 edges -> 4 bins, plus header
        assert lines[4].startswith("101\tinf\t")
        hapax_loss = float(lines[1].split("\t")[2])
        assert hapax_loss > 0.9

    def test_mismatched_operating_point_rejected(self, mech, capsys):
        # occlusion --q rescales the loaded index unless it is already at q.
        judged = ["--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv"]
        run("rescale", "--index", mech / "base.qlx", "--q", "0.5", "--out", mech / "q05.qlx")
        capsys.readouterr()
        assert run("occlusion", "--index", mech / "base.qlx", *judged, "--q", "0.5") == 0
        from_base = capsys.readouterr().out
        assert run("occlusion", "--index", mech / "q05.qlx", *judged, "--q", "0.5") == 0
        assert capsys.readouterr().out == from_base
        rc = run("occlusion", "--index", mech / "q05.qlx", *judged, "--q", "0.1")
        assert rc == 1
        captured = capsys.readouterr()
        assert "already rescaled" in captured.err and captured.out == ""

    def test_bench_smoke(self, workdir, capsys):
        rc = run("bench", "--corpus", workdir / "corpus.jsonl",
                 "--queries", workdir / "queries.jsonl", "--mode", "t1",
                 "--q", "0.3", "--trials", "2", "--k", "10")
        assert rc == 0
        out = capsys.readouterr().out
        for needle in ("index build", "index size", "rescale (q=0.3)",
                       "query p50", "query p95", "peak RSS"):
            assert needle in out


class TestErrorsAndParsing:
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bench_needs_a_trial(self, workdir, refused, trials):
        refused("bench", "--corpus", workdir / "corpus.jsonl",
                "--queries", workdir / "queries.jsonl", "--trials", trials,
                message=f"argument --trials: trials must be >= 1, got {trials}")

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("queries", ["empty.jsonl", "queries.jsonl"])
    def test_search_refuses_a_depth_below_one_before_any_load(self, workdir, refused, queries,
                                                               k):
        refused("search", "--index", workdir / "base.qlx", "--queries", workdir / queries,
                "--k", k, "--out", workdir / "run.tsv", message=f"k must be >= 1, got {k}")

    @pytest.mark.parametrize("queries, k, code, message", [
        ("queries.jsonl", "0", 2, "k must be >= 1"),
        ("queries.jsonl", "-1", 2, "k must be >= 1"),
        ("empty.jsonl", "10", 1, "no query to time"),
    ], ids=["k_zero", "k_negative", "no_query"])
    def test_bench_refuses_before_the_build(self, workdir, refused, queries, k, code, message):
        (workdir / "empty.jsonl").write_text("")
        refused("bench", "--corpus", workdir / "corpus.jsonl", "--queries", workdir / queries,
                "--k", k, code=code, message=message)

    def test_missing_corpus_is_exit_one(self, tmp_path, capsys):
        rc = run("build", "--corpus", tmp_path / "nope.jsonl",
                 "--index", tmp_path / "idx.qlx")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_dph_rescale_refused(self, workdir, capsys):
        run("build", "--corpus", workdir / "corpus.jsonl",
            "--index", workdir / "dph.qlx", "--dph")
        rc = run("rescale", "--index", workdir / "dph.qlx", "--q", "0.5")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("transform", [("--q", "1.0"), ("--gamma", "1.0")])
    def test_dph_identity_rescale_refused(self, workdir, capsys, transform):
        run("build", "--corpus", workdir / "corpus.jsonl",
            "--index", workdir / "dph.qlx", "--dph")
        before = (workdir / "dph.qlx").read_bytes()
        rc = run("rescale", "--index", workdir / "dph.qlx", *transform)
        assert rc == 1
        assert "applies to bm25 indexes only" in capsys.readouterr().err
        assert (workdir / "dph.qlx").read_bytes() == before

    @pytest.mark.parametrize("build_flags, rescale_flags", [
        ((), ("--q", "0.5")), ((), ("--gamma", "2.0")), (("--dph",), ())])
    def test_sweep_refuses_a_transformed_or_dph_baseline(self, workdir, capsys, build_flags,
                                                          rescale_flags):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "base.qlx",
            *build_flags)
        if rescale_flags:
            run("rescale", "--index", workdir / "base.qlx", *rescale_flags)
        capsys.readouterr()
        rc = run("sweep", "--index", workdir / "base.qlx", "--queries", workdir / "queries.jsonl",
                 "--qrels", workdir / "qrels.tsv", "--grid", "0.3,1.0")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_budget_corpus_lacking_a_ranked_doc(self, tmp_path, capsys):
        write_jsonl_corpus(tmp_path / "corpus.jsonl", make_corpus(["alpha beta", "beta gamma"]))
        write_jsonl_corpus(tmp_path / "other.jsonl", make_corpus(["alpha"], prefix="x"))
        write_jsonl_queries(tmp_path / "queries.jsonl", [("q0", "beta")])
        write_qrels(tmp_path / "qrels.tsv", [("q0", "d1", 1)])
        run("build", "--corpus", tmp_path / "corpus.jsonl", "--index", tmp_path / "idx.qlx")
        capsys.readouterr()
        rc = run("eval", "--index", tmp_path / "idx.qlx", "--queries", tmp_path / "queries.jsonl",
                 "--qrels", tmp_path / "qrels.tsv", "--budgets", "10",
                 "--corpus", tmp_path / "other.jsonl", "--out", tmp_path / "report.tsv")
        assert rc == 1 and not (tmp_path / "report.tsv").exists()
        err = capsys.readouterr().err
        assert "error:" in err and "'d0'" in err and str(tmp_path / "other.jsonl") in err

    def test_parse_bins(self):
        assert _parse_bins("1,5,20") == [(1, 1), (2, 5), (6, 20), (21, None)]

    @pytest.mark.parametrize("command, flag, message", [
        ("sweep", "--grid", "sweep grid must be non-empty"),
        ("eval", "--budgets", "budgets must be positive"),
    ])
    def test_an_explicit_empty_list_is_not_the_default(self, workdir, refused, command, flag,
                                                       message):
        corpus = ["--corpus", workdir / "corpus.jsonl"] if command == "eval" else []
        refused(command, "--index", workdir / "base.qlx", "--queries", workdir / "queries.jsonl",
                "--qrels", workdir / "qrels.tsv", flag, "", *corpus, message=message)

    def test_empty_bins_are_one_open_bin(self, workdir, capsys):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "base.qlx")
        capsys.readouterr()
        rc = run("occlusion", "--index", workdir / "base.qlx", "--queries",
                 workdir / "queries.jsonl", "--qrels", workdir / "qrels.tsv", "--bins", "")
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(lines) == 2 and lines[1].startswith("1\tinf\t")

    @pytest.mark.parametrize("flag, value", [("--k1", "-1"), ("--b", "1.5")])
    def test_build_rejects_illegal_bm25_parameters(self, workdir, refused, flag, value):
        # Refused at parse time even under --dph, which bakes neither.
        refused("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "bad.qlx",
                "--dph", flag, value, message=f"argument {flag}: {flag[2:]} must")

    @pytest.mark.parametrize("edges", ["5,5", "0,5", "9,3"])
    def test_occlusion_rejects_bad_bin_edges(self, workdir, refused, edges):
        refused("occlusion", "--index", workdir / "base.qlx", "--queries",
                workdir / "queries.jsonl", "--qrels", workdir / "qrels.tsv", "--bins", edges,
                "--out", workdir / "occ.tsv", message="argument --bins: df bins must be")

    @pytest.mark.parametrize("command", ["sweep", "occlusion", "eval"])
    def test_no_judged_query_is_exit_one(self, workdir, capsys, command):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "base.qlx")
        write_qrels(workdir / "other.tsv", [("absent", "d0", 1)])
        capsys.readouterr()
        rc = run(command, "--index", workdir / "base.qlx", "--queries",
                 workdir / "queries.jsonl", "--qrels", workdir / "other.tsv")
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: no query has a positively judged document" in captured.err
        assert "q_opt" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, code, message", [
        (["eval", *JUDGED, "--budgets", "16"], 1, "--budgets needs --corpus"),
        (["occlusion", "--index", "base.qlx", "--queries", "queries.jsonl", "--qrels", "other.tsv",
          "--q", "0.3"], 1, "no query has a positively judged document"),
        (["eval", *JUDGED, "--budgets", "32,16", "--corpus", "corpus.jsonl"], 2,
         "budgets must be strictly ascending"),
        (["eval", *JUDGED, "--budgets", "0", "--corpus", "corpus.jsonl"], 2,
         "budgets must be positive"),
        (["eval", *JUDGED, "--budgets", "", "--corpus", "corpus.jsonl"], 2,
         "budgets must be positive"),
        (["eval", *JUDGED, "--k", "0"], 2, "argument --k: k must be >= 1"),
        (["eval", *JUDGED, "--compare-index", "base.qlx", "--resamples", "0"], 2,
         "argument --resamples: resamples must be >= 1"),
        (["eval", *JUDGED, "--resamples", "0"], 2, "resamples must be >= 1"),
        (["occlusion", *JUDGED, "--bins", "5,3"], 2, "df bins"),
        (["occlusion", *JUDGED, "--bins", "0"], 2, "df bins"),
        (["occlusion", *JUDGED, "--bins", "5,3", "--q", "0.3"], 2, "df bins"),
        (["sweep", *JUDGED, "--grid", "0.5,nan"], 2, "argument --grid: a rescale sets a finite q"),
        (["sweep", *JUDGED, "--grid", "0.5,inf"], 2, "finite q"),
        (["sweep", *JUDGED, "--grid", "0.5,abc"], 2, "could not convert string to float: 'abc'"),
        (["occlusion", *JUDGED, "--q", "nan"], 2, "argument --q: a rescale sets a finite q"),
        (["occlusion", *JUDGED, "--q", "inf"], 2, "finite q"),
        (["rescale", "--index", "base.qlx", "--q", "nan"], 2, "finite q"),
        (["rescale", "--index", "base.qlx", "--gamma", "0"], 2,
         "argument --gamma: a rescale sets a finite q or a finite gamma > 0; got gamma=0.0"),
        (["bench", "--corpus", "corpus.jsonl", "--queries", "queries.jsonl", "--q", "nan"], 2,
         "argument --q: a rescale sets a finite q"),
        (["eval", *JUDGED, "--budgets", "16", "--corpus", "missing.jsonl"], 1,
         "No such file or directory"),
        (["build", "--corpus", "corpus.jsonl", "--index", "out.qlx", "--k1", "-1"], 2,
         "argument --k1: k1 must be finite and > 0, got -1.0"),
        (["build", "--corpus", "corpus.jsonl", "--index", "out.qlx", "--k1", "nan"], 2,
         "argument --k1: k1 must be finite and > 0, got nan"),
        (["build", "--corpus", "corpus.jsonl", "--index", "out.qlx", "--b", "1.5"], 2,
         "argument --b: b must lie in [0, 1], got 1.5"),
        (["bench", "--corpus", "corpus.jsonl", "--queries", "queries.jsonl", "--b", "-0.1"], 2,
         "argument --b: b must lie in [0, 1], got -0.1"),
        (["eval", *JUDGED, "--compare-index", "base.qlx", "--seed", "-1"], 2,
         "argument --seed: seed must be >= 0, got -1"),
        (["eval", *JUDGED, "--seed", "-1"], 2, "argument --seed: seed must be >= 0, got -1"),
    ], ids=["eval_budgets_without_corpus", "occlusion_no_judged_query", "eval_budgets_descending",
            "eval_budget_zero", "eval_budgets_empty", "eval_k_zero", "eval_resamples_zero",
            "eval_resamples_zero_without_compare_index", "occlusion_bins_descending",
            "occlusion_bin_zero", "occlusion_bins_descending_at_q", "sweep_grid_nan",
            "sweep_grid_inf", "sweep_grid_malformed", "occlusion_q_nan", "occlusion_q_inf",
            "rescale_q_nan", "rescale_gamma_zero", "bench_q_nan", "eval_budget_corpus_missing",
            "build_k1_negative", "build_k1_nan", "build_b_above_one", "bench_b_negative",
            "eval_seed_negative", "eval_seed_negative_without_compare_index"])
    def test_refused_before_any_index_load(self, workdir, refused, argv, code, message):
        write_qrels(workdir / "other.tsv", [("absent", "d0", 1)])
        out = [] if argv[0] in ("bench", "build") else ["--out", "out.tsv"]
        refused(*[workdir / arg if arg.endswith((".jsonl", ".qlx", ".tsv")) else arg
                  for arg in argv + out], code=code, message=message)

    @pytest.mark.parametrize("qrels, extra, code, message", [
        ("qrels.tsv", ["--grid", ""], 2, "sweep grid must be non-empty"),
        ("qrels.tsv", ["--grid", "nan"], 2, "finite q"),
        ("other.tsv", [], 1, "no query has a positively judged document"),
    ], ids=["empty_grid", "nan_grid", "no_judged_query"])
    def test_sweep_refuses_its_arguments_before_opening_the_index(self, workdir, refused, qrels,
                                                                  extra, code, message):
        write_qrels(workdir / "other.tsv", [("absent", "d0", 1)])
        refused("sweep", "--index", workdir / "absent.qlx", "--queries",
                workdir / "queries.jsonl", "--qrels", workdir / qrels, *extra, code=code,
                message=message)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("qlex ")

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

"""End-to-end subcommand coverage through main(argv)."""

import json

import numpy as np
import pytest

from qlex import cli, load_index, load_qrels, load_queries, query
from qlex.cli import _parse_bins, main
from qlex.evaluation import (eval_mrr, eval_ndcg, eval_recall, paired_bootstrap,
                             report_to_json)
from qlex.query import batch_retrieve

from conftest import (hapax_mechanism_corpus, make_corpus, random_corpus, write_jsonl_corpus,
                      write_jsonl_queries, write_qrels)


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

    def test_sweep_csv(self, mech, capsys):
        rc = run("sweep", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                 "--grid", "0.1,0.3,1.0")
        assert rc == 0
        out = capsys.readouterr()
        lines = out.out.strip().splitlines()
        assert lines[0] == "q,mean_ndcg"
        assert len(lines) == 4
        assert "q_opt=" in out.err

    def test_sweep_prints_the_swept_q(self, mech, capsys):
        # .2f would print 0.12, 0.38 and 0.39: points that were not swept.
        rc = run("sweep", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                 "--grid", "0.125,0.375,0.385,0.5")
        assert rc == 0
        out = capsys.readouterr()
        texts = [line.split(",")[0] for line in out.out.strip().splitlines()[1:]]
        assert texts == ["0.125", "0.375", "0.385", "0.50"]
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

        # The report is exactly the library's metrics over both indexes.
        queries, qrels = load_queries(mech / "queries.jsonl"), load_qrels(mech / "qrels.tsv")
        base, other = (load_index(mech / name) for name in ("base.qlx", "q01.qlx"))
        ranked = batch_retrieve(base, queries, 100)
        reports = {"ndcg@10": eval_ndcg(ranked, qrels, 10), "mrr": eval_mrr(ranked, qrels),
                   "recall@10": eval_recall(ranked, qrels, 10)}
        other_ndcg = eval_ndcg(batch_retrieve(other, queries, 100), qrels, 10)
        expected = paired_bootstrap(eval_ndcg(ranked, qrels, 10).per_query,
                                    other_ndcg.per_query, resamples=500, seed=7)
        assert out == report_to_json(reports, expected)

    def test_eval_ranks_each_query_once_per_index(self, mech, capsys, monkeypatch):
        run("rescale", "--index", mech / "base.qlx", "--out", mech / "q01.qlx", "--q", "0.1")
        ranked = []
        rank_tokens = query.rank_tokens
        monkeypatch.setattr(query, "rank_tokens",
                            lambda index, *rest: ranked.append(index) or rank_tokens(index, *rest))
        rc = run("eval", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv",
                 "--compare-index", mech / "q01.qlx", "--resamples", "100",
                 "--budgets", "128,1024", "--corpus", mech / "corpus.jsonl")
        assert rc == 0
        assert "recall@1024tok" in capsys.readouterr().err
        n_queries = len(load_queries(mech / "queries.jsonl"))
        assert len(ranked) == 2 * n_queries
        assert len({id(index) for index in ranked}) == 2

    @pytest.mark.parametrize("k", ["0", "-95"])
    def test_eval_rejects_a_cutoff_below_one(self, mech, capsys, k):
        rc = run("eval", "--index", mech / "base.qlx",
                 "--queries", mech / "queries.jsonl", "--qrels", mech / "qrels.tsv", "--k", k)
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "k must be >= 1" in err
        assert f"recall@{k}:" not in err

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
    def test_bench_needs_a_trial(self, workdir, capsys, trials):
        rc = run("bench", "--corpus", workdir / "corpus.jsonl",
                 "--queries", workdir / "queries.jsonl", "--trials", trials)
        assert rc == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "--trials" in captured.err
        assert "nan" not in captured.out

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
                 "--corpus", tmp_path / "other.jsonl")
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'d0'" in err and str(tmp_path / "other.jsonl") in err

    def test_parse_bins(self):
        assert _parse_bins("1,5,20") == [(1, 1), (2, 5), (6, 20), (21, None)]

    @pytest.mark.parametrize("command, flag, message", [
        ("sweep", "--grid", "sweep grid must be non-empty"),
        ("eval", "--budgets", "budgets must be positive"),
    ])
    def test_an_explicit_empty_list_is_not_the_default(self, workdir, capsys, command, flag,
                                                       message):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "base.qlx")
        capsys.readouterr()
        corpus = ["--corpus", workdir / "corpus.jsonl"] if command == "eval" else []
        rc = run(command, "--index", workdir / "base.qlx", "--queries",
                 workdir / "queries.jsonl", "--qrels", workdir / "qrels.tsv", flag, "", *corpus)
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        assert message in out.err and "recall@" not in out.err

    def test_empty_bins_are_one_open_bin(self, workdir, capsys):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "base.qlx")
        capsys.readouterr()
        rc = run("occlusion", "--index", workdir / "base.qlx", "--queries",
                 workdir / "queries.jsonl", "--qrels", workdir / "qrels.tsv", "--bins", "")
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(lines) == 2 and lines[1].startswith("1\tinf\t")

    @pytest.mark.parametrize("flag, value", [("--k1", "-1"), ("--b", "1.5")])
    def test_build_rejects_illegal_bm25_parameters(self, workdir, capsys, flag, value):
        rc = run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "bad.qlx",
                 flag, value)
        assert rc == 1
        assert f"{flag[2:]} must" in capsys.readouterr().err
        assert not (workdir / "bad.qlx").exists()

    @pytest.mark.parametrize("edges", ["5,5", "0,5", "9,3"])
    def test_occlusion_rejects_bad_bin_edges(self, workdir, capsys, edges):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "base.qlx")
        capsys.readouterr()
        rc = run("occlusion", "--index", workdir / "base.qlx", "--queries",
                 workdir / "queries.jsonl", "--qrels", workdir / "qrels.tsv", "--bins", edges)
        assert rc == 1
        assert "error:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, qrels, extra, message", [
        ("eval", "qrels.tsv", ["--budgets", "16"], "--budgets needs --corpus"),
        ("occlusion", "other.tsv", ["--q", "0.3"], "no query has a positively judged document"),
    ], ids=["eval_budgets_without_corpus", "occlusion_no_judged_query"])
    def test_refused_before_any_index_load(self, workdir, capsys, monkeypatch, command, qrels,
                                           extra, message):
        run("build", "--corpus", workdir / "corpus.jsonl", "--index", workdir / "base.qlx")
        write_qrels(workdir / "other.tsv", [("absent", "d0", 1)])
        capsys.readouterr()
        loads = []
        monkeypatch.setattr(cli, "load_index", lambda path: loads.append(path) or load_index(path))
        rc = run(command, "--index", workdir / "base.qlx", "--queries",
                 workdir / "queries.jsonl", "--qrels", workdir / qrels, *extra)
        captured = capsys.readouterr()
        assert rc == 1 and message in captured.err and captured.out == ""
        assert loads == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("qlex ")

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

"""Tests of the benchmark itself: it runs, its checks fire, its inputs repeat.

    python3 -m pytest perfbench -q

Every run here uses the smoke sizes, so the whole file takes well under a minute.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import calib  # noqa: E402
import gen  # noqa: E402


def _smoke(tmp_path: Path, workload: str = "eval_hapax", trace: bool = False,
           seed: int = 7) -> dict:
    return bench.run(workload, seed, seconds=0.2, trace=trace, smoke=True, work=tmp_path)


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run_passes_every_check_and_reports_every_metric(tmp_path, workload, trace):
    result = _smoke(tmp_path, workload, trace)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert {n: m["unit"] for n, m in result["reported"].items()} == bench.REPORTED_UNITS


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "a", smoke=True)
    gen.generate(workload, 5, tmp_path / "b", smoke=True)
    gen.generate(workload, 6, tmp_path / "c", smoke=True)
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    assert _digests(tmp_path / "a")["corpus.jsonl"] != _digests(tmp_path / "c")["corpus.jsonl"]


def test_reference_check_catches_a_wrong_tie_break(tmp_path, monkeypatch):
    real = bench.top_k

    def swapped(*args, **kwargs):
        ranked = real(*args, **kwargs)
        ranked.hits[-2], ranked.hits[-1] = ranked.hits[-1], ranked.hits[-2]
        return ranked

    monkeypatch.setattr(bench, "top_k", swapped)
    result = _smoke(tmp_path, "search_t0_50k")
    assert not result["correct"]
    assert any("dense reference" in p for p in result["problems"])


def test_finiteness_check_catches_an_overflowing_rescale(tmp_path, monkeypatch):
    real = bench.rescale_index

    def overflowing(index, q):
        real(index, q)
        index.scores[0] = float("inf")
        return index

    monkeypatch.setattr(bench, "rescale_index", overflowing)
    result = _smoke(tmp_path)
    assert any("non-finite" in p for p in result["problems"])


def test_round_trip_check_catches_a_lossy_load(tmp_path, monkeypatch):
    real = bench.load_index

    def lossy(path):
        index = real(path)
        index.scores[-1] += 1.0
        return index

    monkeypatch.setattr(bench, "load_index", lossy)
    result = _smoke(tmp_path)
    assert any("saved bytes" in p for p in result["problems"])


def test_failing_subcommand_counts_as_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(bench.cli, "df_bin_occlusion", broken)
    result = _smoke(tmp_path)
    assert any("qlex occlusion returned 1" in p for p in result["problems"])


def test_trec_run_must_repeat_across_runs_of_the_same_sources(tmp_path):
    assert _smoke(tmp_path)["correct"]
    ledger = tmp_path / "ledger.json"
    data = json.loads(ledger.read_text())
    data.update({k: "0" * 64 for k in data if k.startswith("trec/")})
    ledger.write_text(json.dumps(data))
    result = _smoke(tmp_path)
    assert any("earlier run of the same sources" in p for p in result["problems"])


def test_traced_ranking_must_equal_top_k(tmp_path, monkeypatch):
    real = bench.rank_from_scores

    def reversed_ties(index, scores, k, query_id=""):
        ranked = real(index, scores, k, query_id)
        ranked.hits.reverse()
        return ranked

    monkeypatch.setattr(bench, "rank_from_scores", reversed_ties)
    result = _smoke(tmp_path, "search_t0_50k", trace=True)
    assert any("differs from top_k" in p for p in result["problems"])


def test_command_prints_the_result_as_its_last_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "eval_hapax", "--seed", "3",
         "--seconds", "0.2", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "eval_hapax", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _FixedReference:
    """Stands in for ``calib.Reference``: each sample reads the next value."""

    nominal_s = 0.002

    def __init__(self, per_call: list[float]):
        self.per_call = list(per_call)

    def sample(self, seconds: float) -> float:
        return self.per_call.pop(0)


def test_speed_factor_brings_a_slow_interval_to_nominal_speed():
    nominal = _FixedReference.nominal_s
    speed = calib.SpeedLog(_FixedReference([2 * nominal, 2 * nominal, nominal / 2]), 0.1)
    speed.sample()
    # The machine ran at half speed on both sides of the interval.
    assert speed.factor() == pytest.approx(0.5)
    # Half speed before, double speed after: the mean per-call time is 1.25 x nominal.
    assert speed.factor() == pytest.approx(1 / 1.25)
    assert speed.speed() == pytest.approx(0.5)


def test_reported_wall_times_and_nominal_times_differ_by_the_machine_speed(tmp_path):
    result = _smoke(tmp_path, "search_t0_50k")
    speed = result["reported"]["machine_speed"]["value"]
    assert 0.2 < speed < 5
    wall = result["reported"]["query_wall_qps"]["value"]
    assert 0.2 < result["metrics"]["query_qps"]["value"] / wall < 5


def test_eval_hapax_query_noise_words_cover_the_zipf_head_on_every_seed(tmp_path):
    heads = []
    for seed in (1, 2, 3):
        gen.generate("eval_hapax", seed, tmp_path / str(seed), smoke=True)
        corpus = [json.loads(line)["text"].split()
                  for line in (tmp_path / str(seed) / "corpus.jsonl").read_text().splitlines()]
        df: dict[str, int] = {}
        for words in corpus:
            for w in set(words):
                df[w] = df.get(w, 0) + 1
        queries = [json.loads(line)["text"].split()[-1]
                   for line in (tmp_path / str(seed) / "queries.jsonl").read_text().splitlines()]
        heads.append(sum(df.get(w, 0) > len(corpus) // 2 for w in queries))
    # Stratified draws give the same number of head-word queries on every seed.
    assert max(heads) - min(heads) <= 1 and min(heads) > 0

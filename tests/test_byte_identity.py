"""Byte-identity ledger: the sha256 of every file that the CLI's valid
invocations write on the benchmark's seed-7 smoke inputs, against the digests
committed in ``byte_identity.sha256``.

The generated inputs are in the ledger too, so a changed generator shows as
changed ``in/`` files.  A change that means to alter an output rewrites the
ledger and names each changed digest and its reason:

    PYTHONPATH=src:tests python3 tests/test_byte_identity.py > tests/byte_identity.sha256
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from qlex import cli

from conftest import perfbench_gen

LEDGER = Path(__file__).with_name("byte_identity.sha256")
MODES = {"search_t0_50k": "t0", "search_t2_20k": "t2", "eval_hapax": "t0"}


def _invocations(workload: str, mode: str) -> dict[str, list[str]]:
    """Each valid invocation on one workload, by the name its streams are kept under."""
    at = f"{workload}/"
    corpus = at + "in/corpus.jsonl"
    judged = ["--queries", at + "in/eval_queries.jsonl", "--qrels", at + "in/qrels.tsv"]
    return {
        "build": ["build", "--corpus", corpus, "--index", at + "base.qlx", "--mode", mode],
        "build_dph": ["build", "--corpus", corpus, "--index", at + "dph.qlx", "--mode", mode,
                      "--dph"],
        "rescale": ["rescale", "--index", at + "base.qlx", "--q", "0.6", "--out", at + "q.qlx"],
        "search": ["search", "--index", at + "q.qlx", "--queries", at + "in/queries.jsonl",
                   "--out", at + "run.tsv"],
        "sweep": ["sweep", "--index", at + "base.qlx", *judged, "--out", at + "sweep.csv"],
        "occlusion": ["occlusion", "--index", at + "base.qlx", *judged, "--q", "0.3",
                      "--out", at + "occ.tsv"],
        "eval": ["eval", "--index", at + "q.qlx", *judged, "--format", "json",
                 "--compare-index", at + "base.qlx", "--budgets", "16,32,64,128",
                 "--corpus", corpus, "--out", at + "eval.json"],
        "predict_q_t0": ["predict-q", "--corpus", corpus, "--mode", "t0"],
        "predict_q_t2": ["predict-q", "--corpus", corpus, "--mode", "t2"],
    }


def outputs() -> dict[str, str]:
    """Generate the inputs under the working directory, run every invocation
    there, keep each one's stdout as ``<name>.out`` and its stderr, less the
    ``config:`` line that echoes the parsed arguments, as ``<name>.err``; return
    the sha256 of every file written, by relative path."""
    for workload, mode in MODES.items():
        perfbench_gen.generate(workload, 7, Path(workload, "in"), smoke=True)
        for name, argv in _invocations(workload, mode).items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert cli.main(argv) == 0, err.getvalue()
            err_lines = [line for line in err.getvalue().splitlines(keepends=True)
                         if not line.startswith("config: ")]
            for suffix, text in ((".out", out.getvalue()), (".err", "".join(err_lines))):
                if text:
                    Path(workload, name + suffix).write_text(text, encoding="utf-8")
    return {path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path().rglob("*")) if path.is_file()}


def test_every_output_matches_the_ledger(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = outputs()
    want = {name: digest for digest, name in
            (line.split() for line in LEDGER.read_text(encoding="utf-8").splitlines())}
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, f"files that differ from {LEDGER.name}: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        for name, digest in outputs().items():
            print(f"{digest}  {name}")

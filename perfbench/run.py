"""The qlex benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload search_t0_50k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload eval_hapax --seed 1 --seconds 1 --trace 1 --smoke

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
``--smoke`` uses tiny inputs with every check on and takes a few seconds.
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before NumPy loads: one client, one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_bench():
    """Import the benchmark against the checkout's own ``src/qlex``."""
    if not (SRC / "qlex" / "__init__.py").is_file():
        raise SystemExit(f"error: no qlex sources at {SRC}; run from a qlex checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qlex
    if Path(qlex.__file__).resolve().parent != SRC / "qlex":
        raise SystemExit(f"error: imported qlex from {qlex.__file__}, not from {SRC}")
    import bench
    return bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the query loop and of the eval phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check on")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bench = _import_bench()
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for problem in result.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:34} {m['value']:>16.6f} {m['unit']}")
    for name, m in result.pop("reported").items():
        print(f"{name:34} {m['value']:>16.6f} {m['unit']} (reported, not in BENCHMARK.json)")
    print(f"{'failed_ops_frac':34} {result['failed'] / result['attempted']:>16.6f} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for cuspcal: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload symbol_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (the benchmark imports cuspcal from
./src). With --trace 0 the result holds the end-to-end metrics; with
--trace 1 the per-layer metrics from wrapped calls, and the spans go to
perfbench/out/. A one-line summary goes to standard error. Exit code 0 on a
completed run (the result says whether the outputs were correct), 2 when
the source tree or an argument is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("symbol_sweep", "normal_sweep", "strip_discrete", "cli_configs")
# BLAS/OpenMP pools: one thread, set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cuspcal" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"no cuspcal source tree (src/cuspcal, configs/) under {ROOT}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    from perfbench import workloads  # numpy, scipy and every cuspcal module

    import_s = time.perf_counter() - t0
    result, summary = workloads.run(args.workload, args.seed, args.seconds,
                                    args.trace, import_s)
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

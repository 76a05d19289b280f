#!/usr/bin/env python3
"""Benchmark of voxid: speaker enrollment and identification.

Run from the repository root:

    python3 perfbench/run.py --workload identify --seed 0 --seconds 20 --trace 0

Workloads are ``enroll``, ``identify`` and ``wide_db`` (see BENCHMARK.json and
perfbench/README.md). With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# OpenBLAS reads its thread count when NumPy is first imported, so it is fixed
# here, before anything imports NumPy, and inherited by every child process.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("enroll", "identify", "wide_db")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "voxid" / "__init__.py").is_file():
        print(f"perfbench: no voxid package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import voxid

    if Path(voxid.__file__).resolve().parent != (src / "voxid").resolve():
        print(f"perfbench: imported voxid from {voxid.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import run_benchmark

    return run_benchmark(args, root, src)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

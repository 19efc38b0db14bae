"""Benchmark entry point.

    python3 perfbench/run.py --workload lm_pretrain --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports `ormllm` from `src/` there
and nowhere else. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it
describe the run. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # One process, one BLAS thread: fixed before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    try:
        import ormllm
    except ImportError as exc:
        print(f"perfbench: cannot import ormllm from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(ormllm.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: ormllm resolved to {ormllm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    from workloads import FULL_SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](FULL_SIZES[args.workload])

    def info(obj):
        print("# " + json.dumps(obj, sort_keys=True), flush=True)

    result = harness.main_result(workload, args.seed, args.seconds, bool(args.trace),
                                 str(WORK_ROOT), info)
    print(json.dumps(result), flush=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Benchmark the end-to-end experiment sweep and write BENCH_runtime.json.

Times the full sweep (all four schedulers on both cluster profiles)
twice — once through the pre-optimization legacy shim, once through the
current hot path — checks the two produce identical results, and writes
both wall-clock numbers plus the speedup to a JSON report.

``--cold`` instead benchmarks the cold path (fresh-process comparison
runs where the offline DNN/HMM fit dominates): no store vs cold store
vs warm store vs process-parallel fits vs warm-started refit, written
to BENCH_coldpath.json.

``--scale`` instead benchmarks the hyperscale placement engine: the
availability matrix over ``--scale-vms`` machines driven by a
streamed trace at each ``--scale-jobs`` count, written (jobs/sec curve
plus tracemalloc peaks) to BENCH_scale.json.  The last point must stay
within 2x of the first point's jobs/sec.

Usage::

    python benchmarks/bench_runtime.py            # full sweep
    python benchmarks/bench_runtime.py --quick    # CI smoke (2 counts)
    python benchmarks/bench_runtime.py --workers 4
    python benchmarks/bench_runtime.py --out /tmp/bench.json --no-assert
    python benchmarks/bench_runtime.py --cold     # predictor-store bench
    python benchmarks/bench_runtime.py --scale    # 10k VMs, 100k+1M jobs
    python benchmarks/bench_runtime.py --scale \\
        --scale-vms 200 --scale-jobs 2000 5000    # CI smoke
    python benchmarks/bench_runtime.py --quick \\
        --regression-against benchmarks/BENCH_reference_quick.json

Exits non-zero if the optimized sweep's summaries deviate from the
baseline's, (unless ``--no-assert``) a speedup floor is missed, or the
machine-normalized ``--regression-against`` gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.experiments.bench import (  # noqa: E402
    SCALE_COUNTS,
    check_regression,
    write_benchmark,
    write_cold_benchmark,
    write_scale_benchmark,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="abbreviated sweep (job counts 50 and 150) for CI smoke runs",
    )
    parser.add_argument(
        "--cold", action="store_true",
        help="benchmark the cold path instead: predictor store "
             "(cold/warm), process-parallel fits, warm-started refits; "
             "writes BENCH_coldpath.json",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="benchmark the hyperscale placement engine instead: "
             "availability matrix + streamed trace, jobs/sec per job "
             "count; writes BENCH_scale.json",
    )
    parser.add_argument(
        "--scale-vms", type=int, default=10_000, metavar="N",
        help="VM-pool size for --scale (default: 10000)",
    )
    parser.add_argument(
        "--scale-jobs", type=int, nargs="+", default=None, metavar="N",
        help="job counts of the --scale curve "
             f"(default: {' '.join(str(c) for c in SCALE_COUNTS)})",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=4096, metavar="N",
        help="streaming-trace chunk size for --scale (default: 4096)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for the optimized sweep (0 = serial)",
    )
    parser.add_argument(
        "--jobs", type=int, default=30,
        help="job count of the --cold comparison scenario (default: 30, "
             "the compare --quick setting)",
    )
    parser.add_argument(
        "--out", default=None,
        help="report path (default: BENCH_runtime.json, or "
             "BENCH_coldpath.json with --cold, at the repo root)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail below this baseline/optimized ratio "
             "(default: 3.0 full sweep, 2.0 quick smoke)",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="record the numbers without enforcing the speedup floors",
    )
    parser.add_argument(
        "--regression-against", metavar="PATH", default=None,
        help="after the run, fail if the optimized time regressed more "
             "than 25%% against this committed report "
             "(machine-normalized via the live legacy baseline)",
    )
    args = parser.parse_args(argv)
    if args.cold and args.scale:
        print("error: --cold and --scale are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.out is None:
        if args.scale:
            name = "BENCH_scale.json"
        elif args.cold:
            name = "BENCH_coldpath.json"
        else:
            name = "BENCH_runtime.json"
        args.out = os.path.join(REPO_ROOT, name)
    try:
        if args.scale:
            report = write_scale_benchmark(
                args.out,
                n_vms=args.scale_vms,
                chunk_size=args.chunk_size,
                job_counts=tuple(args.scale_jobs or SCALE_COUNTS),
                seed=args.seed,
                assert_floors=not args.no_assert,
            )
        elif args.cold:
            report = write_cold_benchmark(
                args.out,
                jobs=args.jobs,
                seed=args.seed,
                assert_floors=not args.no_assert,
            )
        else:
            report = write_benchmark(
                args.out,
                quick=args.quick,
                workers=args.workers,
                seed=args.seed,
                min_speedup=(
                    float("-inf") if args.no_assert else args.min_speedup
                ),
            )
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    if args.regression_against:
        if args.cold or args.scale:
            print(
                "error: --regression-against applies to the sweep bench, "
                "not --cold/--scale",
                file=sys.stderr,
            )
            return 2
        with open(args.regression_against) as fh:
            reference = json.load(fh)
        try:
            verdict = check_regression(report, reference)
        except AssertionError as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"regression gate OK: {verdict['measured_s']:.3f}s within the "
            f"normalized budget {verdict['allowed_s']:.3f}s "
            f"(machine scale {verdict['machine_scale']:.3f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer ledger of a traced run, both as named in ``BENCHMARK.json``.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``#`` lines before it give detail.  The exit code is 0 only when every
correctness check passed.

This orchestrator imports nothing from the package under test.  It
byte-compiles ``src/`` (untimed), then runs fresh worker processes one
after another, with BLAS/OpenMP pinned to one thread:

* ``churn`` first gets an untimed warm predictor store in a temporary
  directory under ``.perfbench/``, removed when the run ends;
* ``--trace 0`` runs ``PROCESSES`` workers, each setting up afresh and
  measuring ``--seconds / PROCESSES``; ``setup_s`` is their median, the
  first one's RSS is ``peak_rss_mb``, and the last one adds the episode
  under the invariant checker.  Every kernel event keeps its fastest
  repeat over all processes;
* ``--trace 1`` runs one traced worker for ``--seconds``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady", "churn")
PROCESSES = 3
#: Per-process wall-clock limit (seconds) on top of the measured time.
PROCESS_SLACK_S = 120.0


def _args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (the benchmark's own tests)")
    return p.parse_args(argv)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _spawn(args, mode: str, seconds: float, extra: list[str]) -> dict:
    """Run one worker process to completion and parse its last stdout line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        *(["--smoke"] if args.smoke else []),
        *extra,
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        timeout=seconds + PROCESS_SLACK_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with 10 values beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} ticks: a tail needs at least 11")
    return ordered[n - 11], 100.0 * (n - 10) / n


def fastest_events(runs: list[dict]) -> dict:
    """Per method and kernel event, the fastest repeat over all processes.

    Kernel event ``i`` of a method is the same work in every repeat, so
    each event keeps its fastest host time and its smallest growth of
    the measured allocation-latency compute, the ``timeit`` convention.
    The host time a method spends outside ``advance()`` (the daemon's
    streaming, the drain) keeps its fastest repeat too, so the
    best-of-repeats run still counts all work from the first kernel
    event to the drain.  On a shared host other tenants only ever add
    time, and repeats spread over the whole run are the likeliest to
    include an undisturbed one.
    """
    best: dict[str, dict] = {}
    for run in runs:
        for ep in run["episodes"]:
            for method, m in ep.items():
                mine = best.get(method)
                if mine is None:
                    best[method] = dict(m)
                    continue
                for key in ("event_s", "compute_s"):
                    mine[key] = list(map(min, mine[key], m[key]))
                mine["outside_s"] = min(mine["outside_s"], m["outside_s"])
    return best


def end_to_end(runs: list[dict]) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics from the worker processes of one untraced run.

    Simulated metrics come from the first process's first episode; every
    other process must reproduce them exactly.
    """
    first = runs[0]
    problems = [
        f"process {i + 1}: simulated results differ from process 1"
        for i, run in enumerate(runs[1:], start=1)
        if run["sim"] != first["sim"]
    ]
    best = fastest_events(runs)
    ticks = [
        t for method, ev in best.items()
        for t, is_tick in zip(ev["event_s"], first["is_tick"][method]) if is_tick
    ]
    host_s = sum(sum(ev["event_s"]) + ev["outside_s"] for ev in best.values())
    tail_s, tail_pct = tail(ticks)
    alloc_s = sum(best["CORP"]["compute_s"]) + first["comm_s"]["CORP"]
    corp = first["sim"]["CORP"]
    error_rate = corp.get("prediction_error_rate")
    if error_rate is None:
        problems.append("CORP made no scored predictions")
        error_rate = float("nan")
    completion = first["n_completed"] / first["n_submitted"]
    metrics = {
        "jobs_per_s": first["n_completed"] / host_s,
        "slot_p50_ms": 1000.0 * statistics.median(ticks),
        "slot_tail_ms": 1000.0 * tail_s,
        "alloc_ms_per_job": 1000.0 * alloc_s / first["corp_submitted"],
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": first["peak_rss_mb"],
        "utilization": corp["overall_utilization"],
        "slo_attainment": 1.0 - corp["slo_violation_rate"],
        "prediction_accuracy": 1.0 - error_rate,
        "job_completion_rate": completion,
    }
    detail = {
        "slot_tail_percentile": tail_pct,
        "ticks": len(ticks),
        "repeats": sum(len(r["episodes"]) for r in runs),
        "setup_samples_s": [r["setup_s"] for r in runs],
        "slo_violation_rate": corp["slo_violation_rate"],
        "prediction_error_rate": error_rate,
        "job_failure_rate": 1.0 - completion,
    }
    return metrics, detail, problems


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"BENCHMARK.json or the package source is missing under {ROOT}: "
              "run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    store = work / f"store-{os.getpid()}"
    try:
        extra: list[str] = []
        if args.workload == "churn":
            _spawn(args, "warm-store", 0.0, ["--store", str(store)])
            extra = ["--store", str(store)]
        if args.trace:
            spans = work / f"spans-{args.workload}.jsonl"
            run = _spawn(args, "run", args.seconds, extra + ["--spans", str(spans)])
            runs = [run]
            metrics, detail, problems = run["metrics"], run["detail"], []
        else:
            share = args.seconds / PROCESSES
            runs = [
                _spawn(args, "run", share,
                       extra + (["--check"] if i == PROCESSES - 1 else []))
                for i in range(PROCESSES)
            ]
            metrics, detail, problems = end_to_end(runs)
    finally:
        shutil.rmtree(store, ignore_errors=True)

    names = spec["per_layer" if args.trace else "end_to_end"]
    for run in runs:
        problems += run["problems"]
    missing = sorted(m["name"] for m in names if m["name"] not in metrics)
    if missing:
        problems.append(f"metrics not produced: {missing}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    for key, value in sorted(detail.items()):
        print(f"# {key}: {value}")
    first = runs[0]
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(first["n_submitted"]),
        "failed": int(first["n_submitted"] - first["n_completed"]),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in names if m["name"] in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

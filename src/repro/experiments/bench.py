"""End-to-end sweep benchmark: baseline vs optimized hot path.

Measures the full experiment sweep (all four schedulers on both testbed
profiles) twice on the current machine:

* **baseline** — the pre-optimization behaviour, reproduced live with
  the reference implementations from
  :mod:`repro.cluster._legacy` (per-placement ``execute_slot``, uncached
  ``max_vm_capacity``) and a fresh :class:`PredictorCache` per sweep
  point (the old object-identity cache key meant every point refitted
  CORP's DNN/HMM stack);
* **optimized** — the current code: vectorized slot execution, memoized
  capacity, one shared content-keyed predictor fit, and optionally the
  process-parallel runner (``workers >= 2``).

Both numbers land in ``BENCH_runtime.json`` so the speedup claim is
always re-derivable on the machine that made it.  A correctness gate
compares the two sweeps' summaries before any timing is trusted.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import tempfile
import time
import tracemalloc
from collections import deque
from contextlib import contextmanager
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..cluster import _legacy
from ..cluster.job import Job
from ..cluster.machine import VirtualMachine
from ..cluster.profiles import ClusterProfile
from ..cluster.resources import ResourceVector
from ..cluster.simulator import ClusterSimulator
from ..core.config import CorpConfig
from ..core.predictor_store import PredictorStore
from ..core.vm_selection import CandidateSet
from ..forecast.padding import AdaptivePadding
from ..trace.generator import GoogleTraceGenerator, TraceConfig
from .runner import PredictorCache, run_methods, run_specs, sweep_specs
from .scenarios import JOB_COUNTS, Scenario, cluster_scenario, ec2_scenario

__all__ = [
    "QUICK_COUNTS",
    "SCALE_COUNTS",
    "PRE_PR_REFERENCE",
    "legacy_mode",
    "sweep_scenarios",
    "run_benchmark",
    "write_benchmark",
    "run_cold_benchmark",
    "write_cold_benchmark",
    "run_scale_benchmark",
    "write_scale_benchmark",
    "check_regression",
]

#: Job counts of the abbreviated (CI smoke) sweep.
QUICK_COUNTS: tuple[int, ...] = (50, 150)

#: Wall-clock seconds of the same sweeps measured on the unmodified
#: code (the commit this optimization started from), for provenance.
#: The live baseline below is the number the speedup is computed from;
#: this record just documents what the original code did on the
#: development machine.
PRE_PR_REFERENCE: Mapping[str, object] = {
    "quick_s": 13.43,
    "full_s": 46.99,
    "machine": "x86_64, 1 core",
    "note": (
        "measured on the pre-optimization code; the 'baseline' entry is "
        "re-measured live via the legacy shim on the current machine"
    ),
}


#: (class, attribute, pre-optimization implementation) triples the
#: legacy shim swaps in.  Together these restore the original hot path:
#: per-placement slot execution, uncached capacity aggregation, fresh
#: vectors on every ``demand``/``committed``/``unallocated`` call,
#: numpy reductions for the per-call predicates, and numpy percentiles
#: in the padding trackers.
_LEGACY_PATCHES: tuple[tuple[type, str, object], ...] = (
    (VirtualMachine, "execute_slot", _legacy.legacy_execute_slot),
    (VirtualMachine, "committed", _legacy.legacy_committed),
    (VirtualMachine, "unallocated", _legacy.legacy_unallocated),
    (
        ClusterSimulator,
        "max_vm_capacity",
        lambda self: _legacy.legacy_max_vm_capacity(self.vms),
    ),
    (ResourceVector, "fits_within", _legacy.legacy_fits_within),
    (ResourceVector, "is_nonnegative", _legacy.legacy_is_nonnegative),
    (ResourceVector, "any_positive", _legacy.legacy_any_positive),
    (Job, "demand", _legacy.legacy_job_demand),
    (AdaptivePadding, "burst_pad", _legacy.legacy_burst_pad),
    (AdaptivePadding, "error_pad", _legacy.legacy_error_pad),
)


@contextmanager
def legacy_mode():
    """Temporarily restore the pre-optimization cluster hot path.

    Swaps in the verbatim pre-optimization method bodies from
    :mod:`repro.cluster._legacy` so the baseline can be *measured* on
    the current machine rather than quoted from a stale record.
    """
    originals = [
        (cls, name, cls.__dict__[name]) for cls, name, _ in _LEGACY_PATCHES
    ]
    for cls, name, impl in _LEGACY_PATCHES:
        setattr(cls, name, impl)
    try:
        yield
    finally:
        for cls, name, impl in originals:
            setattr(cls, name, impl)


def sweep_scenarios(counts: Iterable[int], seed: int = 7) -> list[Scenario]:
    """Both testbed profiles crossed with the requested job counts."""
    return [
        builder(n, seed=seed)
        for builder in (cluster_scenario, ec2_scenario)
        for n in counts
    ]


def _summaries(results) -> list[dict[str, float]]:
    out = []
    for r in results:
        s = r.summary()
        s.pop("allocation_latency_s")  # wall-clock; never comparable
        out.append(s)
    return out


def _run_baseline(counts: Sequence[int], seed: int) -> tuple[float, list[dict]]:
    """Pre-PR sweep: legacy hot path, one predictor refit per point."""
    summaries: list[dict[str, float]] = []
    with legacy_mode():
        t0 = time.perf_counter()
        for scenario in sweep_scenarios(counts, seed=seed):
            results = run_methods(
                scenario=scenario, predictor_cache=PredictorCache(), seed=seed
            )
            summaries.extend(_summaries(results.values()))
        elapsed = time.perf_counter() - t0
    return elapsed, summaries


def _run_optimized(
    counts: Sequence[int], seed: int, workers: int
) -> tuple[float, list[dict]]:
    """Current sweep: vectorized path, shared fit, optional workers."""
    specs = sweep_specs(scenarios=sweep_scenarios(counts, seed=seed), seed=seed)
    t0 = time.perf_counter()
    results = run_specs(
        specs=specs, workers=workers, predictor_cache=PredictorCache()
    )
    elapsed = time.perf_counter() - t0
    return elapsed, _summaries(results)


def _check_identity(
    baseline: list[dict], optimized: list[dict], rtol: float = 1e-9
) -> None:
    """The optimized sweep must reproduce the baseline's numbers."""
    if len(baseline) != len(optimized):
        raise AssertionError(
            f"sweep sizes differ: {len(baseline)} vs {len(optimized)}"
        )
    for i, (b, o) in enumerate(zip(baseline, optimized)):
        if set(b) != set(o):
            raise AssertionError(f"run {i}: summary keys differ: {b} vs {o}")
        for key, bv in b.items():
            ov = o[key]
            if not math.isclose(bv, ov, rel_tol=rtol, abs_tol=1e-12):
                raise AssertionError(
                    f"run {i}: {key} diverged: baseline {bv!r} vs "
                    f"optimized {ov!r}"
                )


#: Required baseline/optimized ratios.  The full sweep must be at least
#: 3x faster.  The quick sweep amortizes the single remaining offline
#: fit over only four points (the baseline refits four times, the
#: optimized path once and that one fit is most of its runtime), so its
#: achievable ratio is structurally lower — it gets a 2x smoke floor.
MIN_SPEEDUP_FULL: float = 3.0
MIN_SPEEDUP_QUICK: float = 2.0


def run_benchmark(
    *,
    quick: bool = False,
    workers: int = 0,
    seed: int = 7,
    min_speedup: float | None = None,
) -> dict:
    """Time baseline and optimized sweeps; return the report dict.

    Raises :class:`AssertionError` if the optimized sweep's summaries
    deviate from the baseline's, or if the speedup falls below
    ``min_speedup`` (default: 3x for the full sweep, 2x for the quick
    smoke; pass ``float("-inf")`` to disable the floor entirely).
    """
    if min_speedup is None:
        min_speedup = MIN_SPEEDUP_QUICK if quick else MIN_SPEEDUP_FULL
    counts = QUICK_COUNTS if quick else JOB_COUNTS
    baseline_s, baseline_summaries = _run_baseline(counts, seed)
    optimized_s, optimized_summaries = _run_optimized(counts, seed, workers)
    _check_identity(baseline_summaries, optimized_summaries)
    speedup = baseline_s / optimized_s
    report = {
        "benchmark": "experiment sweep: 4 schedulers x 2 profiles",
        "mode": "quick" if quick else "full",
        "job_counts": list(counts),
        "seed": seed,
        "n_runs": len(baseline_summaries),
        "baseline": {
            "seconds": round(baseline_s, 3),
            "how": (
                "measured live with the legacy shim: per-placement "
                "execute_slot, uncached max_vm_capacity, fresh predictor "
                "cache per sweep point (one DNN/HMM refit each)"
            ),
        },
        "optimized": {
            "seconds": round(optimized_s, 3),
            "workers": workers,
            "how": (
                "vectorized execute_slot, memoized max_vm_capacity, one "
                "content-keyed predictor fit shared across the sweep"
                + (", process-parallel runner" if workers >= 2 else "")
            ),
        },
        "speedup": round(speedup, 2),
        "min_speedup": min_speedup,
        "identity_check": "passed",
        "machine": platform.machine(),
        "pre_pr_reference": dict(PRE_PR_REFERENCE),
    }
    if speedup < min_speedup:
        error = AssertionError(
            f"speedup {speedup:.2f}x below the required "
            f"{min_speedup:.1f}x (report: {json.dumps(report, indent=2)})"
        )
        error.report = report
        raise error
    return report


#: Required cold-path ratios.  The offline DNN/HMM fit is ~80% of a
#: fresh-process comparison run, so loading it from the store instead of
#: fitting must at least halve the wall clock.  The parallel floor only
#: binds on multi-core machines — on one core the process fan-out is
#: pure overhead and the ratio is recorded informationally.
MIN_WARM_STORE_SPEEDUP: float = 2.0
MIN_PARALLEL_FIT_SPEEDUP: float = 1.3


def _run_cold_variant(
    scenario: Scenario, cache: PredictorCache, seed: int
) -> tuple[float, list[dict]]:
    """One fresh-process-equivalent comparison run (empty memory cache)."""
    t0 = time.perf_counter()
    results = run_methods(scenario=scenario, predictor_cache=cache, seed=seed)
    return time.perf_counter() - t0, _summaries(results.values())


def run_cold_benchmark(
    *,
    jobs: int = 30,
    testbed: str = "cluster",
    seed: int = 7,
    store_dir: str | None = None,
    assert_floors: bool = True,
) -> dict:
    """Benchmark the cold path: predictor store and parallel fits.

    Every variant runs the full four-scheduler comparison with a *fresh*
    in-memory :class:`PredictorCache` — the in-process equivalent of a
    fresh ``repro compare`` invocation, where the offline DNN/HMM fit
    dominates the wall clock:

    * ``no_store`` — the status-quo cold run (fit from scratch);
    * ``cold_store`` — first-ever run against an empty store (fit plus
      artifact save: the write overhead must be negligible);
    * ``warm_store`` — second fresh process, same store (the fit is
      replaced by a disk load; this is the headline speedup);
    * ``parallel_fit`` — fit from scratch with the per-resource fits
      fanned across one worker process per CPU;
    * ``warm_start_refit`` — the store holds a same-config artifact fit
      on a *different* history window, and the refit starts from its
      weights (informational: warm-started weights legitimately differ,
      so this variant is exempt from the identity check).

    All variants except ``warm_start_refit`` must reproduce the
    ``no_store`` summaries exactly.  With ``assert_floors``, the
    warm-store speedup must reach :data:`MIN_WARM_STORE_SPEEDUP` and —
    on machines with at least two CPUs — the parallel-fit speedup must
    reach :data:`MIN_PARALLEL_FIT_SPEEDUP`.
    """
    builders = {"cluster": cluster_scenario, "ec2": ec2_scenario}
    scenario = builders[testbed](jobs, seed=seed)
    # Same config, different history content: the warm-start donor.
    donor_scenario = builders[testbed](max(10, jobs // 2), seed=seed)

    owns_dir = store_dir is None
    root = tempfile.mkdtemp(prefix="repro-coldbench-") if owns_dir else store_dir
    main_dir = os.path.join(root, "main")
    warm_dir = os.path.join(root, "warm-donor")
    cpus = os.cpu_count() or 1
    try:
        no_store_s, reference = _run_cold_variant(
            scenario, PredictorCache(), seed
        )
        cold_store_s, cold_summaries = _run_cold_variant(
            scenario, PredictorCache(store=PredictorStore(main_dir)), seed
        )
        warm_store_s, warm_summaries = _run_cold_variant(
            scenario, PredictorCache(store=PredictorStore(main_dir)), seed
        )
        parallel_s, parallel_summaries = _run_cold_variant(
            scenario, PredictorCache(fit_workers=cpus), seed
        )
        # Seed the donor store with a fit on the shorter history, then
        # time a warm-started refit on the benchmark scenario.
        donor_store = PredictorStore(warm_dir)
        PredictorCache(store=donor_store).get(
            CorpConfig(seed=seed), donor_scenario.history_trace()
        )
        warm_start_s, _ = _run_cold_variant(
            scenario,
            PredictorCache(store=PredictorStore(warm_dir), warm_start=True),
            seed,
        )
    finally:
        if owns_dir:
            shutil.rmtree(root, ignore_errors=True)

    _check_identity(reference, cold_summaries)
    _check_identity(reference, warm_summaries)
    _check_identity(reference, parallel_summaries)

    speedups = {
        "cold_store": round(no_store_s / cold_store_s, 2),
        "warm_store": round(no_store_s / warm_store_s, 2),
        "parallel_fit": round(no_store_s / parallel_s, 2),
        "warm_start_refit": round(no_store_s / warm_start_s, 2),
    }
    parallel_floor_applies = cpus >= 2
    report = {
        "benchmark": "cold path: fresh-process comparison, offline fit dominant",
        "mode": "cold",
        "jobs": jobs,
        "testbed": testbed,
        "seed": seed,
        "cpu_count": cpus,
        "variants": {
            "no_store": {
                "seconds": round(no_store_s, 3),
                "how": "status quo: DNN/HMM fit from scratch, no store",
            },
            "cold_store": {
                "seconds": round(cold_store_s, 3),
                "how": "first-ever run: fit from scratch + artifact save",
            },
            "warm_store": {
                "seconds": round(warm_store_s, 3),
                "how": "second fresh process: fit replaced by a store load",
            },
            "parallel_fit": {
                "seconds": round(parallel_s, 3),
                "workers": cpus,
                "how": "fit from scratch, per-resource fits fanned across "
                       "worker processes (bit-identical to serial)",
            },
            "warm_start_refit": {
                "seconds": round(warm_start_s, 3),
                "how": "refit seeded from a same-config artifact fit on a "
                       "different history window (early stop trims epochs; "
                       "weights differ, identity check exempt)",
            },
        },
        "speedups": speedups,
        "floors": {
            "warm_store": MIN_WARM_STORE_SPEEDUP,
            "parallel_fit": (
                MIN_PARALLEL_FIT_SPEEDUP if parallel_floor_applies
                else f"informational on {cpus} CPU(s)"
            ),
        },
        "identity_check": "passed (warm_start_refit exempt)",
        "machine": platform.machine(),
    }
    if assert_floors:
        failures = []
        if speedups["warm_store"] < MIN_WARM_STORE_SPEEDUP:
            failures.append(
                f"warm_store speedup {speedups['warm_store']:.2f}x below "
                f"{MIN_WARM_STORE_SPEEDUP:.1f}x"
            )
        if (
            parallel_floor_applies
            and speedups["parallel_fit"] < MIN_PARALLEL_FIT_SPEEDUP
        ):
            failures.append(
                f"parallel_fit speedup {speedups['parallel_fit']:.2f}x below "
                f"{MIN_PARALLEL_FIT_SPEEDUP:.1f}x on {cpus} CPUs"
            )
        if failures:
            error = AssertionError(
                "; ".join(failures)
                + f" (report: {json.dumps(report, indent=2)})"
            )
            error.report = report
            raise error
    return report


def write_cold_benchmark(path: str, **kwargs) -> dict:
    """Run the cold-path benchmark and write the JSON report to ``path``.

    Like :func:`write_benchmark`, the report is written even when a
    speedup floor fails.
    """
    try:
        report = run_cold_benchmark(**kwargs)
    except AssertionError as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            _dump(path, report)
        raise
    _dump(path, report)
    return report


#: Job counts of the hyperscale throughput curve (``--scale``).
SCALE_COUNTS: tuple[int, ...] = (100_000, 1_000_000)

#: The 1M-job point's jobs/sec must stay within 2x of the 100k point's
#: (``ratio >= 0.5``): per-job placement cost must not grow with the
#: total job count, i.e. the availability index and streaming generation
#: are O(1) in trace length.
MIN_SCALE_LINEARITY: float = 0.5


def _scale_vms(n_vms: int) -> list[VirtualMachine]:
    """First ``n_vms`` machines of a hyperscale-profile datacenter."""
    profile = ClusterProfile.hyperscale(n_pms=-(-n_vms // 8))
    _, vms = profile.build()
    return vms[:n_vms]


def run_scale_benchmark(
    *,
    n_vms: int = 10_000,
    chunk_size: int = 4096,
    job_counts: Sequence[int] = SCALE_COUNTS,
    seed: int = 7,
    track_memory: bool = True,
    assert_floors: bool = True,
) -> dict:
    """Placement-engine throughput at hyperscale: jobs/sec vs job count.

    Drives the availability matrix directly — a hyperscale VM pool, one
    :class:`CandidateSet` over its capacity matrix, and a stream of trace demands from
    :meth:`GoogleTraceGenerator.generate_chunks` — so the number
    isolates the Eq. 22 selection + consume/release cycle (the per-slot
    hot path at 10k VMs) from the full simulator's per-slot bookkeeping.
    Each record is placed on its most-matched VM and consumed; once more
    than ``2 * n_vms`` placements are in flight the oldest is released
    (its row grows back by the amount, capped at the VM's capacity),
    modelling short-lived jobs completing at the arrival rate.

    The trace is never materialized: chunks of ``chunk_size`` records
    are generated, placed and dropped, so a 1M-job point holds only one
    chunk plus the index in memory.  With ``track_memory`` the point
    records its ``tracemalloc`` peak as evidence (CI asserts a ceiling
    on it; the tracing overhead inflates wall-clock equally across
    points, so the linearity ratio is unaffected).

    With ``assert_floors`` (and at least two job counts) the last
    point's jobs/sec must be at least ``MIN_SCALE_LINEARITY`` of the
    first's.  The raised :class:`AssertionError` carries ``.report``.
    """
    vms = _scale_vms(n_vms)
    capacity = np.array([vm.capacity.as_array() for vm in vms])
    reference = ResourceVector(capacity.max(axis=0))
    rows = {vm.vm_id: i for i, vm in enumerate(vms)}
    points: list[dict] = []
    for count in job_counts:
        cset = CandidateSet(vms, capacity)
        matrix = cset.matrix
        generator = GoogleTraceGenerator(
            TraceConfig(n_jobs=int(count), seed=seed)
        )
        inflight: deque[tuple[int, np.ndarray]] = deque()
        placed = rejected = 0
        peak_mem_mb = None
        if track_memory:
            tracemalloc.start()
        t0 = time.perf_counter()
        for chunk in generator.generate_chunks(chunk_size):
            for record in chunk:
                demand = record.requested
                vm = cset.select_most_matched(demand, reference)
                if vm is None:
                    rejected += 1
                    continue
                amount = demand.as_array()
                cset.consume(vm, amount)
                inflight.append((rows[vm.vm_id], amount))
                placed += 1
                if len(inflight) > 2 * n_vms:
                    row, old_amount = inflight.popleft()
                    np.minimum(
                        matrix[row] + old_amount, capacity[row], out=matrix[row]
                    )
        elapsed = time.perf_counter() - t0
        if track_memory:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peak_mem_mb = round(peak / 1e6, 2)
        points.append(
            {
                "jobs": int(count),
                "elapsed_s": round(elapsed, 3),
                "jobs_per_sec": round(count / elapsed, 1),
                "placed": placed,
                "rejected": rejected,
                "peak_mem_mb": peak_mem_mb,
            }
        )
    report = {
        "benchmark": "scale",
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "python": platform.python_version(),
        "n_vms": n_vms,
        "chunk_size": chunk_size,
        "seed": seed,
        "track_memory": track_memory,
        "points": points,
    }
    if len(points) >= 2:
        ratio = points[-1]["jobs_per_sec"] / points[0]["jobs_per_sec"]
        report["linearity"] = {
            "ratio": round(ratio, 3),
            "floor": MIN_SCALE_LINEARITY,
            "ok": ratio >= MIN_SCALE_LINEARITY,
        }
        if assert_floors and not report["linearity"]["ok"]:
            error = AssertionError(
                f"throughput at {points[-1]['jobs']} jobs is "
                f"{ratio:.2f}x of the {points[0]['jobs']}-job point "
                f"(floor {MIN_SCALE_LINEARITY:.2f}x)"
            )
            error.report = report
            raise error
    return report


def write_scale_benchmark(path: str, **kwargs) -> dict:
    """Run the hyperscale benchmark and write the JSON report to ``path``.

    Like :func:`write_benchmark`, the report is written even when the
    linearity floor fails.
    """
    try:
        report = run_scale_benchmark(**kwargs)
    except AssertionError as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            _dump(path, report)
        raise
    _dump(path, report)
    return report


#: Maximum tolerated slowdown of the optimized sweep against the
#: committed reference, after machine-speed normalization.
MAX_REGRESSION: float = 0.25


def check_regression(
    report: Mapping, reference: Mapping, *, max_regression: float = MAX_REGRESSION
) -> dict:
    """CI regression gate: compare a fresh report to a committed one.

    Raw seconds are not comparable across machines, but both reports
    carry a live-measured legacy *baseline* of the same workload — its
    ratio is the machine-speed factor.  The fresh optimized time must
    stay within ``max_regression`` of the reference optimized time
    scaled by that factor.

    Returns the verdict dict; raises :class:`AssertionError` on a
    regression beyond the tolerance.
    """
    if report.get("mode") != reference.get("mode"):
        raise ValueError(
            f"mode mismatch: report {report.get('mode')!r} vs reference "
            f"{reference.get('mode')!r} — re-record the reference with the "
            f"same bench mode"
        )
    scale = report["baseline"]["seconds"] / reference["baseline"]["seconds"]
    allowed = reference["optimized"]["seconds"] * scale * (1.0 + max_regression)
    measured = report["optimized"]["seconds"]
    verdict = {
        "reference_optimized_s": reference["optimized"]["seconds"],
        "machine_scale": round(scale, 3),
        "allowed_s": round(allowed, 3),
        "measured_s": measured,
        "max_regression": max_regression,
        "ok": measured <= allowed,
    }
    if not verdict["ok"]:
        raise AssertionError(
            f"optimized sweep regressed: {measured:.3f}s exceeds the "
            f"normalized budget {allowed:.3f}s (reference "
            f"{reference['optimized']['seconds']:.3f}s x machine scale "
            f"{scale:.3f} x {1.0 + max_regression:.2f})"
        )
    return verdict


def write_benchmark(path: str, **kwargs) -> dict:
    """Run the benchmark and write the JSON report to ``path``.

    The report is written even when the speedup floor fails (the
    numbers are the evidence either way) before the error propagates.
    """
    try:
        report = run_benchmark(**kwargs)
    except AssertionError as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            _dump(path, report)
        raise
    _dump(path, report)
    return report


def _dump(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

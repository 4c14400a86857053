"""One benchmark process: set up one workload, then measure it.

Started by ``run.py`` in a fresh interpreter, so that set-up time and
peak RSS belong to this process alone.  Modes:

``run``
    Set up, then repeat the workload's episode (identical deterministic
    work) as often as fills ``--seconds`` on an undisturbed host, at
    least ``MIN_REPEATS`` times.  The count depends only on the
    arguments: a time-driven count would give a slowed run fewer repeats
    to take its fastest from, widening the spread it should damp.
    Reports each measured episode's per-event host times, the first
    episode's simulated numbers, and every failed check.  ``--check`` adds one untimed episode under the runtime
    invariant checker.  With ``--trace 1`` the layers are traced
    instead: traced and untraced episodes alternate over the same inputs
    and the per-layer ledger is reported.
``warm-store``
    Fit the shared training history into a predictor store (untimed
    preparation for ``churn``).

The process prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

#: Each process measures at least this many repeats.
MIN_REPEATS = 2


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("run", "warm-store"), default="run")
    p.add_argument("--workload", default="steady")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before this process started")
    p.add_argument("--check", action="store_true")
    p.add_argument("--store", default="")
    p.add_argument("--spans", default="")
    p.add_argument("--smoke", action="store_true")
    return p.parse_args()


def _since_spawn(spawned_at: float, perf_t: float) -> float:
    """Seconds from process spawn to a ``perf_counter`` instant."""
    return perf_t + time.monotonic() - time.perf_counter() - spawned_at


def record(episode) -> dict:
    """One measured episode's raw host timings, per method."""
    return {
        method: {
            "event_s": list(run.event_s),
            "compute_s": list(run.compute_s),
            "outside_s": run.host_s - sum(run.event_s),
        }
        for method, run in episode.runs.items()
    }


def main() -> int:
    args = _args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    t_import = time.perf_counter()
    import repro.api  # noqa: F401  (the public facade, as a user imports it)

    import checks
    import workloads
    from repro.check import CHECK, InvariantChecker

    tracer = None
    if args.trace:
        import layers

        tracer = layers.build_tracer()
    t_imported = time.perf_counter()

    if args.mode == "warm-store":
        workloads.warm_store(args.store)
        print(json.dumps({"ok": True}))
        return 0

    if tracer is not None:
        tracer.add_span("setup.import", t_import, t_imported)
        tracer.install()
    wl = workloads.make(
        args.workload, args.seed, store_dir=args.store, smoke=args.smoke
    )
    n_inputs = len(wl.trace)
    if tracer is not None:
        return _traced(args, wl, tracer, t_imported - t_import, n_inputs)

    first = wl.episode()
    setup_s = _since_spawn(args.spawned_at, first.first_event_at)
    problems = checks.check_accounting(first, n_inputs)
    # The workload's own footprint: set-up plus one full episode.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = [record(first)]
    repeats = max(MIN_REPEATS, round(args.seconds / wl.size.episode_s))
    while len(records) < repeats:
        ep = wl.episode()
        problems += checks.check_accounting(ep, n_inputs)
        problems += checks.check_same_simulation(first, ep, "repeat episode")
        records.append(record(ep))
        del ep

    if args.check:
        with CHECK.session(InvariantChecker()) as checker:
            checked = wl.episode()
        problems += [f"invariant: {v}" for v in checker.violations[:20]]
        if checker.n_violations > 20:
            problems.append(f"invariant: {checker.n_violations} violations in all")
        problems += checks.check_accounting(checked, n_inputs)
        problems += checks.check_same_simulation(first, checked, "checked episode")

    corp = first.runs["CORP"].result
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "episodes": records,
        "is_tick": {m: list(r.is_tick) for m, r in first.runs.items()},
        "comm_s": {m: r.comm_s for m, r in first.runs.items()},
        "sim": first.sim_summary(),
        "n_completed": first.n_completed,
        "n_submitted": first.n_submitted,
        "corp_submitted": corp.n_submitted,
        "problems": problems,
    }))
    return 0


def _traced(args, wl, tracer, import_s: float, n_inputs: int) -> int:
    import checks
    import layers

    wl.on_method = tracer.set_scope
    first = wl.episode()
    problems = checks.check_accounting(first, n_inputs)
    boundary = next(
        (i for i in range(len(tracer)) if tracer.t0[i] >= first.first_event_at),
        len(tracer),
    )
    setup_counts: dict[str, float] = {}
    for (_scope, key), value in tracer.counts.items():
        setup_counts[key] = setup_counts.get(key, 0.0) + value
    metrics = layers.setup_metrics(tracer.summarize(0, boundary), setup_counts)
    metrics["setup.import_s"] = import_s

    samples: list[dict[str, float]] = []
    untraced_s = traced_s = 0.0
    loop_start = time.perf_counter()
    while not samples or time.perf_counter() - loop_start < args.seconds:
        tracer.uninstall()
        plain = wl.episode()
        untraced_s += plain.host_s
        tracer.install()
        tracer.counts.clear()
        lo = len(tracer)
        wall0 = time.perf_counter()
        traced = wl.episode()
        traced.sim_summary()
        wall = time.perf_counter() - wall0
        samples.append(layers.episode_metrics(
            tracer.summarize(lo, len(tracer)), dict(tracer.counts), traced, wall
        ))
        traced_s += traced.host_s
        # Tracing may cost time, never behaviour: the traced episode's
        # simulated numbers must equal the untraced one's exactly.
        problems += checks.check_same_simulation(plain, traced, "traced episode")
        problems += checks.check_same_simulation(first, plain, "repeat episode")
        problems += checks.check_accounting(plain, n_inputs)
        problems += checks.check_accounting(traced, n_inputs)
    tracer.uninstall()

    for key in samples[0]:
        metrics[key] = statistics.fmean(s[key] for s in samples)
    metrics["trace_overhead_share"] = 1.0 - untraced_s / traced_s
    if args.spans:
        tracer.dump(args.spans)
    print(json.dumps({
        "metrics": metrics,
        "detail": {"traced_episodes": len(samples), "spans": len(tracer)},
        "n_completed": first.n_completed,
        "n_submitted": first.n_submitted,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

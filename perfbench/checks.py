"""Correctness checks applied to every benchmark episode.

Each check returns a list of human-readable problems; an empty list
means the episode passed.  The benchmark reports ``correct: false`` (and
exits non-zero) on any problem.
"""

from __future__ import annotations

from repro.cluster.job import JobState


def count_placements(jobs) -> int:
    """Placement decisions reconstructed from final job state.

    Every placement ends in exactly one of: completion, a crash/wave
    eviction (``job.evictions``), an injected job failure
    (``job.retries``), or the job still running when the run stopped.
    """
    total = 0
    for job in jobs:
        total += job.evictions + job.retries
        if job.state in (JobState.COMPLETED, JobState.RUNNING):
            total += 1
    return total


def check_accounting(episode, n_inputs: int) -> list[str]:
    """Job conservation, no truncation and (services) stream completeness."""
    problems = []
    for method, run in episode.runs.items():
        r = run.result
        if r.truncated:
            problems.append(f"{method}: run truncated at max_slots")
        if r.n_submitted != n_inputs:
            problems.append(
                f"{method}: {r.n_submitted} submitted, {n_inputs} generated"
            )
        if r.n_completed + r.n_rejected + r.n_failed != r.n_submitted:
            problems.append(
                f"{method}: completed {r.n_completed} + rejected "
                f"{r.n_rejected} + failed {r.n_failed} != submitted "
                f"{r.n_submitted}"
            )
        if run.streamed is not None:
            placements = count_placements(r.jobs)
            if run.streamed != placements:
                problems.append(
                    f"{method}: {run.streamed} updates streamed for "
                    f"{placements} placements"
                )
            if run.history_len != run.streamed:
                problems.append(
                    f"{method}: daemon history {run.history_len} != "
                    f"{run.streamed} streamed"
                )
    return problems


def check_same_simulation(reference, other, label: str) -> list[str]:
    """Every simulated number of ``other`` equals ``reference`` exactly."""
    want = reference.sim_summary()
    got = other.sim_summary()
    problems = []
    if set(want) != set(got):
        return [f"{label}: methods {sorted(got)} != {sorted(want)}"]
    for method, summary in want.items():
        for key in sorted(set(summary) | set(got[method])):
            a = summary.get(key)
            b = got[method].get(key)
            if a != b and not (a != a and b != b):  # NaN == NaN here
                problems.append(f"{label}: {method}.{key} {b!r} != {a!r}")
    return problems

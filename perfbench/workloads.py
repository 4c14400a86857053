"""The benchmark's workloads: input generation and episode runners.

Every workload makes its inputs from the ``--seed`` argument with the
same generators the experiments use (``GoogleTraceGenerator`` →
``remove_long_lived`` → ``resample_trace``; fault plans from
``build_revocation_storm`` and ``build_fault_plan``) and hands the
program only those generated inputs.  Arrivals are an open-loop Poisson
process in simulated time; on the host the loop is closed — one loop
advances the kernel as fast as it can.  Everything runs serially in one
process.

The predictor's training history is a fixed trace (seed
``HISTORY_SEED``) fitted with ``CorpConfig(seed=FIT_SEED)``: the paper
trains once on the historical Google trace, and a per-seed fit flips
CORP between operating regimes (utilization 0.38 vs 0.61 across seeds
0-4), which no run-to-run bound could absorb.  The seed drives the
evaluation stream, the baselines' randomness and the fault plans.

An *episode* runs the workload's methods once over the inputs and
returns per-method results plus host timings.  Episodes over the same
inputs must agree exactly in every simulated metric, which the worker
checks.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from dataclasses import dataclass, field

from repro.cluster.profiles import ClusterProfile
from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.cluster.slo import SloSpec
from repro.core.config import CorpConfig
from repro.core.corp import CorpScheduler
from repro.core.predictor_store import PredictorStore
from repro.experiments.runner import METHOD_ORDER, PredictorCache
from repro.experiments.scenarios import Scenario
from repro.faults.plan import (
    FaultPlan,
    RetryPolicy,
    build_fault_plan,
    build_revocation_storm,
)
from repro.service.daemon import SchedulerService
from repro.service.kernel import EventKind, SchedulerKernel
from repro.trace.filters import remove_long_lived
from repro.trace.generator import GoogleTraceGenerator, TraceConfig
from repro.trace.records import Trace
from repro.trace.transform import resample_trace
from repro.trace.workload import build_workload

WORKLOADS = ("steady", "churn")

SLOT_S = 10.0
HISTORY_SEED = 10_007
FIT_SEED = 7

#: Trace statistics of the experiments' 10-second scenarios (regime
#: dwell ~8 slots); see ``repro.experiments.scenarios``.
_FINE_GRAIN = dict(
    sample_period_s=10.0,
    burst_prob=0.03,
    burst_mean_len=8.0,
    valley_prob=0.03,
    valley_mean_len=8.0,
    noise_sigma=0.03,
    long_pattern_period_s=600.0,
)


@dataclass(frozen=True)
class Size:
    """Run-size knobs of one workload (the smoke tests shrink these)."""

    n_jobs: int
    rate_per_s: float
    n_pms: int
    #: Host seconds of one episode on an undisturbed 2-CPU x86_64 box;
    #: sets how many repeats fill the measured time (see worker.py).
    episode_s: float


SIZES = {
    "steady": Size(n_jobs=2000, rate_per_s=1.5, n_pms=30, episode_s=2.2),
    "churn": Size(n_jobs=500, rate_per_s=1.5, n_pms=30, episode_s=2.1),
}

#: Smoke-test inputs: every code path, a few seconds per workload.
SMOKE_SIZES = {
    "steady": Size(n_jobs=150, rate_per_s=1.5, n_pms=30, episode_s=0.2),
    "churn": Size(n_jobs=80, rate_per_s=1.5, n_pms=30, episode_s=0.5),
}

#: Generous enough that no job gives up: faults cost retries and
#: queueing, never a lost job, so every submitted job is accounted
#: for as completed.
RETRY = RetryPolicy(max_retries=50, backoff_base_slots=1, give_up_slots=2000)


def evaluation_trace(size: Size, seed: int) -> Trace:
    """Poisson stream of ``size.n_jobs`` short jobs (after filtering)."""
    raw_jobs = int(size.n_jobs / 0.92 * 1.15) + 50
    cfg = TraceConfig(
        n_jobs=raw_jobs,
        arrival_rate_per_s=size.rate_per_s,
        short_fraction=0.92,
        seed=seed,
        **_FINE_GRAIN,
    )
    short = list(remove_long_lived(GoogleTraceGenerator(cfg).generate()))
    if len(short) < size.n_jobs:
        raise RuntimeError(
            f"trace seed {seed}: {len(short)} short jobs, need {size.n_jobs}"
        )
    return resample_trace(Trace(short[: size.n_jobs]), SLOT_S, seed=seed)


def history_config() -> TraceConfig:
    return TraceConfig(
        n_jobs=400,
        arrival_rate_per_s=0.2,
        short_fraction=0.92,
        seed=HISTORY_SEED,
        **_FINE_GRAIN,
    )


def history_trace() -> Trace:
    """The fixed training history (identical to ``Scenario.history_trace``)."""
    cfg = history_config()
    return resample_trace(
        remove_long_lived(GoogleTraceGenerator(cfg).generate()),
        SLOT_S,
        seed=cfg.seed,
    )


def scenario_for(
    name: str, profile: ClusterProfile, size: Size, seed: int,
    fault_plan: FaultPlan | None = None,
) -> Scenario:
    return Scenario(
        name=f"bench-{name}",
        profile=profile,
        n_jobs=size.n_jobs,
        trace_config=TraceConfig(n_jobs=size.n_jobs, seed=seed),
        history_config=history_config(),
        sim_config=SimulationConfig(slo=SloSpec(slack_factor=1.2)),
        fault_plan=fault_plan,
    )


def churn_fault_plan(seed: int, n_slots: int) -> FaultPlan:
    """A high-intensity revocation storm merged with independent faults.

    The storm sends a wave about every 7 slots, each reclaiming 6 VMs
    (10% of the 60-VM testbed; half crash, half lose half their
    capacity).  Many small waves rather than the default few large ones
    keep CORP's utilization from swinging with where one big wave lands.
    The independent plan runs at intensity 1 ("severe churn"): crashes,
    revocations and targeted job failures with retry, plus predictor
    outages made frequent and one slot long (about one slot in five) for
    the same reason: a few 10-slot outages swung CORP's utilization
    between 0.39 and 0.63 across seeds.  Job failures stay at the
    intensity-1 rate (0 to 10 retries over the four methods on seeds
    0-9); a rate of 0.1 or more per slot swung CORP's utilization
    between 0.29 and 0.69.
    """
    storm = build_revocation_storm(
        seed=seed, n_slots=n_slots, wave_rate=0.15, cohort_size=6
    )
    faults = build_fault_plan(
        seed=seed + 1, n_slots=n_slots, intensity=1.0,
        outage_rate=0.2, outage_duration_slots=1,
    )
    return FaultPlan(events=storm.events + faults.events, retry=RETRY)


@dataclass
class MethodRun:
    """One method's run inside an episode."""

    result: SimulationResult
    #: Host seconds from the method's first kernel event to its drain.
    host_s: float
    #: Per kernel event, in processing order: host seconds of the
    #: ``advance()`` call, whether it was a slot tick, and the growth of
    #: the measured decision-path compute of the scheduler's allocation
    #: latency (Fig. 10/14) during it.
    event_s: array
    is_tick: array
    compute_s: array
    #: The modelled communication part of the allocation latency
    #: (operations x RTT); deterministic, so not timed per event.
    comm_s: float
    #: Service runs only: updates the subscriber received, and the
    #: daemon's own decision history length.
    streamed: int | None = None
    history_len: int | None = None


@dataclass
class Episode:
    runs: dict[str, MethodRun] = field(default_factory=dict)
    #: ``perf_counter`` at the episode's first kernel event.
    first_event_at: float | None = None

    @property
    def host_s(self) -> float:
        return sum(r.host_s for r in self.runs.values())

    @property
    def n_submitted(self) -> int:
        return sum(r.result.n_submitted for r in self.runs.values())

    @property
    def n_completed(self) -> int:
        return sum(r.result.n_completed for r in self.runs.values())

    def sim_summary(self) -> dict[str, dict[str, float]]:
        """Every simulated number of every method (host latency excluded)."""
        out = {}
        for name, run in self.runs.items():
            summary = dict(run.result.summary())
            summary.pop("allocation_latency_s", None)
            summary["n_submitted"] = float(run.result.n_submitted)
            summary["n_rejected"] = float(run.result.n_rejected)
            summary["n_failed"] = float(run.result.n_failed)
            summary["n_events"] = float(len(run.event_s))
            out[name] = summary
        return out


class _EventTimer:
    """Thin timing wrapper around one kernel's ``advance``.

    Records the host time of every ``advance()`` call that processed an
    event, whether it was a slot tick, and how much the measured compute
    of the scheduler's allocation-latency meter grew during it.  The service's ``pump()``
    looks ``advance`` up on the kernel instance, so the wrapper is
    installed there; it is the only instrumentation in an untraced run.
    """

    def __init__(self, kernel: SchedulerKernel) -> None:
        self.event_s = array("d")
        self.is_tick = array("b")
        self.compute_s = array("d")
        self.first: float | None = None
        self._latency = kernel.sim.scheduler.latency
        self._advance = kernel.advance
        kernel.advance = self  # type: ignore[method-assign]

    def __call__(self):
        compute = self._latency.compute_s
        start = time.perf_counter()
        event = self._advance()
        stop = time.perf_counter()
        if event is None:
            return None
        if self.first is None:
            self.first = start
        self.event_s.append(stop - start)
        self.is_tick.append(event.kind is EventKind.SLOT_TICK)
        self.compute_s.append(self._latency.compute_s - compute)
        return event

    def run(self, result: SimulationResult, stop: float, **extra) -> MethodRun:
        return MethodRun(
            result=result,
            host_s=stop - self.first,
            event_s=self.event_s,
            is_tick=self.is_tick,
            compute_s=self.compute_s,
            comm_s=self._latency.comm_s,
            **extra,
        )


class Workload:
    """Base: inputs made in ``__init__``; ``episode()`` runs them once."""

    name = ""
    methods: tuple[str, ...] = ("CORP",)

    def __init__(self, seed: int, size: Size) -> None:
        self.seed = seed
        self.size = size
        #: Optional tracer hook: called with the method name before each
        #: method runs so traced spans carry their method scope.
        self.on_method = None

    def episode(self) -> Episode:
        raise NotImplementedError


class Steady(Workload):
    """CORP alone through the batch ``SchedulerKernel`` on the paper's
    cluster testbed, with a cold fit in setup."""

    name = "steady"

    def __init__(self, seed: int, size: Size) -> None:
        super().__init__(seed, size)
        self.trace = evaluation_trace(size, seed)
        profile = ClusterProfile.palmetto(n_pms=size.n_pms)
        self.scenario = scenario_for(self.name, profile, size, seed)
        self.history = history_trace()
        self.config = CorpConfig(seed=FIT_SEED)
        self.predictor = PredictorCache(fit_workers=0).get(self.config, self.history)

    def episode(self) -> Episode:
        if self.on_method is not None:
            self.on_method("CORP")
        scheduler = CorpScheduler(self.config, predictor=self.predictor)
        sim = ClusterSimulator(
            self.scenario.profile, scheduler, self.scenario.sim_config
        )
        scheduler.prepare(self.history)
        kernel = SchedulerKernel.from_workload(
            sim, build_workload(self.trace, SLOT_S)
        )
        timer = _EventTimer(kernel)
        episode = Episode()
        while kernel.advance() is not None:
            pass
        result = kernel.result()
        episode.runs["CORP"] = timer.run(result, time.perf_counter())
        episode.first_event_at = timer.first
        return episode


def warm_store(store_dir: str) -> None:
    """Fit the shared history once and save it (untimed preparation)."""
    cache = PredictorCache(store=PredictorStore(store_dir), fit_workers=0)
    cache.get(CorpConfig(seed=FIT_SEED), history_trace())


class Churn(Workload):
    """All four methods as services under storms and independent faults."""

    name = "churn"
    methods = METHOD_ORDER

    def __init__(self, seed: int, size: Size, store_dir: str) -> None:
        super().__init__(seed, size)
        self.trace = evaluation_trace(size, seed)
        span_slots = int(max(r.submit_time_s for r in self.trace) // SLOT_S) + 1
        plan = churn_fault_plan(seed, n_slots=span_slots)
        self.scenario = scenario_for(
            self.name, ClusterProfile.palmetto(n_pms=size.n_pms), size, seed,
            fault_plan=plan,
        )
        self.config = CorpConfig(seed=FIT_SEED)
        #: One in-process cache over a warm predictor store, as a
        #: restarted daemon keeps its fitted state: CORP's predictor is
        #: loaded once, in the first episode's CORP service start (before
        #: the first kernel event), and shared by every later episode.
        self.cache = PredictorCache(
            store=PredictorStore(store_dir), fit_workers=0
        )

    def episode(self) -> Episode:
        return asyncio.run(self._episode())

    async def _episode(self) -> Episode:
        episode = Episode()
        for method in self.methods:
            if self.on_method is not None:
                self.on_method(method)
            service = SchedulerService(
                scenario=self.scenario,
                method=method,
                seed=self.seed,
                corp_config=self.config,
                predictor_cache=self.cache,
            )
            async with service:
                timer = _EventTimer(service.kernel)
                received = asyncio.ensure_future(_count(service.placements()))
                await service.submit_trace(self.trace)
                result = await service.drain()
                done = time.perf_counter()
                streamed = await received
                history_len = len(service.history)
            if episode.first_event_at is None:
                episode.first_event_at = timer.first
            episode.runs[method] = timer.run(
                result, done, streamed=streamed, history_len=history_len
            )
        return episode


async def _count(stream) -> int:
    n = 0
    async for _update in stream:
        n += 1
    return n


def make(name: str, seed: int, *, store_dir: str, smoke: bool = False) -> Workload:
    sizes = SMOKE_SIZES if smoke else SIZES
    if name == "steady":
        return Steady(seed, sizes[name])
    if name == "churn":
        return Churn(seed, sizes[name], store_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")

"""The per-layer ledger: which public functions are traced, and the
per-layer metrics (named in ``BENCHMARK.json``) computed from their spans.

Span names follow the package's modules (``trace.*``, ``nn.*``,
``hmm.*``, ``store.*``, ``cluster.*``, ``sched.*``, ``forecast.*``,
``index.*``, ``kernel.*``, ``daemon.*``, ``faults.*``, ``metrics.*``).
Scheduler hooks are wrapped on each concrete scheduler class and every
span carries the method scope the worker set, so CORP's layers and the
baselines' time are told apart on the ``churn`` workload.
"""

from __future__ import annotations

import importlib

from repro.baselines import CloudScaleScheduler, DraScheduler, RccrScheduler
from repro.cluster.machine import VirtualMachine
from repro.cluster.profiles import ClusterProfile
from repro.cluster.shards import ShardedCandidateIndex
from repro.cluster.simulator import SimulationResult
from repro.core.corp import CorpScheduler
from repro.core.predictor import CorpPredictor
from repro.core.predictor_store import PredictorStore
from repro.faults.injector import FaultInjector
from repro.service.daemon import SchedulerService
from repro.service.kernel import SchedulerKernel
from repro.trace.generator import GoogleTraceGenerator

from tracer import Tracer

# ``repro.hmm`` re-exports functions named like their modules, so the
# modules are fetched explicitly.
_bw = importlib.import_module("repro.hmm.baum_welch")
_fb = importlib.import_module("repro.hmm.forward_backward")
_training = importlib.import_module("repro.nn.training")
_transform = importlib.import_module("repro.trace.transform")

SCHEDULERS = {
    "CORP": CorpScheduler,
    "RCCR": RccrScheduler,
    "CloudScale": CloudScaleScheduler,
    "DRA": DraScheduler,
}
HOOKS = ("on_slot_start", "place_jobs", "on_slot_end")


def _count_placed(tracer, _args, placed) -> None:
    tracer.count("placement.jobs", len(placed))
    tracer.count("placement.opportunistic", sum(j.opportunistic for j in placed))


def _count_packed(tracer, _args, entities) -> None:
    tracer.count("packing.jobs", sum(len(e.jobs) for e in entities))
    tracer.count("packing.paired", sum(len(e.jobs) for e in entities if e.is_packed))


def build_tracer() -> Tracer:
    """A tracer with every layer boundary registered (not yet installed)."""
    t = Tracer()
    t.wrap_method(GoogleTraceGenerator, "generate", "trace.generate")
    t.wrap_function(_transform.resample_trace, "trace.resample")
    t.wrap_function(
        _training.train, "nn.train",
        after=lambda tr, _a, out: tr.count("nn.epochs", out.n_epochs),
    )
    t.wrap_function(_bw.baum_welch, "hmm.baum_welch")
    t.wrap_function(_fb.forward_backward, "hmm.forward_backward")
    t.wrap_method(PredictorStore, "load", "store.load")
    t.wrap_method(ClusterProfile, "build", "cluster.build")
    for cls in SCHEDULERS.values():
        for hook in HOOKS:
            t.wrap_method(
                cls, hook, f"sched.{hook}",
                after=_count_placed if hook == "place_jobs" else None,
            )
    t.wrap_method(CorpScheduler, "predict_vm_unused", "forecast.predict_vm")
    t.wrap_method(CorpScheduler, "adjust_forecast", "forecast.adjust")
    t.wrap_method(CorpPredictor, "predict_job_unused", "forecast.predict_job")
    t.wrap_method(
        CorpScheduler, "opportunistic_allowed", "gate",
        after=lambda tr, _a, out: tr.count("gate.unlocked", bool(out)),
    )
    t.wrap_method(CorpScheduler, "make_entities", "packing", after=_count_packed)
    t.wrap_method(
        CorpScheduler, "choose_vm", "selection",
        after=lambda tr, _a, out: tr.count("selection.miss", out is None),
    )
    t.wrap_method(
        ShardedCandidateIndex, "refresh", "index.refresh",
        after=lambda tr, _a, out: tr.count("index.shards_touched", out),
    )
    t.wrap_method(
        VirtualMachine, "execute_slot", "execute",
        before=lambda tr, a: tr.count("execute.idle", not a[0].placements),
    )
    t.wrap_method(VirtualMachine, "remove_completed", "completions")
    t.wrap_method(
        SchedulerKernel, "advance", "kernel.advance",
        after=lambda tr, _a, out: tr.count("kernel.events", out is not None),
    )
    t.wrap_method(SchedulerKernel, "submit", "kernel.submit")
    for hook in ("submit", "pump", "drain"):
        t.wrap_method(SchedulerService, hook, f"daemon.{hook}")
    t.wrap_async_generator(SchedulerService, "placements", "daemon.updates_streamed")
    t.wrap_method(FaultInjector, "restore_phase", "faults.restore")
    t.wrap_method(FaultInjector, "fault_phase", "faults.fault")
    t.wrap_method(SimulationResult, "summary", "metrics.summary")
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_metrics(setup, counts) -> dict[str, float]:
    """Layers paid before the first kernel event."""
    return {
        "trace.generate_s": setup.total("trace.generate") + setup.total("trace.resample"),
        "nn.train_s": setup.total("nn.train"),
        "nn.epochs": counts.get("nn.epochs", 0.0),
        "hmm.baum_welch_s": setup.total("hmm.baum_welch"),
        "hmm.forward_backward_calls": float(setup.calls("hmm.forward_backward")),
        "store.load_s": setup.total("store.load"),
        "cluster.build_s": setup.total("cluster.build"),
    }


def episode_metrics(ep, counts, episode, wall_s: float) -> dict[str, float]:
    """Layers of one traced episode; ``counts`` maps (scope, key) -> value.

    ``wall_s`` is the episode's whole wall time; what no top-level span
    covers is reported as ``unattributed_s`` rather than hidden.
    """

    def c(key: str, scope: str | None = "CORP") -> float:
        return sum(
            v for (s, k), v in counts.items()
            if k == key and (scope is None or s == scope)
        )

    corp = episode.runs["CORP"].result
    placed = c("placement.jobs")
    selections = ep.calls("selection", "CORP")
    predict_calls = ep.calls("forecast.predict_job", "CORP")
    vm_calls = ep.calls("execute", None)
    gate_evals = ep.calls("gate", "CORP")
    resilience = [r.result.resilience or {} for r in episode.runs.values()]
    streamed = c("daemon.updates_streamed", None)
    out = {
        "forecast.refresh_s": ep.total("sched.on_slot_start", "CORP"),
        "forecast.vms_polled": float(ep.calls("forecast.predict_vm", "CORP")),
        "forecast.predict_job_calls": float(predict_calls),
        "forecast.predict_job_us": 1e6 * _ratio(
            ep.total("forecast.predict_job", "CORP"), predict_calls
        ),
        "forecast.adjust_s": ep.total("forecast.adjust", "CORP"),
        "forecast.error_rate": float(corp.prediction_error_rate or 0.0),
        "gate.evals": float(gate_evals),
        "gate.unlock_ratio": _ratio(c("gate.unlocked"), gate_evals),
        "packing.s": ep.total("packing", "CORP"),
        "packing.paired_share": _ratio(c("packing.paired"), c("packing.jobs")),
        "selection.s": ep.total("selection", "CORP"),
        "selection.calls": float(selections),
        "selection.miss_ratio": _ratio(c("selection.miss"), selections),
        "index.refresh_s": ep.total("index.refresh", "CORP"),
        "index.shards_touched": c("index.shards_touched"),
        "placement.self_s": ep.own("sched.place_jobs", "CORP"),
        "placement.attempts_per_job": _ratio(selections, placed),
        "placement.opportunistic_share": _ratio(c("placement.opportunistic"), placed),
        "execute.s": ep.total("execute"),
        "execute.vm_calls": float(vm_calls),
        "execute.idle_share": _ratio(c("execute.idle", None), vm_calls),
        "completions.s": ep.total("completions"),
        "feedback.s": ep.total("sched.on_slot_end", "CORP"),
        "slo.violation_rate": float(corp.slo.violation_rate),
        "kernel.tick_self_s": ep.own("kernel.advance"),
        "kernel.events": c("kernel.events", None),
        "daemon.self_s": sum(
            ep.own(f"daemon.{h}") for h in ("submit", "pump", "drain")
        ),
        "daemon.updates_streamed": streamed,
        "daemon.history_len": float(
            sum(r.history_len or 0 for r in episode.runs.values())
        ),
        "faults.s": ep.total("faults.restore") + ep.total("faults.fault"),
        "faults.evictions": sum(r.get("evictions", 0.0) for r in resilience),
        "faults.retries": sum(r.get("retries", 0.0) for r in resilience),
        "faults.degraded_slots": sum(
            r.get("predictor_outage_slots", 0.0) for r in resilience
        ),
        "jobs.failure_rate": _ratio(
            episode.n_submitted - episode.n_completed, episode.n_submitted
        ),
        "metrics.summary_s": ep.total("metrics.summary"),
        "unattributed_s": wall_s - ep.top_level_s,
    }
    for method in ("RCCR", "CloudScale", "DRA"):
        out[f"baselines.{method}.s"] = sum(
            ep.total(f"sched.{hook}", method) for hook in HOOKS
        )
    return out

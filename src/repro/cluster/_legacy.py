"""Pre-vectorization reference implementations (benchmark + test oracle).

``legacy_execute_slot`` is the per-placement slot execution that
:meth:`repro.cluster.machine.VirtualMachine.execute_slot` replaced.  It
applies :func:`repro.check.differential.reference_outcome` — the one
transcription of the original grant arithmetic — to the VM, so that

* the property tests can check the vectorized path against the original
  semantics on randomized placements, and
* ``benchmarks/bench_runtime.py`` can measure the pre-optimization
  baseline live on the current machine instead of trusting a recorded
  number.

``legacy_max_vm_capacity`` likewise rebuilds the elementwise max VM
capacity from scratch on every call, the way ``ClusterSimulator._admit``
did before the simulator memoized it.

Do not use these in production paths; they are intentionally slow.
"""

from __future__ import annotations

import numpy as np

from ..check.differential import capture_snapshot, reference_outcome
from .machine import SlotOutcome, VirtualMachine
from .resources import ResourceVector

__all__ = [
    "legacy_execute_slot",
    "legacy_max_vm_capacity",
    "legacy_fits_within",
    "legacy_is_nonnegative",
    "legacy_any_positive",
    "legacy_job_demand",
    "legacy_committed",
    "legacy_unallocated",
    "legacy_burst_pad",
    "legacy_error_pad",
]


def legacy_execute_slot(vm: VirtualMachine, slot: int) -> SlotOutcome:
    """Apply :func:`repro.check.differential.reference_outcome` to ``vm``.

    Advances each job at its reference rate and appends the VM's two
    history rows.
    """
    snapshot = capture_snapshot(vm)
    ref = reference_outcome(snapshot)
    for p, rate in zip(vm.placements, ref.rates):
        p.job.advance(rate, slot)
    vm._unused_history.append(ref.unused)
    vm._demand_history.append(ref.primary_demand + ref.opportunistic_demand)
    return SlotOutcome(
        committed=ResourceVector(snapshot.committed),
        primary_demand=ResourceVector(ref.primary_demand),
        opportunistic_demand=ResourceVector(ref.opportunistic_demand),
        served_demand=ResourceVector(ref.served_demand),
        unused=ResourceVector(ref.unused),
    )


def legacy_max_vm_capacity(vms) -> ResourceVector:
    """Uncached elementwise max capacity across VMs (per-arrival cost)."""
    return ResourceVector.elementwise_max(vm.capacity for vm in vms)


# ----------------------------------------------------------------------
# Pre-optimization bodies of the small hot-path methods, verbatim.
# ``repro.experiments.bench.legacy_mode`` patches these in so the
# baseline measurement reflects the original per-call numpy overhead.
# ----------------------------------------------------------------------


def legacy_fits_within(self, capacity, *, atol: float = 1e-9) -> bool:
    """Original numpy-reduction ``ResourceVector.fits_within``."""
    return bool(np.all(self._v <= capacity._v + atol))


def legacy_is_nonnegative(self, *, atol: float = 1e-9) -> bool:
    """Original numpy-reduction ``ResourceVector.is_nonnegative``."""
    return bool(np.all(self._v >= -atol))


def legacy_any_positive(self, *, atol: float = 1e-9) -> bool:
    """Original numpy-reduction ``ResourceVector.any_positive``."""
    return bool(np.any(self._v > atol))


def legacy_job_demand(self) -> ResourceVector:
    """Original uncached ``Job.demand`` (fresh vector every call)."""
    idx = min(int(self.progress), self.record.n_samples - 1)
    return self.record.usage_at(idx)


def legacy_committed(self) -> ResourceVector:
    """Original unmemoized ``VirtualMachine.committed``."""
    return ResourceVector(self._committed)


def legacy_unallocated(self) -> ResourceVector:
    """Original unmemoized ``VirtualMachine.unallocated``."""
    return ResourceVector(
        np.maximum(self.capacity.as_array() - self._committed, 0.0)
    )


def legacy_burst_pad(self) -> float:
    """Original ``AdaptivePadding.burst_pad`` (numpy percentile)."""
    if len(self._usage) < 2:
        return 0.0
    u = np.asarray(self._usage)
    return float(max(np.percentile(u, self.percentile) - u.mean(), 0.0))


def legacy_error_pad(self) -> float:
    """Original ``AdaptivePadding.error_pad`` (numpy percentile)."""
    if not self._under_errors:
        return 0.0
    return float(np.percentile(np.asarray(self._under_errors), self.percentile))

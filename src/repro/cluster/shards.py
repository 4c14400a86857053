"""The persistent availability index of the placement path.

Rebuilding an ``(n_vms, l)`` availability matrix from Python attribute
reads every slot dominates placement at 10k+ VMs.
:class:`ShardedCandidateIndex` instead keeps *one*
:class:`~repro.core.vm_selection.CandidateSet` alive across calls and
re-reads only the rows whose VM ``state_version`` moved (placements,
completions, crashes, revocations all bump it).

:class:`ScaleConfig` is the deprecated knob group of the former
shard-partitioned index: accepted with a :class:`DeprecationWarning`
and ignored for one release, then removed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .resources import NUM_RESOURCES

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .machine import VirtualMachine

__all__ = ["ScaleConfig", "ShardedCandidateIndex", "warn_scale_ignored"]

#: The one-line note every deprecated scale knob emits.
SCALE_DEPRECATION = (
    "scale knobs (ScaleConfig, scale=, --shards, --chunk-size) are "
    "deprecated and ignored: the availability index is a single matrix; "
    "they will be removed in the next release"
)


@dataclass(frozen=True)
class ScaleConfig:
    """Deprecated scale knobs: validated and warned about, never read.

    Kept importable for one release so existing callers keep working.
    """

    shards: int = 1
    chunk_size: int = 4096

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        # dataclass __init__ -> __post_init__ -> warn: the caller is 3 up.
        warnings.warn(SCALE_DEPRECATION, DeprecationWarning, stacklevel=3)


def warn_scale_ignored(scale: ScaleConfig | None) -> None:
    """Warn once that an entry point's ``scale=`` argument is ignored."""
    if scale is not None:
        warnings.warn(SCALE_DEPRECATION, DeprecationWarning, stacklevel=3)


class ShardedCandidateIndex:
    """One :class:`CandidateSet` over a cluster's VMs, kept current in place.

    The name is historical: the VM-pool shards it once held measured as
    pure overhead in one process.  Rows mirror each VM's unallocated
    capacity and the set's liveness lane masks crashed VMs; the
    placement path calls :meth:`refresh` and hands :attr:`cset` to
    ``choose_vm``.
    """

    __slots__ = ("source_vms", "cset", "_versions", "_online")

    def __init__(self, vms: Sequence["VirtualMachine"]) -> None:
        # Deferred: ``repro.core`` imports ``repro.cluster`` at module
        # level; importing back at import time would cycle the packages.
        from ..core.vm_selection import CandidateSet

        self.source_vms = vms
        self.cset = CandidateSet(vms, np.zeros((len(vms), NUM_RESOURCES)))
        #: ``-1`` forces the first refresh to populate every row.
        self._versions = [-1] * len(vms)
        self._online = np.ones(len(vms), dtype=bool)

    def refresh(self) -> int:
        """Re-read rows whose VM ``state_version`` moved; 1 if any did, else 0."""
        cset = self.cset
        matrix = cset.matrix
        versions = self._versions
        online = self._online
        changed = 0
        for i, vm in enumerate(cset.vms):
            version = vm.state_version
            if version == versions[i]:
                continue
            versions[i] = version
            live = vm.online
            online[i] = live
            matrix[i] = vm.unallocated_array() if live else 0.0
            changed = 1
        if changed:
            cset.online = None if online.all() else online
        return changed

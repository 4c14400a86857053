"""The persistent availability index: exact equivalence with a rebuild.

After any sequence of placements, crashes, restores and revocations,
:class:`ShardedCandidateIndex` (one ``CandidateSet``; the class name is
historical) must return the same Eq. 22 winner and random-feasible
choice, from the same rng stream position, as a fresh
:class:`CandidateSet` over the online VMs and as the scalar reference
loops.  Capacities and demands come from a small grid so exact volume
ties are common and the tie-break path is exercised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.cluster.shards import ScaleConfig, ShardedCandidateIndex
from repro.core.vm_selection import (
    CandidateSet,
    min_feasible_volume,
    select_most_matched as scalar_select_most_matched,
    select_random_feasible as scalar_select_random_feasible,
    tie_window,
)

from .test_machine import make_vm, place, running_job

# Small grids make exact ties likely (same request on several VMs).
_CAP_GRID = (2.0, 4.0, 8.0, 16.0)
_DEMAND_GRID = (0.0, 1.0, 2.0, 3.0, 5.0, 9.0, 20.0)

capacity_triples = st.tuples(*[st.sampled_from(_CAP_GRID)] * 3)
demand_triples = st.tuples(*[st.sampled_from(_DEMAND_GRID)] * 3)


def _fresh_set(vms):
    """The per-call rebuild the persistent index replaces."""
    return CandidateSet.from_pairs([(v, v.unallocated()) for v in vms if v.online])


def _assert_same_choices(pool, other, demand, reference, seed):
    """``pool`` and ``other`` agree with each other and the scalar oracles."""
    assert len(pool) == len(other)
    assert list(pool) == list(other)
    assert pool.feasible_count(demand) == other.feasible_count(demand)
    pick = pool.select_most_matched(demand, reference)
    assert pick is other.select_most_matched(demand, reference)
    assert pick is scalar_select_most_matched(demand, list(other), reference)
    assert min_feasible_volume(demand, list(pool), reference) == \
        min_feasible_volume(demand, list(other), reference)
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    choice = pool.select_random_feasible(demand, rngs[0])
    assert choice is other.select_random_feasible(demand, rngs[1])
    assert choice is scalar_select_random_feasible(
        demand, list(other), rngs[2]
    )
    # Same number of draws consumed: the streams stay aligned.
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert rngs[0].bit_generator.state == rngs[2].bit_generator.state
    return pick


class TestScaleConfig:
    """The deprecated knob group still validates its fields."""

    @pytest.mark.parametrize("kwargs", [
        {"shards": 0},
        {"shards": -3},
        {"chunk_size": 0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ScaleConfig(**kwargs)


class TestShardedEquivalence:
    """``ShardedCandidateIndex`` (historical name) against a rebuild."""

    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_flat_set_and_scalar_oracle(self, data):
        """Placing each Eq. 22 winner: the index equals a consumed flat set."""
        n = data.draw(st.integers(1, 8), label="n_vms")
        caps = data.draw(
            st.lists(capacity_triples, min_size=n, max_size=n), label="caps"
        )
        vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
        matrix = np.array(caps, dtype=np.float64)
        flat = CandidateSet(vms, matrix)
        reference = ResourceVector(matrix.max(axis=0))
        index = ShardedCandidateIndex(vms)
        index.refresh()
        seed = data.draw(st.integers(0, 2**16), label="seed")
        for task_id in range(data.draw(st.integers(1, 8), label="n_ops")):
            demand = ResourceVector(data.draw(demand_triples, label="demand"))
            pick = _assert_same_choices(index.cset, flat, demand, reference, seed)
            if pick is not None:
                job = running_job(
                    request=tuple(demand.as_array()), task_id=task_id
                )
                place(pick, job)
                flat.consume(pick, demand.as_array())
            assert index.refresh() == (1 if pick is not None else 0)
        for vm in vms:
            assert index.cset.availability(vm) == flat.availability(vm)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_persistent_index_tracks_vm_state(self, data):
        """refresh() after place/crash/restore/rescale equals a rebuild."""
        n = data.draw(st.integers(1, 6), label="n_vms")
        caps = data.draw(
            st.lists(capacity_triples, min_size=n, max_size=n), label="caps"
        )
        vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
        reference = ResourceVector(np.array(caps).max(axis=0))
        seed = data.draw(st.integers(0, 2**16), label="seed")
        index = ShardedCandidateIndex(vms)
        assert index.refresh() == 1  # the first sync fills every row
        task_id = 0
        for _ in range(data.draw(st.integers(1, 10), label="n_ops")):
            op = data.draw(
                st.sampled_from(("place", "crash", "restore", "rescale")),
                label="op",
            )
            vm = vms[data.draw(st.integers(0, n - 1), label="vm")]
            if op == "place" and vm.online:
                job = running_job(
                    request=data.draw(demand_triples, label="request"),
                    task_id=task_id,
                )
                task_id += 1
                if job.requested.fits_within(vm.unallocated()):
                    place(vm, job)
            elif op == "crash" and vm.online:
                vm.crash()
            elif op == "restore" and not vm.online:
                vm.restore()
            elif op == "rescale":
                vm.set_capacity_scale(
                    data.draw(st.sampled_from((0.25, 0.5, 1.0)), label="s")
                )
            index.refresh()
            assert index.refresh() == 0  # nothing moved since
            pool = index.cset
            demand = ResourceVector(data.draw(demand_triples, label="demand"))
            _assert_same_choices(pool, _fresh_set(vms), demand, reference, seed)
            for v in vms:
                if v.online:
                    assert pool.availability(v) == ResourceVector(
                        v.unallocated_array()
                    )
                else:
                    assert pool.availability(v) is None

    def test_second_refresh_touches_nothing_when_idle(self):
        vms = [make_vm(vm_id=i) for i in range(6)]
        index = ShardedCandidateIndex(vms)
        assert index.refresh() == 1  # first sync fills every row
        assert index.refresh() == 0  # nothing moved
        place(vms[0], running_job(request=(1, 1, 1)))
        assert index.refresh() == 1  # vm 0's row resynced
        assert index.refresh() == 0


class TestTieWindowScaleInvariance:
    """The 1e-12 tie window is relative, not absolute (the v1.7 fix).

    A lower-id VM whose volume is a hair *above* a higher-id VM's must
    still win the tie at any magnitude: with the old absolute window a
    0.25 gap at volume ~3e12 (well inside float rounding noise at that
    scale) read as a strict win for the higher id, so the same cluster
    described in different units picked different VMs.
    """

    def _two_vm_near_tie(self, magnitude):
        # vm 0's capacity is 0.25/magnitude "larger" in one lane; with
        # reference (1,1,1) its volume is greater by 0.25 at absolute
        # magnitude ~3*magnitude — inside the relative window, far
        # outside an absolute 1e-12 one when magnitude is large.
        caps = [
            (magnitude + 0.25, magnitude, magnitude),
            (magnitude, magnitude, magnitude),
        ]
        vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
        matrix = np.array(caps)
        reference = ResourceVector.of(cpu=1.0, mem=1.0, storage=1.0)
        demand = ResourceVector.of(cpu=1.0, mem=1.0, storage=1.0)
        return vms, matrix, reference, demand

    @pytest.mark.parametrize("magnitude", [1e12, 1e13])
    def test_near_tie_breaks_to_lower_id_at_large_magnitudes(
        self, magnitude
    ):
        vms, matrix, reference, demand = self._two_vm_near_tie(magnitude)
        gap = 0.25
        assert gap > 1e-12  # an absolute window would call this strict
        assert gap < tie_window(3 * magnitude)  # the relative one ties it
        cset = CandidateSet(vms, matrix.copy())
        assert cset.select_most_matched(demand, reference) is vms[0]
        index = ShardedCandidateIndex(vms)
        index.refresh()
        assert index.cset.select_most_matched(demand, reference) is vms[0]
        assert scalar_select_most_matched(
            demand, list(cset), reference
        ) is vms[0]

    def test_same_choice_across_magnitudes(self):
        """Scaling every volume by 1e12 must not change the winner."""
        winners = []
        for magnitude in (3.0, 3e12):
            vms, matrix, reference, demand = self._two_vm_near_tie(magnitude)
            # Keep the *relative* gap constant across magnitudes.
            matrix[0, 0] = magnitude * (1.0 + 1e-13)
            cset = CandidateSet(vms, matrix)
            winners.append(cset.select_most_matched(demand, reference).vm_id)
        assert winners == [0, 0]

    def test_tie_window_values(self):
        assert tie_window(0.0) == 0.0
        assert tie_window(1.0) == pytest.approx(1e-12)
        assert tie_window(-2e12) == pytest.approx(2.0)
        assert tie_window(3e12) == pytest.approx(3.0)

    def test_strict_minimum_still_wins(self):
        # Outside the window the genuinely smaller volume must win even
        # from the higher id.
        caps = [(8.0, 8.0, 8.0), (4.0, 4.0, 4.0)]
        vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
        cset = CandidateSet(vms, np.array(caps))
        reference = ResourceVector.of(cpu=8.0, mem=8.0, storage=8.0)
        demand = ResourceVector.of(cpu=1.0, mem=1.0, storage=1.0)
        assert cset.select_most_matched(demand, reference) is vms[1]

"""Property-based shard invariants (hypothesis).

Three contracts the ISSUE pins down:

* shard-merge equivalence: for **any** contiguous partition of the
  fleet — not just the planner's near-equal one — the reduced fleet
  state is bit-identical to the single-shard state;
* the slab ring never aliases a live view, under arbitrary
  acquire/release schedules;
* ``stream_run`` reproduces ``node_power_matrix`` cell-for-cell for
  arbitrary batch sizes and node subsets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.engine import fleet_reference, run_shard
from repro.shard.plan import ShardPlan, ShardSpec
from repro.shard.reduce import reduce_states
from repro.shard.slab import SlabRing

TINY_NODES = 12
TICKS_PER_BATCH = 16

#: Sorted interior cut points making an arbitrary contiguous partition.
cut_sets = st.sets(
    st.integers(min_value=1, max_value=TINY_NODES - 1), max_size=5
)


def _plan_from_cuts(cuts: set) -> ShardPlan:
    bounds = [0, *sorted(cuts), TINY_NODES]
    n = len(bounds) - 1
    shards = tuple(
        ShardSpec(
            shard_index=i,
            n_shards=n,
            node_lo=bounds[i],
            node_hi=bounds[i + 1],
        )
        for i in range(n)
    )
    return ShardPlan(
        n_nodes=TINY_NODES,
        ticks_per_batch=TICKS_PER_BATCH,
        shards=shards,
    )


@pytest.fixture(scope="module")
def baseline(tiny_run):
    """Reference series plus the single-shard fleet state."""
    ref_w = fleet_reference(tiny_run, ticks_per_batch=TICKS_PER_BATCH)
    plan = _plan_from_cuts(set())
    state = run_shard(
        tiny_run,
        plan.shards[0],
        ticks_per_batch=TICKS_PER_BATCH,
        reference_w=ref_w,
    )
    fleet = reduce_states([state], plan)
    return ref_w, fleet


class TestArbitraryPartitions:
    @settings(max_examples=10, deadline=None)
    @given(cuts=cut_sets)
    def test_any_contiguous_partition_reduces_to_the_same_bits(
        self, tiny_run, baseline, cuts
    ):
        ref_w, reference = baseline
        plan = _plan_from_cuts(cuts)
        states = [
            run_shard(
                tiny_run,
                spec,
                ticks_per_batch=TICKS_PER_BATCH,
                reference_w=ref_w,
            )
            for spec in plan
        ]
        fleet = reduce_states(states, plan)
        assert np.array_equal(
            np.asarray(fleet.node_moments.mean),
            np.asarray(reference.node_moments.mean),
        )
        assert np.array_equal(
            np.asarray(fleet.node_moments.std()),
            np.asarray(reference.node_moments.std()),
        )
        assert np.array_equal(
            fleet.fold.correlation(),
            reference.fold.correlation(),
        )
        assert (
            fleet.fold.monitor.report().to_dict()
            == reference.fold.monitor.report().to_dict()
        )
        assert float(
            np.asarray(fleet.node_moments.pooled().mean)
        ) == float(np.asarray(reference.node_moments.pooled().mean))
        assert fleet.samples_ingested == reference.samples_ingested
        assert fleet.fold.sketch == reference.fold.sketch
        assert fleet.fold.quantiles_w() == reference.fold.quantiles_w()


class TestRingAliasing:
    @settings(max_examples=60)
    @given(program=st.lists(st.booleans(), max_size=40))
    def test_random_schedules_never_alias_a_live_view(self, program):
        """True = acquire, False = release oldest; checked against a
        reference model of the round-robin borrow state."""
        ring = SlabRing(4, 2)
        depth = ring.depth
        held: list = []
        cursor = 0
        for op in program:
            if op:
                next_is_live = any(
                    slot == cursor % depth for slot, _ in held
                )
                if next_is_live:
                    with pytest.raises(RuntimeError):
                        ring.acquire()
                else:
                    slab = ring.acquire()
                    assert all(s is not slab for _, s in held)
                    held.append((cursor % depth, slab))
                    cursor += 1
            elif held:
                _, slab = held.pop(0)
                ring.release(slab)
        assert ring.borrowed == len(held)


class TestStreamRunProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        ticks=st.integers(min_value=1, max_value=37),
        data=st.data(),
    )
    def test_stream_matches_matrix_for_any_batching_and_subset(
        self, tiny_run, ticks, data
    ):
        subset = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=TINY_NODES - 1),
                min_size=1,
                max_size=TINY_NODES,
            )
        )
        idx = np.array(sorted(subset), dtype=np.int64)
        t0_s, t1_s = tiny_run.core_window
        _, ref_watts = tiny_run.node_power_matrix(
            t0_s, t1_s, node_indices=idx
        )
        chunks = [
            batch.watts.copy()
            for batch in tiny_run.stream_run(
                node_indices=idx, ticks_per_batch=ticks
            )
        ]
        assert np.array_equal(np.vstack(chunks), ref_watts)

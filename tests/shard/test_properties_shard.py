"""Property-based shard invariants (hypothesis).

Three contracts the ISSUE pins down:

* shard-merge equivalence: for **any** contiguous partition of the
  fleet — not just the planner's near-equal one — and any merge-tree
  arity, the reduced fleet state is bit-identical to the single-shard
  state;
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
from repro.shard.reduce import concat_tree, reduce_states
from repro.shard.slab import SlabRing

TINY_NODES = 12
TICKS_PER_BATCH = 16

#: Sorted interior cut points making an arbitrary contiguous partition.
cut_sets = st.sets(
    st.integers(min_value=1, max_value=TINY_NODES - 1), max_size=5
)

arities = st.integers(min_value=2, max_value=5)


def _plan_from_cuts(cuts: set) -> ShardPlan:
    bounds = [0, *sorted(cuts), TINY_NODES]
    n = len(bounds) - 1
    shards = tuple(
        ShardSpec(
            shard_index=i,
            n_shards=n,
            node_lo=bounds[i],
            node_hi=bounds[i + 1],
            key=f"cut-{i}-{bounds[i]}-{bounds[i + 1]}",
        )
        for i in range(n)
    )
    return ShardPlan(
        n_nodes=TINY_NODES,
        ticks_per_batch=TICKS_PER_BATCH,
        shards=shards,
        plan_key="cuts",
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
            np.asarray(fleet.fold.covar.correlation()),
            np.asarray(reference.fold.covar.correlation()),
        )
        assert (
            fleet.fold.monitor.report().to_dict()
            == reference.fold.monitor.report().to_dict()
        )
        assert float(
            np.asarray(fleet.fleet_moments().mean)
        ) == float(np.asarray(reference.fleet_moments().mean))
        assert fleet.samples_ingested == reference.samples_ingested
        assert fleet.quantile_merge_approximate == (plan.n_shards > 1)


class TestConcatTree:
    @settings(max_examples=50)
    @given(
        parts=st.lists(
            st.lists(st.integers(), max_size=4), min_size=1, max_size=12
        ),
        arity=arities,
    )
    def test_tree_shape_never_changes_an_ordered_concatenation(
        self, parts, arity
    ):
        flat = [x for part in parts for x in part]

        def combine(chunk):
            return [x for part in chunk for x in part]

        assert concat_tree(parts, combine, arity=arity) == flat

    def test_rejects_empty_parts_and_degenerate_arity(self):
        with pytest.raises(ValueError):
            concat_tree([], lambda c: c)
        with pytest.raises(ValueError):
            concat_tree([[1]], lambda c: c, arity=1)


class TestRingAliasing:
    @settings(max_examples=60)
    @given(
        depth=st.integers(min_value=2, max_value=4),
        program=st.lists(st.booleans(), max_size=40),
    )
    def test_random_schedules_never_alias_a_live_view(
        self, depth, program
    ):
        """True = acquire, False = release oldest; checked against a
        reference model of the round-robin borrow state."""
        ring = SlabRing(4, 2, depth=depth)
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

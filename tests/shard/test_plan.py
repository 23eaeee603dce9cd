"""Shard planning: tiling invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.shard.plan import ShardPlan, ShardSpec, plan_shards


class TestPlanShards:
    def test_near_equal_contiguous_tiling(self):
        plan = plan_shards(10, 3)
        sizes = [spec.n_nodes for spec in plan]
        assert sizes == [4, 3, 3]
        assert plan.n_shards == 3
        assert len(plan) == 3
        lo = 0
        for spec in plan:
            assert spec.node_lo == lo
            lo = spec.node_hi
        assert lo == plan.n_nodes

    def test_single_shard_covers_everything(self):
        plan = plan_shards(7, 1)
        (spec,) = list(plan)
        assert (spec.node_lo, spec.node_hi) == (0, 7)
        np.testing.assert_array_equal(
            spec.node_indices, np.arange(7, dtype=np.int64)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 1)
        with pytest.raises(ValueError):
            plan_shards(4, 5)
        with pytest.raises(ValueError):
            plan_shards(4, 0)
        with pytest.raises(ValueError):
            plan_shards(4, 2, ticks_per_batch=0)


class TestShardPlanValidation:
    def _spec(self, i, n, lo, hi):
        return ShardSpec(shard_index=i, n_shards=n, node_lo=lo, node_hi=hi)

    def test_gap_is_rejected(self):
        with pytest.raises(ValueError, match="tile"):
            ShardPlan(
                n_nodes=8,
                ticks_per_batch=4,
                shards=(self._spec(0, 2, 0, 3), self._spec(1, 2, 4, 8)),
            )

    def test_short_coverage_is_rejected(self):
        with pytest.raises(ValueError, match="fleet has"):
            ShardPlan(
                n_nodes=8,
                ticks_per_batch=4,
                shards=(self._spec(0, 2, 0, 3), self._spec(1, 2, 3, 7)),
            )

    def test_misordered_indices_are_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            ShardPlan(
                n_nodes=8,
                ticks_per_batch=4,
                shards=(self._spec(1, 2, 0, 4), self._spec(0, 2, 4, 8)),
            )

    def test_empty_plan_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardPlan(n_nodes=8, ticks_per_batch=4, shards=())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            self._spec(2, 2, 0, 4)
        with pytest.raises(ValueError):
            self._spec(0, 2, 4, 4)

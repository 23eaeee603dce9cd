"""Sharded hot path: shard planning, one fleet table, exact reduction.

The scale layer of the pipeline.  A fleet too large for one process is
partitioned into contiguous node ranges (:mod:`repro.shard.plan`), each
range streams through the full per-node kernel, interpolating from its
column slice of one fleet power table, and the per-shard
estimator states reassemble by node-order concatenation
(:mod:`repro.shard.reduce`) into fleet statistics that are
**bit-identical for any shard count** (:mod:`repro.shard.engine`).
"""

from repro.shard.engine import (
    RowTable,
    fleet_reference,
    run_shard,
    run_sharded,
    shard_rows,
    sharded_session,
)
from repro.shard.plan import ShardPlan, ShardSpec, plan_shards
from repro.shard.reduce import reduce_states

__all__ = [
    "RowTable",
    "ShardPlan",
    "ShardSpec",
    "fleet_reference",
    "plan_shards",
    "reduce_states",
    "run_shard",
    "run_sharded",
    "shard_rows",
    "sharded_session",
]

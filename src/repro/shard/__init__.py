"""Sharded hot path: slabs, shard planning, exact reduction.

The scale layer of the pipeline.  A fleet too large for one process is
partitioned into contiguous node ranges (:mod:`repro.shard.plan`), each
range streams through the full per-node kernel over preallocated
columnar slabs (:mod:`repro.shard.slab`,
:meth:`~repro.traces.synth.SimulatedRun.stream_run`), and the per-shard
estimator states reassemble by node-order concatenation
(:mod:`repro.shard.reduce`) into fleet statistics that are
**bit-identical for any shard count** (:mod:`repro.shard.engine`).
"""

from repro.shard.engine import (
    ShardSessionResult,
    fleet_reference,
    run_shard,
    run_sharded,
    sharded_session,
)
from repro.shard.plan import ShardPlan, ShardSpec, plan_shards
from repro.shard.reduce import FleetState, ShardState, reduce_states
from repro.shard.slab import Slab, SlabRing

__all__ = [
    "FleetState",
    "ShardPlan",
    "ShardSessionResult",
    "ShardSpec",
    "ShardState",
    "Slab",
    "SlabRing",
    "fleet_reference",
    "plan_shards",
    "reduce_states",
    "run_shard",
    "run_sharded",
    "sharded_session",
]

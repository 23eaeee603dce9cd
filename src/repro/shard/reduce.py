"""Exact reduction of per-shard estimator state to fleet state.

A shard's per-node state is *column-independent*: a node's shifted
running sums, its covariance cross sum, an excursion counter — each
depends only on its own node's sample stream.  Under a contiguous node
partition, a shard therefore holds exactly the column slice of the
state a full-fleet run would hold, and the fleet state is the
node-ordered **concatenation** of the shard states.  Concatenation involves no floating-point
combination at all, so the reduction is exact to the bit and
independent of the shard count — the property the hypothesis suite
drives with random partitions.

Fleet *scalars* (pooled mean/σ, correlations, Eq. 1–5 stopping) are
derived **after** the concatenation, from the full per-node vectors,
by the same deterministic expressions regardless of shard count —
which is how ``sharded(k) == sharded(1)`` holds bitwise for every
``k``.  The serial ``stream_session`` pools its fleet scalar from its
per-node moments the same way, so it matches bitwise too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.shard.plan import ShardPlan, ShardSpec
from repro.stream.estimators import RunningMoments
from repro.stream.session import FleetFold

__all__ = ["ShardState", "FleetState", "reduce_states"]


@dataclass
class ShardState:
    """Everything one shard worker learned about its node range.

    Picklable — the unit a worker process returns.  ``fold`` was fed
    the *global* fleet reference series, so its monitor and covariance
    state is the exact column slice of a full-fleet fold's.
    """

    spec: ShardSpec
    fold: FleetFold

    @property
    def samples_ingested(self) -> int:
        """Samples the shard's fold took in."""
        return self.fold.monitor.samples_seen


@dataclass
class FleetState:
    """The merged fleet view, ready for report rendering."""

    fold: FleetFold

    @property
    def samples_ingested(self) -> int:
        """Samples the merged fold took in."""
        return self.fold.monitor.samples_seen

    @property
    def node_moments(self) -> RunningMoments:
        """Per-node moments of the merged fleet, in node order."""
        return self.fold.monitor.node_moments


def reduce_states(states: list[ShardState], plan: ShardPlan) -> FleetState:
    """Merge per-shard states into the fleet state (exact).

    Validates that the states tile the plan exactly — every planned
    shard present once — then concatenates the folds
    (:meth:`FleetFold.concat`) in node order.
    """
    if len(states) != plan.n_shards:
        raise ValueError(
            f"got {len(states)} shard states for a {plan.n_shards}-shard "
            "plan"
        )
    ordered = sorted(states, key=lambda s: s.spec.node_lo)
    for state, spec in zip(ordered, plan):
        if state.spec != spec:
            raise ValueError(
                f"shard state {state.spec.shard_index} does not match "
                f"the plan's shard {spec.shard_index}: ranges disagree"
            )
    return FleetState(fold=FleetFold.concat([s.fold for s in ordered]))

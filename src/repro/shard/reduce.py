"""Exact reduction of per-shard estimator state to fleet state.

The pipeline's per-node state is *column-independent*: a Welford
component, a masked-moment column, a recovery column, an excursion
counter — each depends only on its own node's sample stream.  Under a
contiguous node partition, a shard therefore holds exactly the column
slice of the state a full-fleet run would hold, and the fleet state is
the node-ordered **concatenation** of the shard states.  Concatenation
is associative and involves no floating-point combination at all, so
the reduction is exact to the bit and independent of both the shard
count and the shape of the merge tree — the property the hypothesis
suite drives with random partitions and random tree arities.

Fleet *scalars* (pooled mean/σ, correlations, Eq. 1–5 stopping) are
derived **after** the concatenation, from the full per-node vectors,
by the same deterministic expressions regardless of shard count —
which is how ``sharded(k) == sharded(1)`` holds bitwise for every
``k`` (see :mod:`docs/sharding.md` for the contract's fine print on
the serial ``stream_session`` fleet scalar, whose sample *order*
differs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.recovery import RecoveryState
from repro.shard.plan import ShardPlan, ShardSpec
from repro.stream.estimators import RunningMoments
from repro.stream.session import FleetFold

__all__ = ["ShardState", "FleetState", "concat_tree", "reduce_states"]


def concat_tree(parts: list, combine, *, arity: int = 2):
    """Reduce ``parts`` through a merge tree of the given arity.

    ``combine`` maps a list of adjacent parts to one part (e.g.
    :meth:`RunningMoments.concat`).  Because the shard reductions are
    pure ordered concatenations, the tree shape cannot change the
    result — a flat ``combine(parts)`` and any tree are bit-identical —
    but reducing as a tree keeps peak intermediate sizes logarithmic
    when thousands of shards stream their states in.
    """
    if not parts:
        raise ValueError("concat_tree needs at least one part")
    if arity < 2:
        raise ValueError("arity must be >= 2")
    level = list(parts)
    while len(level) > 1:
        level = [
            level[i] if len(level[i : i + arity]) == 1
            else combine(level[i : i + arity])
            for i in range(0, len(level), arity)
        ]
    return level[0]


@dataclass
class ShardState:
    """Everything one shard worker learned about its node range.

    Picklable — the unit a worker process returns.  ``fold`` was fed
    the *global* fleet reference series, so its monitor and covariance
    state is the exact column slice of a full-fleet fold's.
    """

    spec: ShardSpec
    fold: FleetFold
    recovery: RecoveryState
    samples_ingested: int


@dataclass
class FleetState:
    """The merged fleet view, ready for report rendering.

    ``quantile_merge_approximate`` is True when more than one shard's
    P² summaries were merged — the one non-exact reduction, which the
    session layer must surface as a provenance note
    (:data:`~repro.stream.estimators.P2Quantile.MERGE_CAVEAT`).
    """

    plan: ShardPlan
    fold: FleetFold
    recovery: RecoveryState
    samples_ingested: int
    quantile_merge_approximate: bool

    @property
    def node_moments(self) -> RunningMoments:
        """Per-node moments of the merged fleet, in node order."""
        return self.fold.monitor.node_moments

    def fleet_moments(self) -> RunningMoments:
        """Pooled scalar moments over every node's every sample.

        Derived deterministically from the concatenated per-node
        vector, so it is identical for any shard count.
        """
        return self.node_moments.pooled()


def reduce_states(states: list[ShardState], plan: ShardPlan) -> FleetState:
    """Merge per-shard states into the fleet state (exact).

    Validates that the states tile the plan exactly — every planned
    shard present once, keys matching — then concatenates the folds in
    node order (:meth:`FleetFold.concat`; its P² merge is approximate
    and flagged) and the recovery state through :func:`concat_tree`.
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
                f"the plan's shard {spec.shard_index}: keys or ranges "
                "disagree"
            )
    return FleetState(
        plan=plan,
        fold=FleetFold.concat([s.fold for s in ordered]),
        recovery=concat_tree(
            [s.recovery for s in ordered], RecoveryState.concat
        ),
        samples_ingested=sum(s.samples_ingested for s in ordered),
        quantile_merge_approximate=len(ordered) > 1,
    )

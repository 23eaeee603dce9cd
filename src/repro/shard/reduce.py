"""Exact reduction of per-shard estimator state to fleet state.

A shard's per-node state is *column-independent*: a node's shifted
running sums, its covariance cross sum, an excursion counter — each
depends only on its own node's sample stream.  Under a contiguous node
partition, a shard's :class:`~repro.stream.monitor.ComplianceMonitor`
therefore holds exactly the column slice of the state a full-fleet run
would hold, and the fleet monitor is the node-ordered
**concatenation** of the shard monitors.  Concatenation involves no
floating-point combination at all, so the reduction is exact to the
bit and
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

import numpy as np

from repro.shard.plan import ShardPlan
from repro.stream.monitor import ComplianceMonitor

__all__ = ["reduce_states"]


def reduce_states(
    folds: list[ComplianceMonitor], plan: ShardPlan
) -> ComplianceMonitor:
    """Merge per-shard folds into the fleet fold (exact).

    Each fold is a :func:`~repro.shard.engine.run_shard` result, which
    was fed the *global* fleet reference series, so its state is the
    exact column slice of a full-fleet fold's.  The folds may arrive in
    any order, but must tile the plan exactly: one per planned shard,
    each over that shard's node range.  They are then concatenated in
    node order (:meth:`ComplianceMonitor.merge_shards`).
    """
    if len(folds) != plan.n_shards:
        raise ValueError(
            f"got {len(folds)} shard folds for a {plan.n_shards}-shard plan"
        )

    def first_node(fold: ComplianceMonitor) -> list[int]:
        return [] if fold._node_ids is None else fold._node_ids[:1].tolist()

    ordered = sorted(folds, key=first_node)
    for fold, spec in zip(ordered, plan):
        if fold._node_ids is None or not np.array_equal(
            fold._node_ids, spec.node_indices
        ):
            raise ValueError(
                f"no fold covers exactly the nodes [{spec.node_lo}, "
                f"{spec.node_hi}) of the plan's shard {spec.shard_index}"
            )
    return ComplianceMonitor.merge_shards(ordered)

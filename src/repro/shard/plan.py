"""Shard planning: partition a fleet into contiguous node ranges.

:func:`plan_shards` splits ``n_nodes`` into ``n_shards`` contiguous,
near-equal ranges — the partition under which every per-node estimator
in the pipeline is column-independent, so shard results reassemble
bit-identically (see :mod:`repro.shard.reduce`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ShardSpec", "ShardPlan", "plan_shards"]


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a contiguous node range."""

    shard_index: int
    n_shards: int
    node_lo: int
    node_hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.shard_index < self.n_shards):
            raise ValueError("shard_index must be in [0, n_shards)")
        if not (0 <= self.node_lo < self.node_hi):
            raise ValueError("need 0 <= node_lo < node_hi")

    @property
    def n_nodes(self) -> int:
        """Nodes covered by this shard."""
        return self.node_hi - self.node_lo

    @property
    def node_indices(self) -> np.ndarray:
        """The shard's node ids, ``[node_lo, node_hi)``."""
        return np.arange(self.node_lo, self.node_hi, dtype=np.int64)


@dataclass(frozen=True)
class ShardPlan:
    """A full fleet partition: ordered, contiguous, gap-free shards."""

    n_nodes: int
    ticks_per_batch: int
    shards: tuple[ShardSpec, ...]

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a plan needs at least one shard")
        expected_lo = 0
        for i, spec in enumerate(self.shards):
            if spec.shard_index != i:
                raise ValueError("shards must be ordered by index")
            if spec.node_lo != expected_lo:
                raise ValueError(
                    f"shard {i} starts at node {spec.node_lo}, expected "
                    f"{expected_lo}: shards must tile the fleet"
                )
            expected_lo = spec.node_hi
        if expected_lo != self.n_nodes:
            raise ValueError(
                f"shards cover [0, {expected_lo}) but the fleet has "
                f"{self.n_nodes} nodes"
            )

    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)

    def __iter__(self):
        """Iterate the shards in index order."""
        return iter(self.shards)

    def __len__(self) -> int:
        return len(self.shards)


def plan_shards(
    n_nodes: int,
    n_shards: int,
    *,
    ticks_per_batch: int = 60,
) -> ShardPlan:
    """Partition ``n_nodes`` into ``n_shards`` contiguous ranges.

    Ranges are near-equal: the first ``n_nodes % n_shards`` shards get
    one extra node (``np.array_split`` semantics).
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if not (1 <= n_shards <= n_nodes):
        raise ValueError(
            f"n_shards must be in [1, n_nodes={n_nodes}], got {n_shards}"
        )
    if ticks_per_batch < 1:
        raise ValueError("ticks_per_batch must be >= 1")
    base, extra = divmod(n_nodes, n_shards)
    shards = []
    lo = 0
    for i in range(n_shards):
        hi = lo + base + (1 if i < extra else 0)
        shards.append(
            ShardSpec(
                shard_index=i, n_shards=n_shards, node_lo=lo, node_hi=hi
            )
        )
        lo = hi
    return ShardPlan(
        n_nodes=n_nodes,
        ticks_per_batch=ticks_per_batch,
        shards=tuple(shards),
    )

"""Preallocated columnar slab storage for the shard hot path.

A :class:`Slab` is one preallocated struct-of-arrays block — a
``times`` column, a C-contiguous ``(capacity_ticks, n_nodes)`` float64
``watts`` matrix, and an integer ``node_ids`` column — sized once and
reused for every batch a producer emits, so the hot path performs no
per-batch allocation.  :class:`SlabRing` double-buffers two slabs with
explicit acquire/release borrow tracking: cycling onto a slab that is
still borrowed raises instead of silently aliasing a live view, which
is the property the ring's hypothesis suite locks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Slab", "SlabRing"]


class Slab:
    """One preallocated columnar block of batch storage.

    ``capacity_ticks`` is the most rows a batch written into the slab
    may have; ``n_nodes`` is its fixed column count (the shard's node
    range width).
    """

    __slots__ = ("times", "watts", "node_ids")

    def __init__(self, capacity_ticks: int, n_nodes: int) -> None:
        if capacity_ticks < 1:
            raise ValueError("capacity_ticks must be >= 1")
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.times = np.zeros(capacity_ticks)
        self.watts = np.zeros((capacity_ticks, n_nodes))
        self.node_ids = np.zeros(n_nodes, dtype=np.int64)


class SlabRing:
    """Two slabs handed out in turn, with aliasing-safe borrow tracking.

    :meth:`acquire` hands the slabs out round-robin and :meth:`release`
    returns them.  Acquiring a slab that has not been released raises —
    the producer is about to overwrite rows a consumer may still be
    reading through a zero-copy view, and that must be an error, never
    silent corruption.  The property suite drives random
    acquire/release schedules against this invariant.
    """

    depth = 2

    def __init__(self, capacity_ticks: int, n_nodes: int) -> None:
        self._slabs = [
            Slab(capacity_ticks, n_nodes) for _ in range(self.depth)
        ]
        self._borrowed = [False] * self.depth
        self._next = 0

    @property
    def borrowed(self) -> int:
        """Slabs currently on loan."""
        return sum(self._borrowed)

    def acquire(self) -> Slab:
        """Borrow the next slab in the cycle.

        Raises :class:`RuntimeError` when the cycle comes back around
        to a slab that was never released — the caller is holding more
        live views than the ring has slabs.
        """
        i = self._next
        if self._borrowed[i]:
            raise RuntimeError(
                f"slab {i} is still borrowed; a ring of depth "
                f"{self.depth} cannot hand out another view without "
                "aliasing one still live — release it first"
            )
        self._borrowed[i] = True
        self._next = (i + 1) % self.depth
        return self._slabs[i]

    def release(self, slab: Slab) -> None:
        """Return a borrowed slab to the ring."""
        for i, candidate in enumerate(self._slabs):
            if candidate is slab:
                if not self._borrowed[i]:
                    raise RuntimeError(f"slab {i} was not borrowed")
                self._borrowed[i] = False
                return
        raise ValueError("slab does not belong to this ring")

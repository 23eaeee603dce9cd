"""Slab storage: layout and the ring's borrow discipline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.shard.slab import Slab, SlabRing


class TestSlab:
    def test_validates_dimensions(self):
        with pytest.raises(ValueError):
            Slab(0, 4)
        with pytest.raises(ValueError):
            Slab(4, 0)

    def test_columns_are_c_contiguous_float64(self):
        slab = Slab(8, 3)
        assert slab.times.dtype == np.float64
        assert slab.watts.dtype == np.float64
        assert slab.watts.flags["C_CONTIGUOUS"]
        assert slab.watts.shape == (8, 3)
        assert slab.node_ids.dtype == np.int64
        assert slab.times.shape == (8,)
        assert slab.node_ids.shape == (3,)


class TestSlabRing:
    def test_round_robin_borrow_and_release(self):
        ring = SlabRing(4, 2)
        a = ring.acquire()
        ring.release(a)
        b = ring.acquire()
        assert b is not a
        ring.release(b)
        c = ring.acquire()
        assert c is a

    def test_acquiring_a_borrowed_slab_raises(self):
        ring = SlabRing(4, 2)
        ring.acquire()
        ring.acquire()
        assert ring.borrowed == 2
        with pytest.raises(RuntimeError, match="still borrowed"):
            ring.acquire()

    def test_release_of_foreign_slab_raises(self):
        ring = SlabRing(4, 2)
        with pytest.raises(ValueError):
            ring.release(Slab(4, 2))

    def test_double_release_raises(self):
        ring = SlabRing(4, 2)
        slab = ring.acquire()
        ring.release(slab)
        with pytest.raises(RuntimeError, match="not borrowed"):
            ring.release(slab)

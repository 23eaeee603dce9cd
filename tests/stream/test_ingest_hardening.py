"""SampleBatch construction: normalise what does not conform, wrap
what does."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stream.ingest import SampleBatch


class TestNormalisingConstructor:
    def test_coerces_to_c_contiguous_float64(self):
        strided = np.asfortranarray(
            np.arange(12, dtype=np.float32).reshape(3, 4)
        )
        batch = SampleBatch(
            times=[0.0, 1.0, 2.0],
            watts=strided,
            node_ids=np.arange(4),
        )
        assert batch.watts.dtype == np.float64
        assert batch.watts.flags["C_CONTIGUOUS"]
        assert batch.times.dtype == np.float64
        np.testing.assert_array_equal(batch.watts, strided)

    def test_conforming_arrays_are_not_copied(self):
        watts = np.zeros((3, 4))
        times = np.zeros(3)
        node_ids = np.arange(4)
        batch = SampleBatch(times=times, watts=watts, node_ids=node_ids)
        assert batch.watts is watts
        assert batch.times is times
        assert batch.node_ids is node_ids

    def test_shape_mismatches_raise(self):
        with pytest.raises(ValueError, match="2-D"):
            SampleBatch(
                times=np.zeros(3),
                watts=np.zeros(12),
                node_ids=np.arange(4),
            )
        with pytest.raises(ValueError, match="times length"):
            SampleBatch(
                times=np.zeros(2),
                watts=np.zeros((3, 4)),
                node_ids=np.arange(4),
            )
        with pytest.raises(ValueError, match="node_ids length"):
            SampleBatch(
                times=np.zeros(3),
                watts=np.zeros((3, 4)),
                node_ids=np.arange(5),
            )

    def test_float_node_ids_raise(self):
        with pytest.raises(ValueError, match="integers"):
            SampleBatch(
                times=np.zeros(3),
                watts=np.zeros((3, 4)),
                node_ids=np.arange(4.0),
            )


class TestFromColumns:
    """Wrapping columns of a larger block without a copy, which the
    constructor now does for any conforming view."""

    def test_zero_copy_on_conforming_views(self):
        # A row slice of a larger block is C-contiguous: kept as a view.
        clock = np.zeros(8)
        block = np.zeros((8, 4))
        batch = SampleBatch(
            times=clock[:3], watts=block[:3], node_ids=np.arange(4)
        )
        assert np.shares_memory(batch.watts, block)
        assert np.shares_memory(batch.times, clock)
        block[1, 2] = 5.0
        assert batch.watts[1, 2] == 5.0

"""Property-based shard invariants (hypothesis).

``stream_run`` reproduces ``node_power_matrix`` cell-for-cell for
arbitrary batch sizes and node subsets.

Shard-merge equivalence over any contiguous partition is part of the
route-equivalence property in ``tests/test_route_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

TINY_NODES = 12


class TestStreamRunProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        ticks=st.integers(min_value=1, max_value=37),
        data=st.data(),
    )
    def test_stream_matches_matrix_for_any_batching_and_subset(
        self, tiny_run, ticks, data
    ):
        subset = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=TINY_NODES - 1),
                min_size=1,
                max_size=TINY_NODES,
            )
        )
        idx = np.array(sorted(subset), dtype=np.int64)
        t0_s, t1_s = tiny_run.core_window
        _, ref_watts = tiny_run.node_power_matrix(
            t0_s, t1_s, node_indices=idx
        )
        chunks = [
            batch.watts.copy()
            for batch in tiny_run.stream_run(
                node_indices=idx, ticks_per_batch=ticks
            )
        ]
        assert np.array_equal(np.vstack(chunks), ref_watts)

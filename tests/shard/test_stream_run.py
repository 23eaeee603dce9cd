"""`stream_run` must reproduce `node_power_matrix` cell-for-cell."""

from __future__ import annotations

import numpy as np
import pytest


def _collect(run, **kwargs):
    """Materialise a stream back into (times, watts) for comparison."""
    times, watts = [], []
    for batch in run.stream_run(**kwargs):
        times.append(batch.times.copy())
        watts.append(batch.watts.copy())
    return np.concatenate(times), np.vstack(watts)


class TestStreamRunEquality:
    def test_core_window_matches_serial_matrix(self, small_run):
        t0_s, t1_s = small_run.core_window
        ref_times, ref_watts = small_run.node_power_matrix(t0_s, t1_s)
        times, watts = _collect(small_run, ticks_per_batch=60)
        np.testing.assert_array_equal(times, ref_times)
        assert np.array_equal(watts, ref_watts)

    def test_full_run_matches_serial_matrix(self, small_run):
        ref_times, ref_watts = small_run.node_power_matrix()
        times, watts = _collect(
            small_run, ticks_per_batch=97, core_only=False
        )
        np.testing.assert_array_equal(times, ref_times)
        assert np.array_equal(watts, ref_watts)

    def test_node_subset_matches_serial_matrix(self, small_run):
        idx = np.array([1, 5, 30], dtype=np.int64)
        t0_s, t1_s = small_run.core_window
        _, ref_watts = small_run.node_power_matrix(
            t0_s, t1_s, node_indices=idx
        )
        _, watts = _collect(
            small_run, node_indices=idx, ticks_per_batch=13
        )
        assert np.array_equal(watts, ref_watts)

    def test_batch_size_never_changes_the_cells(self, small_run):
        _, ref_watts = _collect(small_run, ticks_per_batch=1_000_000)
        for ticks in (1, 7, 60, 901):
            _, watts = _collect(small_run, ticks_per_batch=ticks)
            assert np.array_equal(watts, ref_watts)

    def test_batches_carry_fleet_node_ids(self, small_run):
        idx = np.array([4, 9], dtype=np.int64)
        batch = next(
            small_run.stream_run(node_indices=idx, ticks_per_batch=8)
        )
        np.testing.assert_array_equal(batch.node_ids, idx)
        assert batch.n_ticks == 8


class TestStreamRunBatches:
    def test_each_batch_owns_fresh_readings(self, small_run):
        batches = list(small_run.stream_run(ticks_per_batch=64))
        for k, batch in enumerate(batches):
            assert batch.watts.flags["OWNDATA"]
            for other in batches[k + 1:]:
                assert not np.shares_memory(batch.watts, other.watts)

    def test_kept_batches_equal_their_matrix_slices(self, small_run):
        # Every batch stays valid after the stream has moved past it.
        t0_s, t1_s = small_run.core_window
        ref_times, ref_watts = small_run.node_power_matrix(t0_s, t1_s)
        batches = list(small_run.stream_run(ticks_per_batch=32))
        assert sum(b.n_ticks for b in batches) == ref_times.size
        for k, batch in enumerate(batches):
            lo = 32 * k
            hi = lo + batch.n_ticks
            np.testing.assert_array_equal(batch.times, ref_times[lo:hi])
            assert np.array_equal(batch.watts, ref_watts[lo:hi])


class TestStreamRunValidation:
    def test_bad_ticks_per_batch(self, small_run):
        with pytest.raises(ValueError):
            next(small_run.stream_run(ticks_per_batch=0))

    def test_bad_node_subsets(self, small_run):
        with pytest.raises(ValueError):
            next(small_run.stream_run(node_indices=np.array([], int)))
        with pytest.raises(ValueError):
            next(small_run.stream_run(node_indices=np.array([99], int)))
        with pytest.raises(ValueError):
            next(small_run.stream_run(node_indices=np.array([1, 1], int)))

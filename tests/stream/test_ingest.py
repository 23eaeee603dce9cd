"""Tests for repro.stream.ingest."""

import numpy as np
import pytest

from repro.stream.ingest import (
    BoundedQueue,
    IngestLoop,
    SampleBatch,
    SimClock,
    replay_run,
    replay_traces,
)
from repro.traces.powertrace import PowerTrace


def _batch(t0: float, n_ticks: int = 4, n_nodes: int = 3) -> SampleBatch:
    times = t0 + np.arange(n_ticks, dtype=float)
    watts = np.full((n_ticks, n_nodes), 100.0)
    return SampleBatch(
        times=times, watts=watts, node_ids=np.arange(n_nodes)
    )


class TestSimClock:
    def test_advances_deterministically(self):
        clock = SimClock(2.0, start_s=10.0)
        assert clock.now_s == pytest.approx(10.0)
        clock.advance(3)
        assert clock.now_s == pytest.approx(16.0)
        assert clock.tick == 3

    def test_rejects_backwards(self):
        clock = SimClock(1.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance(-1)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="positive"):
            SimClock(0.0)


class TestSampleBatch:
    def test_properties(self):
        b = _batch(100.0, n_ticks=5, n_nodes=2)
        assert b.n_ticks == 5
        assert b.n_nodes == 2
        assert b.n_samples == 10
        assert b.t0_s == pytest.approx(100.0)
        assert b.t1_s == pytest.approx(104.0)
        np.testing.assert_allclose(b.fleet_means(), 100.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            SampleBatch(
                times=np.zeros(3),
                watts=np.zeros(3),
                node_ids=np.zeros(1, dtype=np.int64),
            )
        with pytest.raises(ValueError, match="node_ids"):
            SampleBatch(
                times=np.zeros(3),
                watts=np.zeros((3, 2)),
                node_ids=np.zeros(5, dtype=np.int64),
            )


class TestBoundedQueue:
    def test_refuses_when_full(self):
        q = BoundedQueue(2)
        assert q.put(1)
        assert q.put(2)
        assert q.full
        assert not q.put(3)
        assert q.get() == 1
        assert q.put(3)
        assert q.total_accepted == 3
        assert q.high_watermark == 2

    def test_get_empty_raises(self):
        with pytest.raises(IndexError, match="empty"):
            BoundedQueue(1).get()

    def test_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedQueue(0)


class TestIngestLoop:
    def test_consumes_everything_in_order(self):
        batches = [_batch(10.0 * i) for i in range(20)]
        seen = []
        loop = IngestLoop(iter(batches), seen.append, queue_capacity=3)
        loop.run()
        assert [b.t0_s for b in seen] == [b.t0_s for b in batches]
        assert loop.batches_ingested == 20
        assert loop.samples_ingested == sum(b.n_samples for b in batches)

    def test_backpressure_stalls_counted(self):
        # Offer one, fold one: even a capacity-1 queue never fills.
        batches = [_batch(10.0 * i) for i in range(5)]
        loop = IngestLoop(
            iter(batches), lambda b: None, queue_capacity=1
        )
        loop.run()
        assert loop.batches_ingested == 5
        assert loop.stalls == 0
        assert loop.queue.high_watermark == 1

    def test_slow_consumer_drain(self):
        # Nothing is lost or left queued whatever the capacity.
        batches = [_batch(10.0 * i) for i in range(7)]
        seen = []
        loop = IngestLoop(iter(batches), seen.append, queue_capacity=2)
        loop.run()
        assert len(seen) == 7
        assert len(loop.queue) == 0


class TestReplayRun:
    def test_batches_tile_the_core_phase(self, small_run, core_matrix):
        times, watts = core_matrix
        got_t, got_w = [], []
        for batch in replay_run(small_run, ticks_per_batch=64):
            assert batch.n_nodes == small_run.system.n_nodes
            got_t.append(batch.times)
            got_w.append(batch.watts)
        np.testing.assert_allclose(np.concatenate(got_t), times)
        np.testing.assert_allclose(np.vstack(got_w), watts)

    def test_subset_replay(self, small_run):
        idx = np.array([0, 5, 9])
        batches = list(
            replay_run(small_run, node_indices=idx, ticks_per_batch=128)
        )
        assert all(b.n_nodes == 3 for b in batches)
        np.testing.assert_array_equal(batches[0].node_ids, idx)

    def test_full_run_covers_setup_and_teardown(self, small_run):
        core = sum(
            b.n_ticks for b in replay_run(small_run, ticks_per_batch=256)
        )
        full = sum(
            b.n_ticks
            for b in replay_run(
                small_run, ticks_per_batch=256, core_only=False
            )
        )
        assert full > core

    def test_bad_ticks_per_batch(self, small_run):
        with pytest.raises(ValueError, match="ticks_per_batch"):
            next(replay_run(small_run, ticks_per_batch=0))


class TestReplayTraces:
    def test_stacks_aligned_traces(self):
        a = PowerTrace.constant(100.0, 10.0)
        b = PowerTrace.constant(200.0, 10.0)
        batches = list(replay_traces([a, b], ticks_per_batch=4))
        total = sum(bt.n_ticks for bt in batches)
        assert total == len(a)
        np.testing.assert_allclose(batches[0].watts[:, 0], 100.0)
        np.testing.assert_allclose(batches[0].watts[:, 1], 200.0)

    def test_misaligned_rejected(self):
        a = PowerTrace.constant(100.0, 10.0)
        b = PowerTrace.constant(100.0, 12.0)
        with pytest.raises(ValueError, match="align"):
            next(replay_traces([a, b]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            next(replay_traces([]))

    def test_node_ids_length_checked(self):
        a = PowerTrace.constant(100.0, 10.0)
        with pytest.raises(ValueError, match="node_ids"):
            next(replay_traces([a], node_ids=np.array([1, 2])))

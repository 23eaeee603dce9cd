"""Property-based edge-case tests for the backpressure primitives.

The fault layer leans on :class:`BoundedQueue` (the retry loop's
buffer) and the ring buffers (the monitor's rolling window) staying
correct in exactly the regimes faults push them into: capacity 1,
overflow under sustained backpressure, and draining after the source
is exhausted.  These hypothesis properties pin that behaviour against
straightforward reference models.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.ingest import BoundedQueue, IngestLoop, SampleBatch
from repro.stream.ring import RingBuffer, TimeRing

#: A random put/get program: True = put the next integer, False = get.
op_programs = st.lists(st.booleans(), min_size=1, max_size=200)

capacities = st.integers(min_value=1, max_value=8)


def _batch(tick0: int, node_values) -> SampleBatch:
    values = np.asarray(node_values, dtype=float)
    return SampleBatch(
        times=np.array([float(tick0)]),
        watts=values.reshape(1, -1),
        node_ids=np.arange(values.size, dtype=np.int64),
    )


class TestBoundedQueueModel:
    @given(capacities, op_programs)
    def test_matches_reference_fifo(self, capacity, program):
        """The queue behaves as a capacity-capped FIFO, exactly."""
        queue = BoundedQueue(capacity)
        model: list[int] = []
        accepted = 0
        high = 0
        next_item = 0
        for do_put in program:
            if do_put:
                ok = queue.put(next_item)
                assert ok == (len(model) < capacity)
                assert ok != queue.full or capacity == len(model) + 1
                if ok:
                    model.append(next_item)
                    accepted += 1
                    high = max(high, len(model))
                next_item += 1
            elif model:
                assert queue.get() == model.pop(0)
            else:
                try:
                    queue.get()
                    raise AssertionError("get on empty must raise")
                except IndexError:
                    pass
            assert len(queue) == len(model)
            assert queue.full == (len(model) >= capacity)
        assert queue.total_accepted == accepted
        assert queue.high_watermark == high

    def test_capacity_one_alternation(self):
        """Capacity 1: every put is refused until the slot drains."""
        queue = BoundedQueue(1)
        assert queue.put("a")
        assert not queue.put("b")  # overflow refused, not dropped
        assert not queue.put("b")  # refusal is stable
        assert queue.get() == "a"
        assert queue.put("b")
        assert queue.get() == "b"
        assert queue.total_accepted == 2
        assert queue.high_watermark == 1


class TestIngestLoopBackpressure:
    @given(st.integers(min_value=1, max_value=30), capacities)
    @settings(max_examples=40, deadline=None)
    def test_no_batch_lost_under_any_capacity(self, n_batches, capacity):
        """Every batch arrives, in order, for any queue sizing, and the
        offer-one/fold-one schedule never fills the queue."""
        source = [_batch(i, [float(i)]) for i in range(n_batches)]
        seen: list[float] = []
        loop = IngestLoop(
            iter(source),
            lambda b: seen.append(float(b.watts[0, 0])),
            queue_capacity=capacity,
        )
        loop.run()
        assert seen == [float(i) for i in range(n_batches)]
        assert loop.batches_ingested == n_batches
        assert len(loop.queue) == 0
        assert loop.stalls == 0


class TestRingBufferModel:
    @given(
        capacities,
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=0,
            max_size=64,
        ),
        st.data(),
    )
    def test_any_chunking_keeps_the_tail(self, capacity, samples, data):
        """values() is always the last ``capacity`` samples, in order,
        regardless of how pushes were chunked."""
        ring = RingBuffer(capacity)
        i = 0
        while i < len(samples):
            step = data.draw(
                st.integers(min_value=1, max_value=len(samples) - i),
                label="chunk",
            )
            chunk = samples[i: i + step]
            if len(chunk) == 1 and data.draw(st.booleans(), label="scalar"):
                ring.push(chunk[0])
            else:
                ring.push_batch(chunk)
            i += step
        expect = samples[-capacity:]
        assert ring.values().tolist() == expect
        assert len(ring) == len(expect)
        assert ring.full == (len(samples) >= capacity)
        if expect:
            # Summation order differs from np.mean; value must not.
            assert np.isclose(ring.mean(), np.mean(expect), rtol=1e-12)

    def test_drain_after_exhaustion_capacity_one(self):
        """A capacity-1 ring is 'last value wins' and stays usable."""
        ring = RingBuffer(1)
        ring.push_batch([1.0, 2.0, 3.0])
        assert ring.values().tolist() == [3.0]
        ring.push(4.0)
        assert ring.values().tolist() == [4.0]
        assert ring.mean() == 4.0


class TestTimeRingModel:
    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=-100.0, max_value=100.0),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_horizon_and_capacity_bounds(self, horizon_s, steps):
        """Retained samples are in-horizon (modulo the always-keep-one
        rule), ordered, and never exceed capacity."""
        ring = TimeRing(horizon_s, capacity=8)
        t = 0.0
        kept_model: list[tuple[float, float]] = []
        for dt, value in steps:
            t += dt
            ring.push(t, value)
            kept_model.append((t, value))
            kept_model = [
                (ts, v)
                for ts, v in kept_model
                if ts >= t - horizon_s - 1e-12
            ][-8:]
            if not kept_model:  # the ring always keeps the newest
                kept_model = [(t, value)]
            assert len(ring) == len(kept_model)
            assert ring.times().tolist() == [ts for ts, _ in kept_model]
            assert ring.values().tolist() == [v for _, v in kept_model]
            assert ring.span_s() <= horizon_s + 1e-9 or len(ring) == 1

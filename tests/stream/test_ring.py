"""Tests for repro.stream.ring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.ring import TimeRing


class TestTimeRing:
    def test_evicts_beyond_horizon(self):
        ring = TimeRing(10.0)
        for t in range(25):
            ring.push(float(t), float(t) * 2.0)
        times = ring.times()
        assert times.min() >= 24.0 - 10.0
        assert times.max() == pytest.approx(24.0)

    def test_mean_over_window(self):
        ring = TimeRing(5.0)
        for t in range(10):
            ring.push(float(t), 100.0)
        assert ring.mean() == pytest.approx(100.0)

    def test_span(self):
        ring = TimeRing(60.0)
        ring.push(0.0, 1.0)
        ring.push(12.0, 1.0)
        assert ring.span_s() == pytest.approx(12.0)

    def test_rejects_time_reversal(self):
        ring = TimeRing(10.0)
        ring.push(5.0, 1.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            ring.push(4.0, 1.0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            TimeRing(0.0)


def _ring_bits(ring: TimeRing) -> tuple:
    return (
        ring._head, ring._size, ring._times.tobytes(), ring._values.tobytes()
    )


class TestTimeRingPushBatch:
    @settings(max_examples=80, deadline=None)
    @given(
        steps=st.lists(
            st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0, 17.0]), min_size=1,
            max_size=80,
        ),
        cuts=st.lists(st.integers(0, 80), max_size=8),
        capacity=st.integers(1, 12),
    )
    def test_equals_a_push_loop(self, steps, cuts, capacity):
        times = np.cumsum(steps)
        values = np.sqrt(times + 1.0)
        loop, batched = TimeRing(10.0, capacity), TimeRing(10.0, capacity)
        for t, v in zip(times, values):
            loop.push(t, v)
        bounds = sorted({0, times.size, *(c % (times.size + 1) for c in cuts)})
        for lo, hi in zip(bounds, bounds[1:]):
            batched.push_batch(times[lo:hi], values[lo:hi])
        assert _ring_bits(batched) == _ring_bits(loop)

    def test_time_reversal_rejected_like_push(self):
        ring = TimeRing(10.0)
        ring.push_batch([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            ring.push_batch([3.0, 1.5], [1.0, 1.0])
        with pytest.raises(ValueError, match="same length"):
            ring.push_batch([4.0], [1.0, 2.0])

"""Property-based edge-case tests for the time ring.

The monitor's rolling window leans on :class:`TimeRing` staying correct
in exactly the regimes faults push it into: uneven spacing, long gaps
and overflow past its capacity.  This hypothesis property pins that
behaviour against a straightforward reference model.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.stream.ring import TimeRing


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

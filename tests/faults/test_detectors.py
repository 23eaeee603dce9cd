"""Correlated-excursion detectors: units and streaming.

Each detector is judged on synthetic series with known structure: a
duty-cycled hold pattern for :class:`AliasingDetector`, persistent
per-node ratios for :class:`PersistentOffsetDetector`, segment-constant
common-mode offsets for :class:`EntropyDriftDetector`.  The streaming
bundle must be invariant to batch chunking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.detectors import (
    AliasingDetector,
    CorrelatedDetectors,
    EntropyDriftDetector,
    PersistentOffsetDetector,
)
from repro.stream.ingest import SampleBatch


def _held_series(n_ticks: int, period: int, on_ticks: int) -> np.ndarray:
    """Fleet-mean series under a duty-cycled sample-and-hold meter."""
    rng = np.random.default_rng(0)
    fresh = 300.0 + rng.random(n_ticks) * 10.0
    out = fresh.copy()
    last = fresh[0]
    for t in range(n_ticks):
        if t % period < on_ticks:
            last = fresh[t]
        else:
            out[t] = last
    return out


class TestAliasingDetector:
    def test_fires_on_held_series(self):
        series = _held_series(240, period=10, on_ticks=4)
        v = AliasingDetector().verdict(series)
        assert v.suspected
        # 6 held ticks per 10 → 60% repeat pairs, one stale run per
        # period → period estimate near 10.
        assert v.repeat_frac == pytest.approx(0.6, abs=0.05)
        assert v.period_est_ticks == pytest.approx(10.0, abs=1.0)
        assert v.stale_runs >= 20

    def test_quiet_on_fresh_series(self):
        rng = np.random.default_rng(1)
        series = 300.0 + rng.random(500) * 10.0
        v = AliasingDetector().verdict(series)
        assert not v.suspected
        assert v.repeat_frac == 0.0
        assert v.stale_runs == 0
        assert v.bias_w_est == 0.0

    def test_bias_estimate_is_raw_minus_fresh(self):
        # Rising ramp, holds repeating tick 5k+1 over ticks 2..4: per
        # period the delivered mean is (0+1+1+1+1)/5 = 0.8 above the
        # period base while the fresh-only mean is (0+1)/2 = 0.5, so
        # the estimate is exactly +0.3 W.
        n = 200
        ramp = 100.0 + np.arange(n) * 1.0
        out = ramp.copy()
        for t in range(n):
            if t % 5 >= 2:
                out[t] = out[5 * (t // 5) + 1]
        v = AliasingDetector().verdict(out)
        assert v.suspected
        assert v.bias_w_est == pytest.approx(0.3, abs=1e-9)

    def test_nan_tolerant(self):
        series = _held_series(120, period=8, on_ticks=3)
        series[::17] = np.nan
        v = AliasingDetector().verdict(series)
        assert v.suspected


class TestPersistentOffsetDetector:
    def test_fires_on_spread_fleet(self):
        rng = np.random.default_rng(2)
        factors = 1.0 + np.array([0.06, -0.05, 0.03, -0.04, 0.0, 0.02])
        ratios = factors[None, :] + rng.normal(0.0, 0.002, (8, 6))
        v = PersistentOffsetDetector().verdict(ratios)
        assert v.suspected
        assert v.persistent_nodes >= 4
        assert v.n_nodes == 6
        assert v.persistent_cv == pytest.approx(
            float((factors + 0.0).std(ddof=1)), abs=0.01
        )

    def test_quiet_on_homogeneous_fleet(self):
        rng = np.random.default_rng(3)
        ratios = 1.0 + rng.normal(0.0, 0.003, (10, 8))
        v = PersistentOffsetDetector().verdict(ratios)
        assert not v.suspected
        assert v.persistent_nodes == 0

    def test_sign_flipping_node_not_persistent(self):
        # Big ratios that alternate sign: offset but not persistent.
        ratios = np.ones((8, 1))
        ratios[::2, 0] = 1.05
        ratios[1::2, 0] = 0.95
        v = PersistentOffsetDetector().verdict(ratios)
        assert v.persistent_nodes == 0

    def test_degenerate_inputs(self):
        v = PersistentOffsetDetector().verdict(np.ones((1, 4)))
        assert not v.suspected and v.persistent_cv == 0.0
        v = PersistentOffsetDetector().verdict(np.empty((0, 0)))
        assert not v.suspected


class TestEntropyDriftDetector:
    def _segmented(self, n_segments: int, segment: int, amp: float):
        rng = np.random.default_rng(4)
        offsets = rng.uniform(-amp, amp, n_segments)
        base = 300.0 + rng.random(n_segments * segment) * 0.5
        return base + np.repeat(offsets, segment)

    def test_fires_on_segment_offsets(self):
        series = self._segmented(12, 20, amp=25.0)
        v = EntropyDriftDetector(segment_ticks=20).verdict(series)
        assert v.suspected
        assert v.boundary_jump_w > 3.0 * v.interior_step_w

    def test_quiet_on_flat_series(self):
        rng = np.random.default_rng(5)
        series = 300.0 + rng.random(240) * 0.5
        v = EntropyDriftDetector(segment_ticks=20).verdict(series)
        assert not v.suspected
        assert v.jump_ratio < 3.0

    def test_interior_baseline_ignores_held_zero_steps(self):
        # Stacked aliasing holds flatten most interior steps to exactly
        # zero; the baseline must use only the non-zero ones or every
        # flat series would look like drift.
        series = self._segmented(10, 20, amp=25.0)
        for t in range(series.size):
            if t % 4 >= 2:
                series[t] = series[4 * (t // 4) + 1]
        v = EntropyDriftDetector(segment_ticks=20).verdict(series)
        assert v.interior_step_w > 0.05

    def test_short_series_is_a_non_verdict(self):
        v = EntropyDriftDetector(segment_ticks=20).verdict(np.ones(25))
        assert not v.suspected
        assert v.jump_ratio == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="segment_ticks"):
            EntropyDriftDetector(segment_ticks=1)


def _batches(times, watts, node_ids, chunk):
    for lo in range(0, times.size, chunk):
        hi = min(times.size, lo + chunk)
        yield SampleBatch(
            times=times[lo:hi], watts=watts[lo:hi], node_ids=node_ids
        )


class TestCorrelatedDetectorsStreaming:
    def _fleet(self, n_ticks=180, n_nodes=5):
        rng = np.random.default_rng(6)
        times = np.arange(n_ticks) * 2.0
        watts = 280.0 + rng.random((n_ticks, n_nodes)) * 8.0
        # Persistent spread + held rows: two pathologies at once.
        watts *= (1.0 + np.linspace(-0.05, 0.05, n_nodes))[None, :]
        for t in range(n_ticks):
            if t % 6 >= 3:
                watts[t] = watts[6 * (t // 6) + 2]
        return times, watts, np.arange(n_nodes)

    def test_verdict_invariant_to_chunking(self):
        times, watts, nodes = self._fleet()
        verdicts = []
        for chunk in (1, 7, 60, 180):
            det = CorrelatedDetectors(segment_ticks=30)
            for b in _batches(times, watts, nodes, chunk):
                det.observe(b)
            verdicts.append(det.verdict().to_dict())
        assert all(v == verdicts[0] for v in verdicts[1:])
        assert verdicts[0]["aliasing"]["suspected"]
        assert verdicts[0]["offset"]["suspected"]

    def test_verdict_is_pure(self):
        times, watts, nodes = self._fleet()
        det = CorrelatedDetectors(segment_ticks=30)
        batches = list(_batches(times, watts, nodes, 45))
        for b in batches[:2]:
            det.observe(b)
        mid = det.verdict().to_dict()
        assert det.verdict().to_dict() == mid  # repeatable
        for b in batches[2:]:
            det.observe(b)  # observing can continue after a verdict
        assert det.ticks_seen == times.size

    def test_partial_trailing_segment_counts(self):
        times, watts, nodes = self._fleet(n_ticks=75)
        det = CorrelatedDetectors(segment_ticks=30)
        for b in _batches(times, watts, nodes, 75):
            det.observe(b)
        # 2 full segments + a 15-tick partial → 3 ratio rows judged.
        v = det.verdict()
        assert v.offset.n_nodes == 5

    def test_lines_render(self):
        times, watts, nodes = self._fleet()
        det = CorrelatedDetectors(segment_ticks=30)
        for b in _batches(times, watts, nodes, 60):
            det.observe(b)
        lines = det.verdict().lines()
        assert len(lines) == 3
        assert any("aliasing" in ln for ln in lines)


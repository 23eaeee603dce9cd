"""Tests for repro.faults.recovery: retry, detect, repair, quarantine."""

import numpy as np
import pytest

from repro.faults.recovery import (
    GAP_POLICIES,
    FlakySource,
    MaskedRunningMoments,
    RecoveryPipeline,
    RetryingSource,
    RetryPolicy,
    TransientMeterError,
)
from repro.rng import stream
from repro.stream.ingest import IngestLoop, SampleBatch, SimClock


def _batches(watts_rows, *, per=4, dt_s=2.0):
    """Chunk a (ticks, nodes) array into SampleBatch objects."""
    watts = np.asarray(watts_rows, dtype=float)
    times = np.arange(watts.shape[0]) * dt_s
    ids = np.arange(watts.shape[1], dtype=np.int64)
    return [
        SampleBatch(times=times[lo: lo + per], watts=watts[lo: lo + per],
                    node_ids=ids)
        for lo in range(0, watts.shape[0], per)
    ]


class TestRetryPolicy:
    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy()
        rng = stream(0, "test-retry")
        for attempt in range(4):
            d = policy.delay_s(attempt, rng)
            nominal = 2.0 ** attempt
            assert 0.9 * nominal <= d <= 1.1 * nominal

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        policy = RetryPolicy()
        with pytest.raises(ValueError, match="attempt"):
            policy.delay_s(-1, stream(0, "x"))


class TestFlakySource:
    def test_failures_are_deterministic(self):
        batches = _batches(np.ones((12, 2)))
        a = FlakySource(iter(batches), failure_rate=0.5, seed=7)
        b = FlakySource(iter(batches), failure_rate=0.5, seed=7)

        def drain(src):
            out = []
            while True:
                try:
                    out.append(next(src))
                except TransientMeterError:
                    out.append("fail")
                except StopIteration:
                    return out

        assert [
            x if x == "fail" else float(x.t0_s) for x in drain(a)
        ] == [x if x == "fail" else float(x.t0_s) for x in drain(b)]
        assert a.failures_raised == b.failures_raised

    def test_plain_ingest_loop_dies_on_first_failure(self):
        # The motivation: the clean loop has no recovery path at all.
        source = FlakySource(
            iter(_batches(np.ones((12, 2)))), failure_rate=0.9, seed=1
        )
        loop = IngestLoop(source, lambda b: None)
        with pytest.raises(TransientMeterError):
            loop.run()

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_rate"):
            FlakySource(iter([]), failure_rate=1.0)


class TestResilientIngestLoop:
    """A :class:`RetryingSource` feeding the plain :class:`IngestLoop`."""

    def test_retries_absorb_every_failure(self):
        batches = _batches(np.ones((24, 3)))
        flaky = FlakySource(iter(batches), failure_rate=0.4, seed=3)
        source = RetryingSource(
            flaky,
            clock=SimClock(2.0),
            policy=RetryPolicy(max_retries=50),
            seed=3,
        )
        seen = []
        loop = IngestLoop(source, seen.append).run()
        assert loop.batches_ingested == len(batches)
        assert [float(b.t0_s) for b in seen] == [
            float(b.t0_s) for b in batches
        ]
        assert source.retries == flaky.failures_raised > 0
        assert source.batches_abandoned == 0
        assert source.backoff_ticks >= source.retries

    def test_retry_exhaustion_abandons_and_continues(self):
        batches = _batches(np.ones((40, 3)), per=4)
        source = RetryingSource(
            FlakySource(iter(batches), failure_rate=0.75, seed=5),
            clock=SimClock(2.0),
            policy=RetryPolicy(max_retries=1),
            seed=5,
        )
        loop = IngestLoop(source, lambda b: None).run()
        assert source.batches_abandoned > 0
        assert len(source.abandoned) == source.batches_abandoned
        assert source.samples_abandoned == sum(
            b.n_samples for b in source.abandoned
        )
        # Nothing vanishes: every batch is either ingested or abandoned.
        assert (
            loop.batches_ingested + source.batches_abandoned == len(batches)
        )

    def test_backoff_advances_the_sim_clock_only(self):
        clock = SimClock(2.0)
        source = RetryingSource(
            FlakySource(
                iter(_batches(np.ones((8, 2)))), failure_rate=0.5, seed=9
            ),
            clock=clock,
            seed=9,
        )
        IngestLoop(source, lambda b: None).run()
        assert clock.tick == source.backoff_ticks


class TestMaskedRunningMoments:
    def test_matches_numpy_on_a_holey_matrix(self):
        rng = stream(0, "masked-moments")
        values = rng.normal(100.0, 10.0, size=(200, 5))
        valid = rng.random((200, 5)) > 0.3
        mom = MaskedRunningMoments(5)
        for row, mask in zip(values, valid):
            mom.push_row(row, mask)
        masked = np.where(valid, values, np.nan)
        np.testing.assert_array_equal(mom.count, valid.sum(axis=0))
        np.testing.assert_allclose(
            mom.mean, np.nanmean(masked, axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(
            mom.std, np.nanstd(masked, axis=0, ddof=1), rtol=1e-9
        )

    def test_push_value_equals_single_column_row(self):
        a = MaskedRunningMoments(3)
        b = MaskedRunningMoments(3)
        for k, v in enumerate([10.0, 12.0, 9.5]):
            a.push_value(1, v)
            row = np.zeros(3)
            row[1] = v
            valid = np.array([False, True, False])
            b.push_row(row, valid)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.count, b.count)

    def test_empty_components_are_nan(self):
        mom = MaskedRunningMoments(2)
        mom.push_value(0, 5.0)
        assert np.isnan(mom.mean[1])
        assert np.isnan(mom.variance[0])  # needs 2 samples

    def test_validation(self):
        with pytest.raises(ValueError, match="n_components"):
            MaskedRunningMoments(0)
        mom = MaskedRunningMoments(2)
        with pytest.raises(ValueError, match="shape"):
            mom.push_row(np.zeros(3), np.ones(3, dtype=bool))


def _feed(pipe, watts_rows, per=4):
    for batch in _batches(watts_rows, per=per):
        pipe.observe(batch)
    return pipe


class TestRecoveryPipelineDetection:
    def test_clean_stream_has_nothing_to_report(self):
        rows = 100.0 + np.arange(40)[:, None] * [0.1, 0.2, 0.3]
        pipe = _feed(RecoveryPipeline(), rows)
        rep = pipe.finalize(expected_ticks=40)
        assert rep.samples_missing == 0
        assert rep.samples_flagged == 0
        assert rep.samples_repaired == 0
        assert rep.effective_coverage == 1.0
        assert rep.effective_level == rep.original_level

    def test_stuck_run_detected_exactly(self):
        rows = 100.0 + np.arange(20)[:, None] * [0.1, 0.2]
        rows[5:9, 0] = rows[4, 0]  # meter latches for 4 ticks
        pipe = _feed(RecoveryPipeline(), rows)
        assert pipe.samples_stuck == 4
        assert pipe.samples_spiked == 0

    def test_spike_detected_and_isolated(self):
        rows = 100.0 + np.arange(20)[:, None] * [0.1, 0.2]
        rows[7, 1] *= 8.0
        pipe = _feed(RecoveryPipeline(), rows)
        assert pipe.samples_spiked == 1
        assert pipe.samples_stuck == 0

    def test_missing_counted_per_cell(self):
        rows = 100.0 + np.arange(20)[:, None] * [0.1, 0.2]
        rows[3:6, 0] = np.nan
        pipe = _feed(RecoveryPipeline(), rows)
        assert pipe.samples_missing == 3


class TestGapPolicies:
    def _gap_rows(self):
        rows = np.zeros((4, 2))
        rows[:, 0] = [100.0, np.nan, np.nan, 130.0]
        rows[:, 1] = [50.0, 50.5, 51.0, 51.5]  # healthy companion
        return rows

    def test_hold_repeats_last_trusted(self):
        pipe = _feed(RecoveryPipeline(gap_policy="hold"), self._gap_rows())
        rep = pipe.finalize(expected_ticks=4)
        assert rep.samples_held == 2
        assert rep.samples_interpolated == rep.samples_excluded == 0
        # Node 0's mean over (100, 100, 100, 130).
        assert pipe._moments.mean[0] == pytest.approx(107.5)

    def test_interpolate_fills_linearly_on_close(self):
        pipe = _feed(
            RecoveryPipeline(gap_policy="interpolate"), self._gap_rows()
        )
        rep = pipe.finalize(expected_ticks=4)
        assert rep.samples_interpolated == 2
        assert rep.samples_held == 0
        # Node 0's mean over (100, 110, 120, 130).
        assert pipe._moments.mean[0] == pytest.approx(115.0)

    def test_interpolate_tail_gap_falls_back_to_hold(self):
        rows = np.zeros((4, 2))
        rows[:, 0] = [100.0, 120.0, np.nan, np.nan]  # gap never closes
        rows[:, 1] = [50.0, 50.5, 51.0, 51.5]
        pipe = _feed(RecoveryPipeline(gap_policy="interpolate"), rows)
        rep = pipe.finalize(expected_ticks=4)
        assert rep.samples_held == 2
        assert rep.samples_interpolated == 0
        assert pipe._moments.mean[0] == pytest.approx(115.0)

    def test_exclude_excises_the_cells(self):
        pipe = _feed(RecoveryPipeline(gap_policy="exclude"), self._gap_rows())
        rep = pipe.finalize(expected_ticks=4)
        assert rep.samples_excluded == 2
        assert pipe._moments.count[0] == 2
        assert pipe._moments.mean[0] == pytest.approx(115.0)

    def test_repair_identity_holds_for_every_policy(self):
        rows = 100.0 + np.arange(60)[:, None] * [0.1, 0.2, 0.3]
        rows[10:14, 0] = np.nan
        rows[20:22, 1] = rows[19, 1]
        rows[30, 2] *= 9.0
        for policy in GAP_POLICIES:
            pipe = _feed(RecoveryPipeline(gap_policy=policy), rows.copy())
            rep = pipe.finalize(expected_ticks=60)
            assert rep.samples_repaired == (
                rep.samples_missing + rep.samples_flagged
            ), policy


class TestQuarantineAndBreaker:
    def test_sustained_outage_quarantines_the_node(self):
        rows = 100.0 + np.arange(50)[:, None] * [0.1, 0.2]
        rows[10:, 0] = np.nan  # node 0 goes dark for good
        pipe = _feed(
            RecoveryPipeline(quarantine_after=5, original_level=3), rows
        )
        rep = pipe.finalize(expected_ticks=50)
        assert rep.nodes_quarantined == (0,)
        assert rep.effective_level < 3  # breaker downgrades, never fails
        assert rep.downgraded()

    def test_quarantine_is_sticky(self):
        rows = 100.0 + np.arange(50)[:, None] * [0.1, 0.2]
        rows[10:30, 0] = np.nan  # long outage, then recovery
        pipe = _feed(RecoveryPipeline(quarantine_after=5), rows)
        rep = pipe.finalize(expected_ticks=50)
        assert rep.nodes_quarantined == (0,)

    def test_short_gap_stays_below_the_threshold(self):
        rows = 100.0 + np.arange(50)[:, None] * [0.1, 0.2]
        rows[10:14, 0] = np.nan
        pipe = _feed(RecoveryPipeline(quarantine_after=5), rows)
        assert pipe.finalize(expected_ticks=50).nodes_quarantined == ()


class TestLiveFeedAndValidation:
    def test_node_set_change_rejected(self):
        pipe = RecoveryPipeline()
        batches = _batches(np.ones((8, 3)))
        pipe.observe(batches[0])
        bad = SampleBatch(
            times=batches[1].times,
            watts=batches[1].watts[:, :2],
            node_ids=batches[1].node_ids[:2],
        )
        with pytest.raises(ValueError, match="node_ids"):
            pipe.observe(bad)

    def test_finalize_guards(self):
        pipe = RecoveryPipeline()
        with pytest.raises(ValueError, match="no batches"):
            pipe.finalize(expected_ticks=10)
        _feed(pipe, np.ones((8, 2)) + np.arange(8)[:, None])
        with pytest.raises(ValueError, match="expected_ticks"):
            pipe.finalize(expected_ticks=4)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="gap_policy"):
            RecoveryPipeline(gap_policy="zero-fill")
        with pytest.raises(ValueError, match="quarantine_after"):
            RecoveryPipeline(quarantine_after=0)

"""Tests for repro.faults.recovery: retry, detect, repair, quarantine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import MaskedRunningMoments
from repro.faults.recovery import (
    GAP_POLICIES,
    SPIKE_RATIO,
    FlakySource,
    RecoveryPipeline,
    RetryingSource,
    RetryPolicy,
    TransientMeterError,
)
from repro.rng import stream
from repro.stream.ingest import SampleBatch, SimClock


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
        # The motivation: a plain loop has no recovery path at all.
        source = FlakySource(
            iter(_batches(np.ones((12, 2)))), failure_rate=0.9, seed=1
        )
        with pytest.raises(TransientMeterError):
            list(source)

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_rate"):
            FlakySource(iter([]), failure_rate=1.0)


class TestResilientIngestLoop:
    """A :class:`RetryingSource` folded by a plain ``for`` loop."""

    def test_retries_absorb_every_failure(self):
        batches = _batches(np.ones((24, 3)))
        flaky = FlakySource(iter(batches), failure_rate=0.4, seed=3)
        source = RetryingSource(
            flaky,
            clock=SimClock(2.0),
            policy=RetryPolicy(max_retries=50),
            seed=3,
        )
        seen = list(source)
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
        ingested = list(source)
        assert source.batches_abandoned > 0
        assert len(source.abandoned) == source.batches_abandoned
        assert source.samples_abandoned == sum(
            b.n_samples for b in source.abandoned
        )
        # Nothing vanishes: every batch is either ingested or abandoned.
        assert len(ingested) + source.batches_abandoned == len(batches)

    def test_backoff_advances_the_sim_clock_only(self):
        clock = SimClock(2.0)
        source = RetryingSource(
            FlakySource(
                iter(_batches(np.ones((8, 2)))), failure_rate=0.5, seed=9
            ),
            clock=clock,
            seed=9,
        )
        list(source)
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

    def test_one_hot_row_equals_a_single_column(self):
        wide = MaskedRunningMoments(3)
        single = MaskedRunningMoments(1)
        one_hot = np.array([False, True, False])
        for v in [10.0, 12.0, 9.5]:
            wide.push_row(np.full(3, v), one_hot)
            single.push_row(np.array([v]), np.array([True]))
        np.testing.assert_array_equal(wide.count, [0, 3, 0])
        np.testing.assert_array_equal(wide.mean[1:2], single.mean)
        np.testing.assert_array_equal(wide.variance[1:2], single.variance)
        assert np.isnan(wide.mean[[0, 2]]).all()

    def test_empty_components_are_nan(self):
        mom = MaskedRunningMoments(2)
        mom.push_row(np.array([5.0, 0.0]), np.array([True, False]))
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


def _pipeline_bits(pipe: RecoveryPipeline) -> dict:
    """Every piece of a pipeline's state, for exact comparison."""
    nodes, moments = pipe._nodes, pipe._moments
    return {
        "counters": (
            pipe.ticks_seen, pipe.samples_missing, pipe.samples_stuck,
            pipe.samples_spiked, pipe.samples_held,
            pipe.samples_interpolated, pipe.samples_excluded,
        ),
        "arrays": [
            a.tobytes() for a in (
                nodes.quarantined, pipe._usable_per_node,
                *(getattr(moments, name) for name in moments.__slots__),
                nodes.last_raw, nodes.last_good, nodes.repeat_run,
                nodes.missing_run, nodes.gap_len,
            )
        ],
    }


def _faulty_rows() -> np.ndarray:
    """A 6-node stream with one fault kind per node, clean stretches
    between them so batches alternate between both paths."""
    t = np.arange(80)[:, None]
    rows = 100.0 + 3.0 * np.arange(6)[None, :] + 0.011 * t + 0.0007 * t**2
    rows[9:12, 0] = np.nan                 # short gap
    rows[25:29, 1] = rows[24, 1]           # stuck meter (repeats)
    rows[41, 2] *= 7.0                     # spike
    rows[30:45, 3] = np.nan                # outage -> quarantine
    rows[50:53, 4] = np.nan                # gap spanning a batch edge
    rows[70:, 5] = np.nan                  # tail gap
    return rows


class TestCleanBatchPath:
    """The batch-at-once path is bit-identical to the per-tick loop."""

    @pytest.mark.parametrize("policy", GAP_POLICIES)
    def test_batching_never_shows(self, policy):
        rows = _faulty_rows()
        kwargs = dict(gap_policy=policy, quarantine_after=10)
        bits = [
            _pipeline_bits(_feed(RecoveryPipeline(**kwargs), rows, per=per))
            for per in (1, 4, 7, 60, 80)
        ]
        assert all(b == bits[0] for b in bits[1:])

    @pytest.mark.parametrize("policy", GAP_POLICIES)
    @pytest.mark.parametrize("per", [1, 4, 7, 80])
    def test_matches_the_per_tick_loop(self, monkeypatch, policy, per):
        rows = _faulty_rows()
        kwargs = dict(gap_policy=policy, quarantine_after=10)
        fast = _feed(RecoveryPipeline(**kwargs), rows, per=per)
        monkeypatch.setattr(
            RecoveryPipeline, "_is_clean", lambda self, watts: False
        )
        slow = _feed(RecoveryPipeline(**kwargs), rows, per=per)
        assert _pipeline_bits(fast) == _pipeline_bits(slow)
        assert fast.finalize(expected_ticks=80) == slow.finalize(
            expected_ticks=80
        )

    def test_clean_batches_take_the_batch_path(self, monkeypatch):
        calls = []
        original = RecoveryPipeline._observe_row
        monkeypatch.setattr(
            RecoveryPipeline, "_observe_row",
            lambda self, row: calls.append(1) or original(self, row),
        )
        rows = 100.0 + np.arange(40)[:, None] * [0.1, 0.2, 0.3]
        _feed(RecoveryPipeline(), rows, per=8)
        assert calls == []

    @pytest.mark.parametrize(
        "fault",
        ["nan", "repeat_in_batch", "repeat_across_batches",
         "spike_in_batch", "spike_across_batches"],
    )
    def test_each_detector_trigger_falls_back(self, fault):
        rows = 100.0 + np.arange(16)[:, None] * [0.1, 0.2]
        if fault == "nan":
            rows[10, 1] = np.nan
        elif fault == "repeat_in_batch":
            rows[10, 0] = rows[9, 0]
        elif fault == "repeat_across_batches":
            rows[8, 0] = rows[7, 0]
        elif fault == "spike_in_batch":
            rows[10, 1] *= 5.0
        else:
            rows[8, 1] *= 5.0
        pipe = _feed(RecoveryPipeline(), rows[:8], per=8)
        assert not pipe._is_clean(rows[8:])

    def test_quarantined_node_falls_back(self):
        rows = 100.0 + np.arange(16)[:, None] * [0.1, 0.2]
        rows[:8, 0] = np.nan  # dark long enough to quarantine
        pipe = _feed(RecoveryPipeline(quarantine_after=4), rows[:8], 8)
        assert pipe._nodes.quarantined[0]
        assert not pipe._is_clean(rows[8:])

    def test_open_interpolate_gap_falls_back(self):
        rows = 100.0 + np.arange(16)[:, None] * [0.1, 0.2]
        rows[6:8, 0] = np.nan  # gap still open at the batch edge
        pipe = _feed(RecoveryPipeline(gap_policy="interpolate"), rows[:8], 8)
        assert not pipe._is_clean(rows[8:])
        held = _feed(RecoveryPipeline(gap_policy="hold"), rows[:8], 8)
        assert held._is_clean(rows[8:])


class _CellByCellOracle(RecoveryPipeline):
    """The general path as it was written cell by cell: one Python call
    per unusable cell and one one-hot row push per interpolation fill.

    Kept as the scalar reference the vectorised repair must match bit
    for bit; the clean-batch path is inherited unchanged.
    """

    def _push_value(self, component: int, value: float) -> None:
        row = np.zeros(self._node_ids.size)
        valid = np.zeros(self._node_ids.size, dtype=bool)
        row[component] = value
        valid[component] = True
        self._moments.push_row(row, valid)

    def _repair_cell(self, j, nodes) -> bool:
        have_ref = bool(np.isfinite(nodes.last_good[j]))
        if nodes.quarantined[j] or not have_ref or (
            self.gap_policy == "exclude"
        ):
            self.samples_excluded += 1
            return False
        if self.gap_policy == "interpolate":
            nodes.gap_len[j] += 1
            return False
        self.samples_held += 1
        return True

    def _close_gap(self, j, nodes, new_value) -> None:
        gap = int(nodes.gap_len[j])
        if gap == 0:
            return
        lo = float(nodes.last_good[j])
        for k in range(1, gap + 1):
            filled = lo + (new_value - lo) * k / (gap + 1)
            self._push_value(j, filled)
        self.samples_interpolated += gap
        nodes.gap_len[j] = 0

    def _observe_row(self, row) -> None:
        nodes = self._nodes
        finite = np.isfinite(row)
        missing = ~finite
        self.samples_missing += int(missing.sum())
        eq = finite & np.isfinite(nodes.last_raw) & (row == nodes.last_raw)
        nodes.repeat_run = np.where(eq, nodes.repeat_run + 1, 0)
        stuck = eq & (nodes.repeat_run >= self.stuck_min_repeats)
        self.samples_stuck += int(stuck.sum())
        ref = nodes.last_good
        with np.errstate(invalid="ignore"):
            spiked = (
                finite
                & ~stuck
                & np.isfinite(ref)
                & (row > SPIKE_RATIO * ref)
            )
        self.samples_spiked += int(spiked.sum())
        usable = finite & ~stuck & ~spiked
        nodes.missing_run = np.where(missing, nodes.missing_run + 1, 0)
        nodes.quarantined |= nodes.missing_run >= self.quarantine_after
        active = usable & ~nodes.quarantined
        if self.gap_policy == "interpolate":
            for j in np.flatnonzero(active & (nodes.gap_len > 0)):
                self._close_gap(int(j), nodes, float(row[j]))
        push_vals = np.where(active, row, 0.0)
        push_mask = active.copy()
        for j in np.flatnonzero(~usable):
            j = int(j)
            if self._repair_cell(j, nodes):
                push_vals[j] = nodes.last_good[j]
                push_mask[j] = True
        self._moments.push_row(push_vals, push_mask)
        self._usable_per_node += active
        nodes.last_good = np.where(usable, row, nodes.last_good)
        nodes.last_raw = np.where(finite, row, nodes.last_raw)
        self.ticks_seen += 1

    def _flush_tail_gaps(self) -> None:
        if self.gap_policy != "interpolate":
            return
        nodes = self._nodes
        for j in range(nodes.gap_len.size):
            gap = int(nodes.gap_len[j])
            if gap == 0:
                continue
            for _ in range(gap):
                self._push_value(j, float(nodes.last_good[j]))
            self.samples_held += gap
            nodes.gap_len[j] = 0


_FAULT_KINDS = ("nan", "repeat", "spike", "outage", "stuck-then-outage")


@st.composite
def _degraded_streams(draw):
    """A small faulty matrix, a pipeline configuration and a batching.

    Faults overlap freely: NaN runs too short to quarantine, exact
    repeats, 5x spikes and outages long enough to quarantine, some of
    them opened by a stuck run so the quarantine lands inside an
    interpolation gap.
    """
    n_ticks = draw(st.integers(min_value=1, max_value=60))
    n_nodes = draw(st.integers(min_value=1, max_value=12))
    kwargs = dict(
        gap_policy=draw(st.sampled_from(GAP_POLICIES)),
        stuck_min_repeats=draw(st.integers(min_value=1, max_value=3)),
        quarantine_after=draw(st.integers(min_value=2, max_value=10)),
    )
    noise = stream(draw(st.integers(0, 2**31 - 1)), "oracle-matrix")
    t = np.arange(n_ticks)[:, None]
    rows = (
        100.0 + 3.0 * np.arange(n_nodes)[None, :] + 0.011 * t
        + noise.normal(0.0, 0.5, size=(n_ticks, n_nodes))
    )
    quarantine_after = kwargs["quarantine_after"]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(_FAULT_KINDS))
        j = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        lo = draw(st.integers(min_value=0, max_value=n_ticks - 1))
        run = draw(st.integers(min_value=1, max_value=12))
        outage = quarantine_after + draw(st.integers(0, 15))
        if kind == "nan":  # short enough to close as a gap
            rows[lo: lo + min(run, quarantine_after - 1), j] = np.nan
        elif kind == "repeat":
            rows[lo: lo + run, j] = rows[max(lo - 1, 0), j]
        elif kind == "spike":
            rows[lo, j] *= 5.0
        elif kind == "outage":
            rows[lo: lo + outage, j] = np.nan
        else:
            rows[lo: lo + run, j] = rows[max(lo - 1, 0), j]
            rows[lo + run: lo + run + outage, j] = np.nan
    cuts = sorted(draw(st.sets(st.integers(1, max(n_ticks - 1, 1)))))
    return rows, kwargs, [c for c in cuts if c < n_ticks]


def _feed_at(pipe, rows, cuts):
    times = np.arange(rows.shape[0]) * 2.0
    ids = np.arange(rows.shape[1], dtype=np.int64)
    edges = [0, *cuts, rows.shape[0]]
    for lo, hi in zip(edges, edges[1:]):
        pipe.observe(
            SampleBatch(times=times[lo:hi], watts=rows[lo:hi], node_ids=ids)
        )
    return pipe


class TestRepairMatchesTheCellByCellOracle:
    """The vectorised repair is bit-identical to the per-cell loop."""

    @settings(max_examples=300, deadline=None)
    @given(_degraded_streams(), st.integers(min_value=0, max_value=5))
    def test_state_and_label_are_bit_identical(self, case, extra_ticks):
        rows, kwargs, cuts = case
        fast = _feed_at(RecoveryPipeline(**kwargs), rows, cuts)
        oracle = _feed_at(_CellByCellOracle(**kwargs), rows, cuts)
        assert _pipeline_bits(fast) == _pipeline_bits(oracle)
        expected_ticks = rows.shape[0] + extra_ticks
        report = fast.finalize(expected_ticks=expected_ticks)
        assert report == oracle.finalize(expected_ticks=expected_ticks)
        assert _pipeline_bits(fast) == _pipeline_bits(oracle)
        assert report.samples_repaired == (
            report.samples_missing + report.samples_flagged
        )

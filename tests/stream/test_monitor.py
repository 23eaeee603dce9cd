"""Tests for repro.stream.monitor."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stream import monitor as monitor_module
from repro.stream.estimators import QUANTILE_REL_ERROR
from repro.stream.ingest import SampleBatch, replay_run
from repro.stream.monitor import (
    MIN_SAMPLES_FOR_FLAGS,
    OUTLIER_Z,
    ComplianceMonitor,
    NodeFlags,
)


def _monitor_for(run) -> ComplianceMonitor:
    return ComplianceMonitor(
        run.core_window, required_interval_s=max(run.dt, 1.0)
    )


class TestCompliance:
    def test_full_replay_is_compliant(self, small_run):
        mon = _monitor_for(small_run)
        for batch in replay_run(small_run, ticks_per_batch=64):
            mon.observe(batch)
        rep = mon.report()
        assert rep.interval_ok
        assert rep.full_core_compliant
        assert rep.window_fraction_covered == pytest.approx(1.0, abs=0.01)
        assert rep.legal_level1_window
        assert rep.nodes_seen == small_run.system.n_nodes

    def test_partial_coverage_not_full_core(self, small_run):
        mon = _monitor_for(small_run)
        batches = list(replay_run(small_run, ticks_per_batch=64))
        for batch in batches[: len(batches) // 4]:
            mon.observe(batch)
        rep = mon.report()
        assert not rep.full_core_compliant
        assert rep.window_fraction_covered < 0.5

    def test_sampling_gap_flags_violation(self, small_run):
        mon = _monitor_for(small_run)
        batches = list(replay_run(small_run, ticks_per_batch=64))
        mon.observe(batches[0])
        mon.observe(batches[2])  # skip one batch: a cadence gap
        rep = mon.report()
        assert not rep.interval_ok
        assert rep.worst_interval_s > rep.required_interval_s

    def test_node_set_change_rejected(self, small_run):
        mon = _monitor_for(small_run)
        batches = list(replay_run(small_run, ticks_per_batch=64))
        mon.observe(batches[0])
        bad = SampleBatch(
            times=batches[1].times,
            watts=batches[1].watts[:, :8],
            node_ids=batches[1].node_ids[:8],
        )
        with pytest.raises(ValueError, match="node set"):
            mon.observe(bad)


class TestAnomalyFlags:
    def test_clean_run_is_quiet(self, small_run):
        mon = _monitor_for(small_run)
        for batch in replay_run(small_run, ticks_per_batch=64):
            mon.observe(batch)
        rep = mon.report()
        assert not rep.excursion_nodes
        assert not rep.outlier_nodes

    def test_private_step_flags_one_node(self, small_run):
        # Fig. 4: one node's fan policy adds ~120 W for a stretch while
        # the fleet ramps; only that node should flag an excursion.
        mon = _monitor_for(small_run)
        t0_s, _ = small_run.core_window
        for batch in replay_run(small_run, ticks_per_batch=64):
            watts = batch.watts.copy()
            mask = (batch.times >= t0_s + 600.0) & (
                batch.times <= t0_s + 900.0
            )
            watts[mask, 3] += 120.0
            mon.observe(
                SampleBatch(
                    times=batch.times,
                    watts=watts,
                    node_ids=batch.node_ids,
                )
            )
        rep = mon.report()
        assert [f.node_id for f in rep.excursion_nodes] == [3]
        assert rep.excursion_nodes[0].excursion_count > 0

    def test_persistent_shift_flags_outlier(self, small_run):
        # A node running persistently hot shows up as a mean-level
        # outlier vs the fleet's node-to-node spread.
        mon = ComplianceMonitor(
            small_run.core_window,
            required_interval_s=max(small_run.dt, 1.0),
        )
        for batch in replay_run(small_run, ticks_per_batch=64):
            watts = batch.watts.copy()
            watts[:, 7] *= 1.25
            mon.observe(
                SampleBatch(
                    times=batch.times,
                    watts=watts,
                    node_ids=batch.node_ids,
                )
            )
        rep = mon.report()
        assert 7 in [f.node_id for f in rep.outlier_nodes]

    @pytest.mark.parametrize(("n_nodes", "flagged"), [(17, False), (18, True)])
    def test_lone_outlier_needs_eighteen_nodes(self, n_nodes, flagged):
        # Samuelson's bound: no node of an n-node fleet sits more than
        # (n - 1) / sqrt(n) sample deviations from the mean (3.88 at
        # n = 17, 4.01 at n = 18), so even a node at 10x power cannot
        # pass OUTLIER_Z = 4 in a fleet below 18 nodes.
        times = np.arange(60.0)
        watts = np.tile(100.0 + 0.01 * np.arange(n_nodes), (times.size, 1))
        watts[:, 0] *= 10.0
        mon = ComplianceMonitor((0.0, 60.0))
        mon.observe(
            SampleBatch(times=times, watts=watts, node_ids=np.arange(n_nodes))
        )
        outliers = [f.node_id for f in mon.report().outlier_nodes]
        assert outliers == ([0] if flagged else [])

    def test_validation(self, small_run):
        with pytest.raises(ValueError, match="duration"):
            ComplianceMonitor((10.0, 10.0))
        with pytest.raises(ValueError, match="positive"):
            ComplianceMonitor(
                small_run.core_window, required_interval_s=0.0
            )

    @pytest.mark.parametrize(
        "core",
        [(0.0, np.nan), (np.nan, 10.0), (0.0, np.inf), (-np.inf, 10.0)],
    )
    def test_non_finite_core_window_is_refused(self, core):
        # NaN passed a `c1 <= c0` test and then broke every report;
        # an infinite bound gives no coverage fraction to judge.
        with pytest.raises(ValueError, match="finite bounds"):
            ComplianceMonitor(core)

    @pytest.mark.parametrize("interval_s", [np.nan, np.inf])
    def test_non_finite_required_interval_is_refused(self, interval_s):
        with pytest.raises(ValueError, match="positive and finite"):
            ComplianceMonitor((0.0, 10.0), required_interval_s=interval_s)


def _batch(t0: float, watts) -> SampleBatch:
    watts = np.asarray(watts, dtype=float)
    return SampleBatch(
        times=t0 + np.arange(watts.shape[0], dtype=float),
        watts=watts,
        node_ids=np.arange(watts.shape[1], dtype=np.int64),
    )


class TestRefusedBatch:
    """A refused batch leaves every monitor field as it was."""

    @staticmethod
    def _state(mon: ComplianceMonitor) -> bytes:
        # A pickle folds the pending stack first, so this is the whole
        # folded state.
        return pickle.dumps(mon)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reading_after_good_batch(self, bad):
        mon = ComplianceMonitor((0.0, 20.0))
        mon.observe(_batch(0.0, np.full((4, 3), 100.0)))
        before = self._state(mon)
        watts = np.full((4, 3), 100.0)
        watts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            mon.observe(_batch(10.0, watts))
        assert self._state(mon) == before
        rep = mon.report()
        assert rep.worst_interval_s == 1.0
        assert rep.samples_seen == 12

    def test_non_finite_first_batch_pins_nothing(self):
        mon = ComplianceMonitor((0.0, 20.0))
        before = self._state(mon)
        watts = np.full((4, 3), 100.0)
        watts[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mon.observe(_batch(0.0, watts))
        assert self._state(mon) == before
        # The node set was not pinned by the refused batch.
        mon.observe(_batch(0.0, np.full((4, 5), 100.0)))
        assert mon.report().nodes_seen == 5

    def test_negative_reading(self):
        # Refused by the one check, before the batch reaches the stack.
        mon = ComplianceMonitor((0.0, 20.0))
        mon.observe(_batch(0.0, np.full((4, 3), 100.0)))
        before = self._state(mon)
        watts = np.full((4, 3), 100.0)
        watts[1, 2] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            mon.observe(_batch(4.0, watts))
        assert self._state(mon) == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reference_mean(self, bad):
        mon = ComplianceMonitor((0.0, 20.0))
        mon.observe(_batch(0.0, np.full((4, 3), 100.0)))
        before = self._state(mon)
        fleet_w = np.full(4, 100.0)
        fleet_w[3] = bad
        with pytest.raises(ValueError, match="finite reference mean"):
            mon.observe(_batch(4.0, np.full((4, 3), 100.0)), fleet_w=fleet_w)
        assert self._state(mon) == before

    @pytest.mark.parametrize(
        "times",
        [
            np.arange(2.0, 7.0),  # goes back across batches
            np.array([5.0, 6.0, 7.0, 6.5, 8.0]),  # goes back within itself
        ],
        ids=["across-batches", "within-batch"],
    )
    def test_out_of_order_batch(self, times):
        # Refused before the moments, excursions, span or worst
        # interval move, not midway by the rolling ring.
        mon = ComplianceMonitor((0.0, 20.0))
        mon.observe(_batch(0.0, np.full((5, 3), 100.0)))
        before = self._state(mon)
        late = SampleBatch(
            times=times, watts=np.full((5, 3), 200.0),
            node_ids=np.arange(3),
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            mon.observe(late)
        assert self._state(mon) == before
        assert mon.node_moments.mean.tolist() == [100.0] * 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "inner", "last"])
    def test_non_finite_timestamp(self, bad, at):
        # A NaN tick used to pass every `<` order check and then hide
        # the cadence gaps of whatever it was folded with.
        mon = ComplianceMonitor((0.0, 20.0))
        mon.observe(_batch(0.0, np.full((5, 3), 100.0)))
        before = self._state(mon)
        times = np.arange(5.0, 10.0)
        times[at] = bad
        late = SampleBatch(
            times=times, watts=np.full((5, 3), 200.0),
            node_ids=np.arange(3),
        )
        with pytest.raises(ValueError, match="finite"):
            mon.observe(late)
        assert self._state(mon) == before

    def test_reading_whose_ratio_overflows(self):
        # 1e160 W against a 1e-3 W reference mean (the floor) is a ratio
        # whose square overflows: refused whole, where the ratio moments
        # used to refuse it after the node moments had taken the batch.
        mon = ComplianceMonitor((0.0, 20.0))
        mon.observe(_batch(0.0, np.full((4, 3), 100.0)))
        before = self._state(mon)
        floor = monitor_module.FLEET_W_FLOOR
        with pytest.raises(ValueError, match="overflow"):
            mon.observe(
                _batch(4.0, np.full((4, 3), 1e160)),
                fleet_w=np.array([100.0, floor, 100.0, 100.0]),
            )
        assert self._state(mon) == before
        # Huge readings on a huge-mean tick and small ones on a
        # small-mean tick overflow only the coarse bound; every ratio
        # is 1.
        watts = np.array([[1e152] * 3, [2 * floor] * 3, [100.0] * 3])
        mon.observe(_batch(4.0, watts))
        assert mon.samples_seen == 21

    def test_mean_below_the_floor_is_no_reference(self):
        # 1e10 W against a 1e-300 W mean has no finite ratio; below
        # FLEET_W_FLOOR a tick is judged like a 0 W one (every ratio 1),
        # so the batch is taken and the ratio moments stay finite.
        mon = ComplianceMonitor((0.0, 20.0))
        mon.observe(_batch(0.0, np.full((4, 3), 100.0)))
        mon.observe(
            _batch(4.0, np.full((4, 3), 1e10)),
            fleet_w=np.array([100.0, 1e-300, 100.0, 100.0]),
        )
        assert mon.samples_seen == 24
        mon.flush()
        assert np.isfinite(mon._ratio_moments.std()).all()

    def test_step_back_within_tolerance_is_accepted(self):
        mon = ComplianceMonitor((0.0, 20.0))
        mon.observe(_batch(0.0, np.full((5, 3), 100.0)))
        mon.observe(
            SampleBatch(
                times=np.array([4.0 - 1e-13, 5.0, 6.0, 6.0 - 1e-13, 7.0]),
                watts=np.full((5, 3), 100.0), node_ids=np.arange(3),
            )
        )
        assert mon.samples_seen == 30

    def test_refusal_leaves_the_stream_resumable(self):
        good = [_batch(4.0 * i, np.full((4, 3), 100.0 + i)) for i in range(3)]
        clean = ComplianceMonitor((0.0, 20.0))
        faulted = ComplianceMonitor((0.0, 20.0))
        for i, batch in enumerate(good):
            clean.observe(batch)
            faulted.observe(batch)
            if i == 0:
                watts = batch.watts.copy()
                watts[1, 2] = np.nan
                with pytest.raises(ValueError):
                    faulted.observe(_batch(10.0, watts))
        assert self._state(faulted) == self._state(clean)


class TestReadRightAfterObserve:
    """Every read folds what ``observe`` left pending, so a read made
    right after it sees the batch, whether the batch waits on the stack
    (below :data:`PENDING_SAMPLES` readings) or is folded at once (at
    it).  A first batch near 100 W and a second near 300 W make each
    read tell the two apart."""

    N_NODES = 8

    def _observed(self, size: str):
        rng = np.random.default_rng(11)
        n_second = {
            "below": 10,
            "at": monitor_module.PENDING_SAMPLES // self.N_NODES,
        }[size]
        ids = np.arange(self.N_NODES)
        common = rng.normal(0.0, 5.0, (5 + n_second, 1))
        watts = common + rng.normal(0.0, 1.0, (5 + n_second, self.N_NODES))
        watts[:5] += 100.0
        watts[5:] += 300.0
        times = np.arange(float(watts.shape[0]))
        mon = ComplianceMonitor((0.0, times[-1] + 1.0), quantiles=(0.5, 0.9))
        mon.observe(SampleBatch(times=times[:5], watts=watts[:5],
                                node_ids=ids))
        mon.flush()
        mon.observe(SampleBatch(times=times[5:], watts=watts[5:],
                                node_ids=ids))
        # The path the batch took: stacked below the cap, folded at it.
        assert (mon._pending is None) == (size == "at")
        return mon, times, watts

    @pytest.mark.parametrize("size", ["below", "at"])
    def test_node_moments(self, size):
        mon, _, watts = self._observed(size)
        moments = mon.node_moments
        assert moments.count == watts.shape[0]
        np.testing.assert_allclose(moments.mean, watts.mean(axis=0))

    @pytest.mark.parametrize("size", ["below", "at"])
    def test_report(self, size):
        mon, times, watts = self._observed(size)
        rep = mon.report()
        assert rep.samples_seen == watts.size
        assert rep.t_now_s == times[-1]
        # The rolling window holds the second batch's ticks.
        held = times >= times[-1] - monitor_module.ROLLING_HORIZON_S
        assert rep.rolling_span_s == times[-1] - times[held][0]
        assert rep.rolling_mean_w == pytest.approx(
            watts[held].mean(axis=1).mean()
        )

    @pytest.mark.parametrize("size", ["below", "at"])
    def test_quantiles_w(self, size):
        mon, _, watts = self._observed(size)
        got = mon.quantiles_w()
        for q in (0.5, 0.9):
            want = np.quantile(watts, q)
            assert abs(got[q] - want) <= 2 * QUANTILE_REL_ERROR * want

    @pytest.mark.parametrize("size", ["below", "at"])
    def test_correlation(self, size):
        mon, _, watts = self._observed(size)
        fleet = watts.mean(axis=1)
        want = [
            np.corrcoef(watts[:, j], fleet)[0, 1]
            for j in range(self.N_NODES)
        ]
        np.testing.assert_allclose(mon.correlation(), want)

    @pytest.mark.parametrize("size", ["below", "at"])
    def test_pickle_round_trip(self, size):
        mon, _, watts = self._observed(size)
        loaded = pickle.loads(pickle.dumps(mon))
        # The pickle carries the batch folded, not a pending stack.
        assert loaded._pending is None
        assert loaded._node_moments.count == watts.shape[0]
        assert loaded._sketch.count == watts.size
        assert loaded.report() == mon.report()


class TestInsufficientData:
    """Degenerate windows must not manufacture a compliance verdict."""

    def test_no_samples_is_flagged_not_judged(self, small_run):
        rep = _monitor_for(small_run).report()
        assert rep.insufficient_data
        assert not rep.interval_ok
        assert not rep.full_core_compliant
        assert not rep.legal_level1_window
        assert rep.window_fraction_covered == 0.0
        assert rep.worst_interval_s == np.inf
        assert rep.nodes_seen == 0
        assert rep.lines() == [
            "insufficient data: no samples observed — no compliance verdict"
        ]
        assert rep.to_dict()["insufficient_data"] is True

    def test_empty_batch_is_a_no_op(self, small_run):
        mon = _monitor_for(small_run)
        empty = SampleBatch(
            times=np.empty(0),
            watts=np.empty((0, small_run.system.n_nodes)),
            node_ids=np.arange(small_run.system.n_nodes, dtype=np.int64),
        )
        mon.observe(empty)
        assert mon.report().insufficient_data

    def test_any_real_sample_clears_the_flag(self, small_run):
        mon = _monitor_for(small_run)
        mon.observe(next(iter(replay_run(small_run, ticks_per_batch=4))))
        rep = mon.report()
        assert not rep.insufficient_data
        assert "insufficient" not in "\n".join(rep.lines())


def _rolling_model(ticks, capacity):
    """The rolling window as a queue: append each ``(t, w)`` tick, then
    drop the oldest past ``capacity`` and those more than the horizon
    (+1e-12 s) before the newest time seen, always keeping the newest
    tick."""
    held, newest = [], -np.inf
    for t, w in ticks:
        held.append((t, w))
        newest = max(newest, t)
        del held[:-capacity]
        cutoff = newest - monitor_module.ROLLING_HORIZON_S - 1e-12
        while len(held) > 1 and held[0][0] < cutoff:
            del held[0]
    return held


_STEPS = st.lists(
    st.sampled_from([0.0, -1e-13, 0.25, 1.0, 7.0, 60.0, 60.0 + 1.05e-12, 61.0]),
    min_size=1, max_size=120,
)
_FLEET = st.lists(
    st.floats(0.0, 1e4, allow_subnormal=False), min_size=120, max_size=120
)
_CUTS = st.sets(st.integers(1, 119), max_size=10)
_CAPACITY = st.sampled_from([1, 2, 3, 5, 11, 4096])


class TestRollingWindow:
    """``rolling_mean_w`` and ``rolling_span_s`` are the mean fleet
    power and the time span of the ticks the model holds."""

    # A step just past the horizon's 1e-12 s tolerance puts old ticks
    # on either side of the cut.  The first example keeps a tick below
    # the cut behind one above it (the window is cut at the first tick
    # inside, not filtered); the second cuts at the batch's latest
    # tick, not its last; the third cuts a batch that steps back at the
    # latest tick of the one before, once the capacity has dropped the
    # tick that sat inside the horizon.
    @example(steps=[0.0, -1e-13, 60.0 + 1.05e-12, -1e-13],
             fleet=[float(i) for i in range(120)], cuts=set(), capacity=4096)
    @example(steps=[0.0, 60.0 + 1.05e-12, -1e-13],
             fleet=[float(i) for i in range(120)], cuts=set(), capacity=4096)
    @example(steps=[0.0, -1e-13, 60.0 + 1.05e-12, -1e-13],
             fleet=[float(i) for i in range(120)], cuts={3}, capacity=3)
    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS, fleet=_FLEET, cuts=_CUTS, capacity=_CAPACITY)
    def test_report_equals_the_model(self, steps, fleet, cuts, capacity):
        times = 100.0 + np.cumsum(steps)
        fleet_w = np.array(fleet[: times.size])
        bounds = [0, *sorted(c for c in cuts if c < times.size), times.size]
        mon = ComplianceMonitor((0.0, 1e4))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monitor_module, "ROLLING_CAPACITY", capacity)
            for a, b in zip(bounds[:-1], bounds[1:]):
                mon.observe(
                    SampleBatch(
                        times=times[a:b], watts=np.ones((b - a, 2)),
                        node_ids=np.arange(2),
                    ),
                    fleet_w=fleet_w[a:b],
                )
                held = _rolling_model(
                    zip(times[:b].tolist(), fleet_w[:b].tolist()), capacity
                )
                rep = mon.report()
                assert rep.rolling_mean_w == np.array(held)[:, 1].mean()
                assert rep.rolling_span_s == held[-1][0] - held[0][0]

    # The model's third example, pushed as one stack.
    @example(steps=[0.0, -1e-13, 60.0 + 1.05e-12, -1e-13],
             fleet=[float(i) for i in range(120)], cuts={3}, capacity=3,
             reads=set())
    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS, fleet=_FLEET, cuts=_CUTS, capacity=_CAPACITY,
           reads=st.sets(st.integers(0, 10), max_size=4))
    def test_stacked_fold_equals_the_model(
        self, steps, fleet, cuts, capacity, reads
    ):
        # observe leaves the window to the fold on read, so a report
        # after batch i (for i in ``reads``) and one at the end cut a
        # stack of the batches since the last read.
        times = 100.0 + np.cumsum(steps)
        fleet_w = np.array(fleet[: times.size])
        bounds = [0, *sorted(c for c in cuts if c < times.size), times.size]
        fold = ComplianceMonitor((0.0, 1e4), required_interval_s=1.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monitor_module, "ROLLING_CAPACITY", capacity)
            for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                fold.observe(
                    SampleBatch(
                        times=times[a:b], watts=np.ones((b - a, 2)),
                        node_ids=np.arange(2),
                    ),
                    fleet_w[a:b],
                )
                if i in reads or b == times.size:
                    held = _rolling_model(
                        zip(times[:b].tolist(), fleet_w[:b].tolist()),
                        capacity,
                    )
                    rep = fold.report()
                    assert rep.rolling_mean_w == np.array(held)[:, 1].mean()
                    assert rep.rolling_span_s == held[-1][0] - held[0][0]

    def test_high_cadence_fills_the_capacity(self):
        # 5,000 ticks at 100 Hz span 50 s, inside the 60 s horizon, so
        # the capacity alone bounds the window.
        n, cap = 5000, monitor_module.ROLLING_CAPACITY
        assert n > cap
        times = np.arange(n) * 0.01
        watts = 200.0 + np.sin(np.arange(n))[:, None]
        mon = ComplianceMonitor((0.0, 100.0), required_interval_s=0.01)
        for a in range(0, n, 700):
            mon.observe(
                SampleBatch(
                    times=times[a:a + 700], watts=watts[a:a + 700],
                    node_ids=np.arange(1),
                )
            )
        rep = mon.report()
        assert rep.rolling_span_s == times[-1] - times[-cap]
        assert rep.rolling_mean_w == watts[-cap:, 0].mean()
        assert rep.samples_seen == n


def _dense_flags(mon: ComplianceMonitor) -> tuple[tuple, tuple]:
    """The per-node flag loop ``report()`` replaced: one ``NodeFlags``
    per node, filtered afterwards.  Kept as the reference the sparse
    report must equal field for field, in node order."""
    if (
        mon._node_ids is None
        or mon.node_moments.count < MIN_SAMPLES_FOR_FLAGS
    ):
        return (), ()
    means = np.asarray(mon.node_moments.mean)
    fleet_mu = float(means.mean())
    fleet_sd = float(means.std(ddof=1)) if means.size > 1 else 0.0
    if fleet_sd > 0:
        z = (means - fleet_mu) / fleet_sd
    else:
        z = np.zeros_like(means)
    flags = [
        NodeFlags(
            node_id=int(nid),
            z_score=float(zi),
            flagged_outlier=bool(abs(zi) > OUTLIER_Z),
            excursion_count=int(exc),
        )
        for nid, zi, exc in zip(mon._node_ids, z, mon._excursions)
    ]
    return (
        tuple(f for f in flags if f.flagged_outlier),
        tuple(f for f in flags if f.excursion_count > 0),
    )


def _flag_fields(flags) -> list[tuple]:
    """Every field of each flag, the z-score as its exact bits."""
    return [
        (type(f.node_id), f.node_id, f.z_score.hex(),
         type(f.flagged_outlier), f.flagged_outlier,
         type(f.excursion_count), f.excursion_count)
        for f in flags
    ]


class TestSparseFlags:
    """``report()`` builds flags only for flagged nodes, and its flag
    tuples equal the dense per-node loop's, field by field, in order."""

    @staticmethod
    def _fleet(n_nodes, n_ticks, seed, flat, hot, steps) -> np.ndarray:
        rng = np.random.default_rng(seed)
        if flat:
            watts = np.full((n_ticks, n_nodes), 250.0)
        else:
            level = rng.uniform(240.0, 260.0, n_nodes)
            watts = level + rng.normal(0.0, 2.0, (n_ticks, n_nodes))
        for node in hot:
            watts[:, node % n_nodes] *= 10.0
        for node in steps:
            watts[40:, node % n_nodes] += 120.0
        return watts

    @staticmethod
    def _observe(watts, ticks_per_batch, n_shards) -> ComplianceMonitor:
        n_ticks, n_nodes = watts.shape
        cuts = np.linspace(0, n_nodes, n_shards + 1).astype(int)
        shards = [
            ComplianceMonitor((0.0, float(n_ticks)))
            for _ in range(n_shards)
        ]
        ids = np.arange(n_nodes, dtype=np.int64)
        for t0 in range(0, n_ticks, ticks_per_batch):
            rows = watts[t0:t0 + ticks_per_batch]
            times = np.arange(t0, t0 + rows.shape[0], dtype=float)
            fleet_w = rows.mean(axis=1)
            for mon, lo, hi in zip(shards, cuts[:-1], cuts[1:]):
                mon.observe(
                    SampleBatch(
                        times=times, watts=rows[:, lo:hi],
                        node_ids=ids[lo:hi],
                    ),
                    fleet_w=(None if n_shards == 1 else fleet_w),
                )
        if n_shards == 1:
            return shards[0]
        return ComplianceMonitor.merge_shards(shards)

    @settings(max_examples=60, deadline=None)
    @example(n_nodes=18, n_ticks=29, seed=0, flat=False, hot=[0],
             steps=[], ticks_per_batch=29, n_shards=1)
    @example(n_nodes=18, n_ticks=30, seed=0, flat=False, hot=[0],
             steps=[], ticks_per_batch=30, n_shards=1)
    @example(n_nodes=24, n_ticks=60, seed=1, flat=True, hot=[],
             steps=[], ticks_per_batch=7, n_shards=3)
    @example(n_nodes=24, n_ticks=90, seed=2, flat=False, hot=[5],
             steps=[5, 11], ticks_per_batch=10, n_shards=4)
    @given(
        n_nodes=st.sampled_from([2, 5, 17, 18, 24, 40]),
        n_ticks=st.sampled_from([29, 30, 31, 60, 90]),
        seed=st.integers(0, 2**32 - 1),
        flat=st.booleans(),
        hot=st.lists(st.integers(0, 39), max_size=3),
        steps=st.lists(st.integers(0, 39), max_size=3),
        ticks_per_batch=st.sampled_from([1, 7, 10, 30, 90]),
        n_shards=st.integers(1, 4),
    )
    def test_report_flags_equal_dense_reference(
        self, n_nodes, n_ticks, seed, flat, hot, steps, ticks_per_batch,
        n_shards,
    ):
        watts = self._fleet(n_nodes, n_ticks, seed, flat, hot, steps)
        mon = self._observe(watts, ticks_per_batch, min(n_shards, n_nodes))
        rep = mon.report()
        outliers, excursions = _dense_flags(mon)
        assert _flag_fields(rep.outlier_nodes) == _flag_fields(outliers)
        assert _flag_fields(rep.excursion_nodes) == _flag_fields(excursions)
        assert rep.outlier_nodes == outliers
        assert rep.excursion_nodes == excursions

    def test_flags_built_only_for_flagged_nodes(self, monkeypatch):
        watts = self._fleet(1024, 90, 7, False, [3, 700], [41])
        mon = self._observe(watts, 30, 1)
        built = []

        def counting_flags(**fields):
            built.append(fields["node_id"])
            return NodeFlags(**fields)

        monkeypatch.setattr(monitor_module, "NodeFlags", counting_flags)
        rep = mon.report()
        flagged = sorted(
            {f.node_id for f in rep.outlier_nodes + rep.excursion_nodes}
        )
        assert flagged == [3, 41, 700]
        assert built == flagged

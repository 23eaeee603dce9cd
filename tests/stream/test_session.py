"""Tests for repro.stream.session (end-to-end pipeline)."""

import json
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.cluster.system import SystemModel
from repro.cluster.thermal import FanController
from repro.cluster.variability import ManufacturingVariation
from repro.core.confidence import finite_population_correction, t_quantile
from repro.stream.ingest import SampleBatch, replay_run
from repro.stream.monitor import ComplianceMonitor
from repro.stream.session import LiveStreamState, stream_session
from repro.stream.stopping import SequentialStopper
from repro.traces.synth import simulate_run
from repro.workloads.base import ConstantWorkload


@pytest.fixture()
def session_result(small_run, core_matrix):
    _, watts = core_matrix
    result = stream_session(
        small_run, accuracy=0.05, report_every_s=300.0
    )
    return result, watts


class TestStreamSession:
    def test_moments_match_batch(self, session_result):
        result, watts = session_result
        flat = watts.ravel()
        assert float(np.asarray(result.fleet_moments.mean)) == pytest.approx(
            flat.mean(), rel=1e-12
        )
        assert float(np.asarray(result.fleet_moments.std())) == pytest.approx(
            flat.std(ddof=1), rel=1e-12
        )
        assert result.samples_ingested == flat.size

    def test_node_moments_match_batch(self, session_result):
        result, watts = session_result
        np.testing.assert_allclose(
            np.asarray(result.node_moments.mean), watts.mean(axis=0),
            rtol=1e-12,
        )

    def test_quantiles_close_to_batch(self, session_result):
        # The sketch sits within α = 0.5% of the order statistic; 1%
        # leaves room for np.quantile's interpolation between neighbours.
        result, watts = session_result
        flat = watts.ravel()
        for q, est in result.quantiles_w.items():
            assert est == pytest.approx(
                float(np.quantile(flat, q)), rel=0.01
            )

    def test_quantile_bound_is_stated(self, session_result):
        result, _ = session_result
        assert result.to_dict()["quantile_rel_error"] == 0.005

    def test_compliance_and_stopping(self, session_result):
        result, _ = session_result
        assert result.monitor_report.full_core_compliant
        assert result.monitor_report.interval_ok
        assert result.stopping.should_stop
        assert result.stopped_at_nodes is not None
        assert result.stopped_at_nodes <= 32

    def test_snapshots_cadence(self, session_result):
        result, _ = session_result
        assert len(result.snapshots) >= 4
        t = [s.t_s for s in result.snapshots]
        assert t == sorted(t)

    def test_everything_consumed_without_loss(self, session_result):
        result, watts = session_result
        assert result.fleet_moments.count == watts.size

    def test_subset_session(self, small_run):
        idx = np.arange(8)
        result = stream_session(
            small_run, node_indices=idx, accuracy=0.5,
            report_every_s=300.0,
        )
        assert result.node_moments.shape == (8,)
        assert result.stopping.n_observed == 8

    def test_invalid_arguments(self, small_run):
        with pytest.raises(ValueError, match="report_every_s"):
            stream_session(small_run, report_every_s=0.0)
        with pytest.raises(ValueError, match="report_every_s"):
            stream_session(small_run, report_every_s=float("nan"))
        with pytest.raises(ValueError, match="quantiles"):
            stream_session(small_run, quantiles=(1.5,))

    def test_json_round_trip(self, session_result):
        result, _ = session_result
        text = json.dumps(result.to_dict(), default=float)
        parsed = json.loads(text)
        assert parsed["samples_ingested"] == result.samples_ingested
        assert "monitor" in parsed and "stopping" in parsed

    def test_render_text(self, session_result):
        result, _ = session_result
        text = result.render_text()
        assert "final stream state" in text
        assert "sequential stopping" in text


class TestFleetFoldRefusal:
    @pytest.mark.parametrize("bad", [-5.0, float("nan"), float("inf")])
    def test_refused_batch_leaves_fold_unchanged(self, small_run, bad):
        batches = list(small_run.stream_run(ticks_per_batch=30))
        fold = ComplianceMonitor(
            small_run.core_window, required_interval_s=1.0
        )
        fold.observe(batches[0], batches[0].fleet_means())
        before = (
            fold.samples_seen,
            fold.sketch.count,
            fold.covar.count,
            fold.report().to_dict(),
        )
        watts = batches[1].watts.copy()
        watts[3, 1] = bad
        poisoned = SampleBatch(
            times=batches[1].times, watts=watts,
            node_ids=batches[1].node_ids,
        )
        with pytest.raises(ValueError, match="finite and non-negative"):
            fold.observe(poisoned, batches[1].fleet_means())
        after = (
            fold.samples_seen,
            fold.sketch.count,
            fold.covar.count,
            fold.report().to_dict(),
        )
        assert after == before

    @pytest.mark.parametrize("bad", ["nan", "inf", "short", "long", "2d"])
    def test_bad_fleet_series_leaves_fold_unchanged(self, bad):
        # A fleet series that is not one finite mean per tick is refused
        # before the monitor, the fleet series, the sketch or the
        # covariance moves, so the fold stays usable.
        rng = np.random.default_rng(3)
        ids = np.arange(5)

        def batch(t0_s: float) -> SampleBatch:
            return SampleBatch(
                times=np.arange(t0_s, t0_s + 4.0),
                watts=rng.uniform(200.0, 300.0, (4, 5)),
                node_ids=ids,
            )

        fold = ComplianceMonitor((0.0, 100.0), required_interval_s=1.0)
        first = batch(0.0)
        fold.observe(first, first.fleet_means())
        nxt = batch(4.0)
        fleet_w = nxt.fleet_means()
        bad_w = {
            "nan": np.where(np.arange(4) == 1, np.nan, fleet_w),
            "inf": np.where(np.arange(4) == 2, np.inf, fleet_w),
            "short": fleet_w[:3],
            "long": np.append(fleet_w, 250.0),
            "2d": fleet_w[None],
        }[bad]
        before = _state(fold)
        with pytest.raises(ValueError, match="fleet_w"):
            fold.observe(nxt, bad_w)
        assert _state(fold) == before
        fold.observe(nxt, fleet_w)
        assert fold.samples_seen == 40
        assert np.isfinite(fold.correlation()).all()


    @pytest.mark.parametrize(
        "times",
        [
            np.arange(2.0, 7.0),  # goes back across batches
            np.array([5.0, 6.0, 7.0, 6.5, 8.0]),  # goes back within itself
        ],
        ids=["across-batches", "within-batch"],
    )
    def test_out_of_order_batch_leaves_fold_unchanged(self, times):
        # Refused once, before any estimator moves: the monitor's
        # moments used to take the batch before the ring refused it,
        # which left the covariance's marginals out of step.
        rng = np.random.default_rng(4)
        ids = np.arange(6)
        fold = ComplianceMonitor((0.0, 100.0), required_interval_s=1.0)
        first = SampleBatch(
            times=np.arange(5.0), watts=rng.uniform(200.0, 300.0, (5, 6)),
            node_ids=ids,
        )
        fold.observe(first, first.fleet_means())
        late = SampleBatch(
            times=times, watts=rng.uniform(200.0, 300.0, (5, 6)),
            node_ids=ids,
        )
        before = pickle.dumps(fold)
        with pytest.raises(ValueError, match="non-decreasing"):
            fold.observe(late, late.fleet_means())
        assert pickle.dumps(fold) == before
        nxt = SampleBatch(
            times=np.arange(5.0, 10.0),
            watts=rng.uniform(200.0, 300.0, (5, 6)), node_ids=ids,
        )
        fold.observe(nxt, nxt.fleet_means())
        assert np.isfinite(fold.correlation()).all()

    @pytest.mark.parametrize(
        "bad_w", [[250.0], [[]], [np.nan]], ids=["long", "2d", "nan"]
    )
    def test_zero_tick_batch_still_checks_its_fleet_series(self, bad_w):
        # An empty flush folds nothing, but a fleet series that is not
        # one mean per tick is refused before the early return.
        ids = np.arange(4)
        fold = ComplianceMonitor((0.0, 100.0), required_interval_s=1.0)
        first = SampleBatch(
            times=np.arange(3.0), watts=np.full((3, 4), 250.0), node_ids=ids
        )
        fold.observe(first, first.fleet_means())
        empty = SampleBatch(
            times=np.empty(0), watts=np.empty((0, 4)), node_ids=ids
        )
        before = pickle.dumps(fold)
        with pytest.raises(ValueError, match="fleet_w"):
            fold.observe(empty, np.array(bad_w))
        assert pickle.dumps(fold) == before
        fold.observe(empty, empty.fleet_means())
        assert pickle.dumps(fold) == before


class TestReplayFootprint:
    def test_replay_never_holds_the_full_core_matrix(self, cpu_config):
        """``stream_session`` streams its batches: its peak traced
        allocation stays below one full core-phase matrix."""
        system = SystemModel(
            "footprint", 256, cpu_config,
            variation=ManufacturingVariation(sigma=0.02),
            fan_controller=FanController(
                fan_model=cpu_config.fan, reference_watts=300.0
            ),
            seed=7,
        )
        workload = ConstantWorkload(
            core_s=1800.0, setup_s=20.0, teardown_s=10.0
        )
        run = simulate_run(system, workload, dt=1.0, seed=7)
        n_ticks = int(run._in_span(*run.core_window).sum())
        matrix_bytes = n_ticks * system.n_nodes * 8
        tracemalloc.start()
        try:
            result = stream_session(run)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.samples_ingested == n_ticks * system.n_nodes
        assert peak < matrix_bytes, (peak, matrix_bytes)


class TestTinyFleetMean:
    """A fleet mean below ``FLEET_W_FLOOR`` is no reference for a power
    ratio: its tick is judged like a 0 W one, every ratio 1."""

    @staticmethod
    def _fold(fleet: np.ndarray, watts: np.ndarray, ticks: range, fold=None):
        if fold is None:
            fold = ComplianceMonitor((0.0, 200.0), required_interval_s=1.0)
        ids = np.arange(watts.shape[1])
        for k in ticks:
            fold.observe(
                SampleBatch(times=np.array([float(k)]),
                            watts=watts[k:k + 1], node_ids=ids),
                fleet[k:k + 1],
            )
        return fold

    def test_excursion_judge_survives_a_tiny_mean(self):
        # 120 one-tick pushes on 4 nodes at 300 W; tick 40 carries a
        # 3.65e-250 W fleet mean and from tick 80 node 1 reads 10x.  Its
        # ratio to that mean squared used to overflow the ratio moments,
        # so their spread read NaN: every node flagged once, on the tiny
        # tick, and node 1's step never flagged.
        watts = np.full((120, 4), 300.0)
        watts[80:, 1] = 3000.0
        control = watts.mean(axis=1)
        fleet = control.copy()
        fleet[40] = 3.65e-250
        fold = self._fold(fleet, watts, range(40))
        before = pickle.dumps(fold)
        self._fold(fleet, watts, range(40, 41), fold)
        after = pickle.loads(pickle.dumps(fold))
        ratio = after._ratio_moments
        assert np.isfinite(ratio.std()).all()
        assert not after._excursions.any()
        # The tiny tick left the ratio moments as a tick at the control
        # mean (every ratio 1) would have.
        plain = self._fold(control, watts, range(40, 41),
                           pickle.loads(before))
        plain.flush()
        for name in ("_s1", "_s2"):
            assert getattr(ratio, name).tobytes() == getattr(
                plain._ratio_moments, name
            ).tobytes()
        self._fold(fleet, watts, range(41, 120), after)
        self._fold(control, watts, range(41, 120), plain)
        flags = {f.node_id: f.excursion_count
                 for f in after.report().excursion_nodes}
        assert flags[1] > 0
        assert flags == {f.node_id: f.excursion_count
                         for f in plain.report().excursion_nodes}


class TestOneDecisionPerFoldState:
    """The stopping decision is Eq. 1–5 over the fold's node means,
    read at the current fold state (every route's final decision is
    held equal by ``tests/test_route_equivalence.py``)."""

    def test_live_read_at_the_final_state_equals_finalize(self, small_run):
        state = LiveStreamState(
            population=small_run.system.n_nodes,
            core_window=small_run.core_window,
            required_interval_s=small_run.dt,
            accuracy=0.05,
        )
        for batch in replay_run(small_run, ticks_per_batch=45):
            state.push(batch)
        live = state.verdict().stopping
        assert state.finalize() == live
        assert state.result().stopping == live

    def test_mid_stream_verdict_is_eq_1_to_5_over_running_means(
        self, small_run
    ):
        n, population = small_run.system.n_nodes, 100
        state = LiveStreamState(
            population=population,
            core_window=small_run.core_window,
            required_interval_s=small_run.dt,
            accuracy=0.05,
            report_every_s=1e9,
        )
        batches = list(replay_run(small_run, ticks_per_batch=30))
        for batch in batches[: len(batches) // 3]:
            state.push(batch)
        got = state.verdict().stopping
        running = np.asarray(state.fold.node_moments.mean)
        assert got == SequentialStopper(
            accuracy=0.05, population=population
        ).update_many(running)
        # The Eq. 1 relative half-width, evaluated independently.
        mu, sd = running.mean(), running.std(ddof=1)
        achieved = (
            t_quantile(0.95, n - 1) * sd / mu / np.sqrt(n)
            * finite_population_correction(n, population)
        )
        assert 0.0 < achieved < np.inf
        assert got.n_observed == n
        assert got.achieved_lambda == pytest.approx(achieved, abs=1e-15)
        assert got.interval.mean == pytest.approx(mu, rel=1e-12)
        assert got.should_stop == (achieved <= 0.05)

    def test_decision_is_computed_once_per_fold_state(
        self, small_run, monkeypatch
    ):
        calls = []
        decide = SequentialStopper.decide

        def counted(*args, **kwargs):
            calls.append(1)
            return decide(*args, **kwargs)

        monkeypatch.setattr(SequentialStopper, "decide", counted)
        state = LiveStreamState(
            population=small_run.system.n_nodes,
            core_window=small_run.core_window,
            required_interval_s=small_run.dt,
            report_every_s=1e9,
        )
        batches = list(replay_run(small_run, ticks_per_batch=60))
        state.push(batches[0])
        calls.clear()
        state.verdict()
        state.verdict()
        assert len(calls) == 1
        state.push(batches[1])
        assert len(calls) == 1
        state.verdict()
        state.finalize()
        assert len(calls) == 2


class TestLiveStateRefusal:
    def test_batch_wider_than_the_population_leaves_state_unchanged(
        self, small_run
    ):
        batches = list(replay_run(small_run, ticks_per_batch=60))
        state = LiveStreamState(
            population=8,
            core_window=small_run.core_window,
            required_interval_s=small_run.dt,
        )
        for wide in batches[:2]:
            before = pickle.dumps(vars(state))
            with pytest.raises(ValueError, match="population"):
                state.push(wide)
            assert pickle.dumps(vars(state)) == before
        assert state.samples_ingested == 0
        narrow = SampleBatch(
            times=batches[0].times, watts=batches[0].watts[:, :8],
            node_ids=batches[0].node_ids[:8],
        )
        state.push(narrow)
        assert state.verdict().stopping.n_observed == 8

    @pytest.mark.parametrize("pushed_before", [0, 1])
    def test_ticks_without_nodes_are_refused_up_front(self, pushed_before):
        # A RuntimeWarning is an error here, so the refusal must come
        # before any mean over the empty node set is taken.
        state = LiveStreamState(
            population=4, core_window=(0.0, 10.0), required_interval_s=1.0
        )
        if pushed_before:
            state.push(SampleBatch(
                times=np.arange(2.0), watts=np.full((2, 4), 250.0),
                node_ids=np.arange(4),
            ))
        before = pickle.dumps(vars(state))
        with pytest.raises(ValueError, match="empty node set"):
            state.push(SampleBatch(
                times=np.arange(2.0, 5.0), watts=np.empty((3, 0)),
                node_ids=np.arange(0),
            ))
        assert pickle.dumps(vars(state)) == before

    @pytest.mark.parametrize("read_between", [False, True])
    def test_non_finite_tick_is_refused(self, read_between):
        # A NaN tick stacked with a 49 s gap used to make the stack's
        # worst step NaN, so the gap read as met unless a read had
        # folded it first.
        state = LiveStreamState(
            population=4, core_window=(0.0, 50.0), required_interval_s=1.0
        )
        state.push(SampleBatch(
            times=np.array([0.0, 1.0, 50.0]), watts=np.full((3, 4), 250.0),
            node_ids=np.arange(4),
        ))
        if read_between:
            state.verdict()
        before = pickle.dumps(vars(state))
        with pytest.raises(ValueError, match="finite"):
            state.push(SampleBatch(
                times=np.array([np.nan]), watts=np.full((1, 4), 250.0),
                node_ids=np.arange(4),
            ))
        assert pickle.dumps(vars(state)) == before
        report = state.verdict().monitor
        assert report.worst_interval_s == 49.0
        assert not report.interval_ok

    def test_zero_watt_nodes_read_as_not_met(self):
        # Two powered-off nodes in a 16-node batch: the fold accepts
        # 0 W readings, and reading the verdict never raises.
        watts = np.full((5, 16), 250.0)
        watts[:, :2] = 0.0
        state = LiveStreamState(
            population=16, core_window=(0.0, 5.0), required_interval_s=1.0
        )
        state.push(SampleBatch(
            times=np.arange(5.0), watts=watts, node_ids=np.arange(16)
        ))
        assert state.samples_ingested == 80
        assert state.verdict().stopping.n_observed == 16
        stopping = state.finalize()
        assert stopping.n_observed == 16 and stopping.interval is not None
        state = LiveStreamState(
            population=16, core_window=(0.0, 5.0), required_interval_s=1.0
        )
        state.push(SampleBatch(
            times=np.arange(5.0), watts=np.zeros((5, 16)),
            node_ids=np.arange(16),
        ))
        stopping = state.finalize()
        assert not stopping.should_stop and stopping.interval is None
        assert stopping.achieved_lambda == float("inf")
        assert state.result().stopped_at_nodes is None


def _state(obj):
    """Every field of an object, nested estimators included, as exact
    bytes and reprs: two equal results mean equal state."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, np.generic):
        return (type(obj).__name__, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return tuple(_state(item) for item in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return repr(obj)
    names = getattr(type(obj), "__slots__", None) or sorted(vars(obj))
    return (
        type(obj).__name__,
        tuple((name, _state(getattr(obj, name))) for name in names),
    )

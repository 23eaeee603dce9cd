"""Tests for repro.stream.session (end-to-end pipeline)."""

import asyncio
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.components import CpuModel, DramModel, FanModel
from repro.cluster.node import NodeConfig
from repro.cluster.system import SystemModel
from repro.cluster.thermal import FanController
from repro.cluster.variability import ManufacturingVariation
from repro.core.confidence import finite_population_correction, t_quantile
from repro.stream.ingest import SampleBatch, replay_run
from repro.stream.session import LiveStreamState, stream_session
from repro.stream.stopping import SequentialStopper
from repro.traces.synth import simulate_run
from repro.workloads.hpl import HplWorkload


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

    def test_quantiles_independent_of_batching(self, small_run):
        one = stream_session(small_run, ticks_per_batch=60)
        other = stream_session(small_run, ticks_per_batch=7)
        assert one.quantiles_w == other.quantiles_w

    def test_moments_independent_of_route_and_batching(self, small_run):
        # Node and fleet moments are the same bits whichever route and
        # batching folded the rows.
        from repro.shard.engine import sharded_session

        results = [
            stream_session(small_run, ticks_per_batch=60),
            stream_session(small_run, ticks_per_batch=30),
            sharded_session(small_run, n_shards=1),
            sharded_session(small_run, n_shards=4),
        ]

        def node_bits(r):
            m = r.node_moments
            return [np.asarray(v) for v in (
                m.mean, m.variance(), m.minimum, m.maximum
            )]

        def fleet_bits(r):
            m = r.fleet_moments
            return (m.count, m.mean, m.variance(), m.minimum, m.maximum)

        first = results[0]
        for other in results[1:]:
            assert all(
                np.array_equal(a, b)
                for a, b in zip(node_bits(other), node_bits(first))
            )
            assert fleet_bits(other) == fleet_bits(first)
            assert other.node_fleet_correlation == (
                first.node_fleet_correlation
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
        assert result.queue_high_watermark >= 1
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
        from repro.stream.ingest import SampleBatch
        from repro.stream.session import FleetFold

        batches = list(small_run.stream_run(ticks_per_batch=30))
        fold = FleetFold(small_run.core_window, required_interval_s=1.0)
        fold.push(batches[0], batches[0].fleet_means())
        before = (
            fold.monitor.samples_seen,
            fold.sketch.count,
            fold.covar.count,
            fold.monitor.report().to_dict(),
        )
        watts = batches[1].watts.copy()
        watts[3, 1] = bad
        poisoned = SampleBatch(
            times=batches[1].times, watts=watts,
            node_ids=batches[1].node_ids,
        )
        with pytest.raises(ValueError, match="finite and non-negative"):
            fold.push(poisoned, batches[1].fleet_means())
        after = (
            fold.monitor.samples_seen,
            fold.sketch.count,
            fold.covar.count,
            fold.monitor.report().to_dict(),
        )
        assert after == before

    @pytest.mark.parametrize("bad", ["nan", "inf", "short", "long", "2d"])
    def test_bad_fleet_series_leaves_fold_unchanged(self, bad):
        # A fleet series that is not one finite mean per tick is refused
        # before the monitor, the fleet series, the sketch or the
        # covariance moves, so the fold stays usable.
        from repro.stream.ingest import SampleBatch
        from repro.stream.session import FleetFold

        rng = np.random.default_rng(3)
        ids = np.arange(5)

        def batch(t0_s: float) -> SampleBatch:
            return SampleBatch(
                times=np.arange(t0_s, t0_s + 4.0),
                watts=rng.uniform(200.0, 300.0, (4, 5)),
                node_ids=ids,
            )

        fold = FleetFold((0.0, 100.0), required_interval_s=1.0)
        first = batch(0.0)
        fold.push(first, first.fleet_means())
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
            fold.push(nxt, bad_w)
        assert _state(fold) == before
        fold.push(nxt, fleet_w)
        assert fold.monitor.samples_seen == 40
        assert np.isfinite(fold.correlation()).all()


def _cpu_run(n_nodes: int, core_s: float, seed: int):
    """HPL out-of-core on a small CPU fleet at 1 Hz."""
    config = NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        dram=DramModel.for_capacity(32.0),
        fan=FanModel(max_watts=40.0),
        other_watts=20.0,
    )
    system = SystemModel(
        f"decide-{n_nodes}",
        n_nodes,
        config,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(
            fan_model=config.fan, reference_watts=300.0
        ),
        seed=seed,
    )
    workload = HplWorkload.cpu_out_of_core(
        core_s, setup_s=10.0, teardown_s=5.0
    )
    return simulate_run(system, workload, dt=1.0, seed=seed)


def _served(run, batches, *, accuracy: float, rpwr: bool) -> dict:
    """The close summary of a served session fed ``batches``."""
    from repro.serve import ServiceConfig, TelemetryApp, make_request
    from repro.serve.app import RPWR_CONTENT_TYPE
    from repro.stream.ingest import SimClock
    from repro.wire.session import WireWriter

    t0_s, t1_s = run.core_window
    config = {
        "population": run.system.n_nodes,
        "core_t0_s": t0_s,
        "core_t1_s": t1_s,
        "interval_s": max(run.dt, 1.0),
        "accuracy": accuracy,
    }
    if rpwr:
        writer = WireWriter(codec="raw64")
        bodies = [writer.write(b).data for b in batches]
        content_type = RPWR_CONTENT_TYPE
    else:
        bodies = [
            json.dumps({
                "times": b.times.tolist(),
                "watts": b.watts.tolist(),
                "node_ids": b.node_ids.tolist(),
            }).encode()
            for b in batches
        ]
        content_type = "application/json"

    async def scenario():
        app = TelemetryApp(SimClock(dt_s=1.0), ServiceConfig())
        created = await app.dispatch(make_request(
            "POST", "/v1/sessions", tenant="acme",
            body=json.dumps(config).encode(),
        ))
        sid = json.loads(created.body)["session"]["session_id"]
        for data in bodies:
            response = await app.dispatch(make_request(
                "POST", f"/v1/sessions/{sid}/batches", tenant="acme",
                body=data, content_type=content_type,
            ))
            assert response.status == 202
        closed = await app.dispatch(make_request(
            "DELETE", f"/v1/sessions/{sid}", tenant="acme"
        ))
        assert closed.status == 200
        return json.loads(closed.body)["summary"]

    return asyncio.run(scenario())


def _json_bits(obj):
    """``obj`` after the JSON round trip a served summary takes."""
    return json.loads(json.dumps(obj, default=float))


class TestOneDecisionPerFoldState:
    """The stopping decision is Eq. 1–5 over the fold's node means, so
    every route and every batching reads the same bits."""

    @settings(max_examples=4, deadline=None)
    @given(
        n_nodes=st.integers(8, 20),
        core_s=st.integers(20, 70),
        seed=st.integers(0, 2**16),
        accuracy=st.sampled_from([0.002, 0.01, 0.05]),
    )
    def test_final_decision_is_route_and_batching_independent(
        self, n_nodes, core_s, seed, accuracy
    ):
        from repro.shard.engine import sharded_session

        run = _cpu_run(n_nodes, float(core_s), seed)
        finals = []
        for ticks in (1, 7, 30, 60):
            result = stream_session(
                run, ticks_per_batch=ticks, accuracy=accuracy
            )
            finals.append(
                (result.stopping.to_dict(), result.stopped_at_nodes)
            )
        rule = dict(accuracy=accuracy, population=n_nodes)
        for shards in (1, 3, 4, 8):
            result = sharded_session(
                run, n_shards=shards, accuracy=accuracy
            )
            prefixes = SequentialStopper(**rule)
            prefixes.update_many(result.node_moments.mean)
            finals.append((result.stopping.to_dict(), prefixes.stopped_at))
        expected = _json_bits(finals[0])
        assert all(_json_bits(f) == expected for f in finals)
        for ticks, rpwr in ((5, False), (9, True)):
            summary = _served(
                run, list(replay_run(run, ticks_per_batch=ticks)),
                accuracy=accuracy, rpwr=rpwr,
            )
            served = [summary["stopping"], summary["stopped_at_nodes"]]
            assert served == expected

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
        running = np.asarray(state.fold.monitor.node_moments.mean)
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

"""One fold state for every route a sample can take (hypothesis).

The paper's rule measures the full core phase and then sizes the node
sample with Eq. 1–5 over the node means, so a verdict may depend only
on which samples arrived, never on how they arrived.  One seeded run is
folded through every route:

* the replay, :func:`~repro.stream.session.stream_session`, at any
  batching;
* the shard kernel, :func:`~repro.shard.engine.run_shard` +
  :func:`~repro.shard.reduce.reduce_states`, over any contiguous node
  partition, and :func:`~repro.shard.engine.sharded_session` at any
  shard count;
* the service, :meth:`~repro.serve.app.TelemetryApp.dispatch`, with
  JSON bodies at any batching, and with lossless ``raw64`` RPWR frames
  whose byte stream is cut at arbitrary points;
* the wire chaos harness, :func:`~repro.wire.chaos.run_wire_chaos`,
  with an empty fault plan.

Every route must give the same bits for the node moments, the pooled
fleet moments, the quantiles, the node-vs-fleet correlation, the
stopping decision and the first stopping prefix, the same quality label
(wire provenance aside) and the same sample count.  The monitor judges
excursions per batch, so each route's monitor report is compared with
the replay's at that route's own batching.  Every route's output is
also held to the bounds the estimators state.
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.components import CpuModel, DramModel, FanModel
from repro.cluster.node import NodeConfig
from repro.cluster.system import SystemModel
from repro.cluster.thermal import FanController
from repro.cluster.variability import ManufacturingVariation
from repro.faults.recovery import fold_quality_report
from repro.serve import ServiceConfig, TelemetryApp, make_request
from repro.serve.app import RPWR_CONTENT_TYPE
from repro.shard.engine import (
    fleet_reference,
    run_shard,
    shard_rows,
    sharded_session,
)
from repro.shard.plan import ShardPlan, ShardSpec
from repro.shard.reduce import reduce_states
from repro.stream.estimators import QUANTILE_REL_ERROR
from repro.stream.ingest import SimClock, replay_run
from repro.stream.session import stream_session
from repro.stream.stopping import SequentialStopper
from repro.traces.synth import simulate_run
from repro.wire.chaos import WireScenario, run_wire_chaos
from repro.wire.session import WireWriter
from repro.workloads.hpl import HplWorkload

#: Unit roundoff of float64.
_U = 2.0**-53

#: Quality-label keys that describe the transport, not the fold.
_WIRE_PROVENANCE = (
    "codec", "codec_error_bound_w", "frames_dropped", "frames_corrupt",
)


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
        f"routes-{n_nodes}",
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


def _plan_from_cuts(
    cuts: set, n_nodes: int, ticks_per_batch: int
) -> ShardPlan:
    """The contiguous partition of ``n_nodes`` at interior ``cuts``."""
    bounds = [0, *sorted(cuts), n_nodes]
    n = len(bounds) - 1
    shards = tuple(
        ShardSpec(
            shard_index=i,
            n_shards=n,
            node_lo=bounds[i],
            node_hi=bounds[i + 1],
        )
        for i in range(n)
    )
    return ShardPlan(
        n_nodes=n_nodes, ticks_per_batch=ticks_per_batch, shards=shards
    )


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _quality(label: dict) -> dict:
    """A quality label's dict without the wire provenance."""
    return {k: v for k, v in label.items() if k not in _WIRE_PROVENANCE}


def _fold_view(
    node_moments, *, quantiles_w, correlation, stopping, rule, quality,
    samples,
) -> dict:
    """Everything a route's fold state must share with every other."""
    prefixes = SequentialStopper(**rule)
    prefixes.update_many(node_moments.mean)
    pooled = node_moments.pooled()
    m = node_moments
    return {
        "node": tuple(
            _bits(v) for v in (m.mean, m.variance(), m.minimum, m.maximum)
        ),
        "pooled": (
            pooled.count,
            *(_bits(v) for v in (
                pooled.mean, pooled.variance(), pooled.minimum,
                pooled.maximum,
            )),
        ),
        "quantiles_w": repr(quantiles_w),
        "correlation": _bits(correlation),
        "stopping": repr(stopping.to_dict()),
        "stopped_at_nodes": prefixes.stopped_at,
        "quality": _quality(quality),
        "samples_ingested": samples,
    }


def _served(run, bodies, content_type, *, accuracy, n_batches):
    """Open a session, POST ``bodies``, close; returns the session
    (its state folded and finalized) and the close summary."""
    t0_s, t1_s = run.core_window
    config = {
        "population": run.system.n_nodes,
        "core_t0_s": t0_s,
        "core_t1_s": t1_s,
        "interval_s": max(run.dt, 1.0),
        "accuracy": accuracy,
        # Room for every batch a body decodes to: no backpressure here.
        "queue_capacity": n_batches + 1,
    }

    async def scenario():
        app = TelemetryApp(SimClock(dt_s=1.0), ServiceConfig())
        created = await app.dispatch(make_request(
            "POST", "/v1/sessions", tenant="acme",
            body=json.dumps(config).encode(),
        ))
        assert created.status == 201, created.body
        sid = json.loads(created.body)["session"]["session_id"]
        session = app.registry.get("acme", sid)
        for body in bodies:
            response = await app.dispatch(make_request(
                "POST", f"/v1/sessions/{sid}/batches", tenant="acme",
                body=body, content_type=content_type,
            ))
            assert response.status == 202, response.body
        closed = await app.dispatch(make_request(
            "DELETE", f"/v1/sessions/{sid}", tenant="acme"
        ))
        assert closed.status == 200, closed.body
        return session, json.loads(closed.body)["summary"]

    return asyncio.run(scenario())


def _summary_bits(d: dict) -> dict:
    """A session summary's fold fields after the JSON round trip a
    served summary takes (snapshots and monitor depend on batching)."""
    d = json.loads(json.dumps(d, default=float))
    for key in ("snapshots", "monitor", "queue_stalls",
                "queue_high_watermark", "session_id", "quality"):
        d.pop(key, None)
    return d


@settings(max_examples=6, deadline=None)
@given(
    n_nodes=st.integers(8, 20),
    core_s=st.integers(20, 70),
    seed=st.integers(0, 2**16),
    accuracy=st.sampled_from([0.002, 0.01, 0.05]),
    data=st.data(),
)
def test_every_route_folds_the_same_bits(
    n_nodes, core_s, seed, accuracy, data
):
    run = _cpu_run(n_nodes, float(core_s), seed)
    _, watts = run.node_power_matrix(*run.core_window)
    n_ticks = watts.shape[0]
    rule = dict(accuracy=accuracy, population=n_nodes, confidence=0.95)

    def batching(label: str) -> int:
        return data.draw(st.integers(1, n_ticks + 1), label=label)

    replays: dict = {}

    def replay(ticks: int):
        if ticks not in replays:
            replays[ticks] = stream_session(
                run, ticks_per_batch=ticks, accuracy=accuracy
            )
        return replays[ticks]

    def stream_view(result, quality):
        return _fold_view(
            result.node_moments,
            quantiles_w=result.quantiles_w,
            correlation=result.node_fleet_correlation,
            stopping=result.stopping,
            rule=rule,
            quality=quality,
            samples=result.samples_ingested,
        )

    def unrepaired_label(node_moments, samples):
        return fold_quality_report(
            node_moments, cells_folded=samples, cells_written_off=0,
            original_level=2,
        ).to_dict()

    views: dict[str, dict] = {}
    folds: dict[str, tuple] = {}  # route -> (pooled moments, quantiles)
    monitors: dict[str, tuple[int, dict]] = {}

    # -- the replay -------------------------------------------------------
    ticks = batching("stream ticks")
    direct = replay(ticks)
    views["stream"] = stream_view(
        direct, unrepaired_label(direct.node_moments, direct.samples_ingested)
    )
    folds["stream"] = (direct.fleet_moments, direct.quantiles_w)

    # -- the shard kernel over an arbitrary contiguous partition -----------
    ticks = batching("shard ticks")
    # At least one cut, so the reduce always merges; sharded_session
    # below covers the one-shard plan.
    cuts = data.draw(
        st.sets(st.integers(1, n_nodes - 1), min_size=1, max_size=5),
        label="cuts",
    )
    plan = _plan_from_cuts(cuts, n_nodes, ticks)
    ref_w, rows = fleet_reference(run, ticks_per_batch=ticks)
    states = [
        run_shard(
            run, spec, shard_rows(rows, spec),
            ticks_per_batch=ticks, reference_w=ref_w,
        )
        for spec in plan
    ]
    fleet = reduce_states(
        data.draw(st.permutations(states), label="arrival order"), plan
    )
    assert fleet.sketch.count == fleet.samples_seen
    views["run_shard"] = _fold_view(
        fleet.node_moments,
        quantiles_w=fleet.quantiles_w(),
        correlation=float(np.mean(fleet.correlation())),
        stopping=SequentialStopper.decide(fleet.node_moments.mean, **rule),
        rule=rule,
        quality=unrepaired_label(fleet.node_moments, fleet.samples_seen),
        samples=fleet.samples_seen,
    )
    folds["run_shard"] = (
        fleet.node_moments.pooled(), fleet.quantiles_w()
    )
    monitors["run_shard"] = (ticks, fleet.report().to_dict())

    # -- sharded_session at an arbitrary shard count -----------------------
    ticks = batching("sharded_session ticks")
    n_shards = data.draw(st.integers(1, n_nodes), label="n_shards")
    sharded = sharded_session(
        run, n_shards=n_shards, ticks_per_batch=ticks, accuracy=accuracy
    )
    views["sharded_session"] = stream_view(
        sharded, sharded.quality.to_dict()
    )
    folds["sharded_session"] = (sharded.fleet_moments, sharded.quantiles_w)
    monitors["sharded_session"] = (ticks, sharded.monitor_report.to_dict())

    # -- the service: JSON bodies at an arbitrary batching -----------------
    ticks = batching("json ticks")
    batches = list(replay_run(run, ticks_per_batch=ticks))
    bodies = [
        json.dumps({
            "times": b.times.tolist(),
            "watts": b.watts.tolist(),
            "node_ids": b.node_ids.tolist(),
        }).encode()
        for b in batches
    ]
    session, summary = _served(
        run, bodies, "application/json",
        accuracy=accuracy, n_batches=len(batches),
    )
    served = session.state.result()
    views["serve json"] = stream_view(served, summary["quality"])
    folds["serve json"] = (served.fleet_moments, served.quantiles_w)
    monitors["serve json"] = (ticks, summary["monitor"])
    assert _summary_bits(summary) == _summary_bits(direct.to_dict())

    # -- the service: raw64 frames, byte stream cut anywhere ---------------
    ticks = batching("rpwr ticks")
    batches = list(replay_run(run, ticks_per_batch=ticks))
    wire = b"".join(
        frame.data for frame in WireWriter(codec="raw64").write_all(batches)
    )
    cuts = sorted(data.draw(
        st.sets(st.integers(1, len(wire) - 1), max_size=12),
        label="byte cuts",
    ))
    bounds = [0, *cuts, len(wire)]
    chunks = [wire[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    session, summary = _served(
        run, chunks, RPWR_CONTENT_TYPE,
        accuracy=accuracy, n_batches=len(batches),
    )
    served = session.state.result()
    views["serve rpwr"] = stream_view(served, summary["quality"])
    folds["serve rpwr"] = (served.fleet_moments, served.quantiles_w)
    monitors["serve rpwr"] = (ticks, summary["monitor"])
    assert _summary_bits(summary) == _summary_bits(direct.to_dict())
    assert summary["quality"]["codec"] == "raw64"
    assert summary["quality"]["frames_dropped"] == 0
    assert summary["quality"]["frames_corrupt"] == 0

    # -- the wire chaos harness, no faults ---------------------------------
    ticks = batching("wire chaos ticks")
    outcome = run_wire_chaos(
        run, WireScenario(name="clean", codec="raw64"),
        seed=seed, ticks_per_batch=ticks,
    )
    report = outcome.report

    # -- one fold state ----------------------------------------------------
    expected = views["stream"]
    for route, view in views.items():
        assert view == expected, route
    assert _quality(report.to_dict()) == expected["quality"]
    assert report.samples_arrived == expected["samples_ingested"]
    assert outcome.ok(), outcome.reconciliation
    assert expected["samples_ingested"] == watts.size

    # -- the monitor, at each route's own batching -------------------------
    for route, (ticks, monitor) in monitors.items():
        want = json.loads(json.dumps(replay(ticks).monitor_report.to_dict()))
        assert json.loads(json.dumps(monitor)) == want, route

    # -- the stated bounds, on every route's output ------------------------
    x = watts.ravel()
    mu = math.fsum(x.tolist()) / x.size
    m2 = math.fsum(((x - mu) ** 2).tolist())
    n = x.size
    for route, (pooled, quantiles_w) in folds.items():
        for q, est in quantiles_w.items():
            exact = float(np.quantile(x, q, method="lower"))
            assert abs(est - exact) <= (
                QUANTILE_REL_ERROR * (1 + 1e-9) * exact
            ), (route, q)
        got = float(pooled.variance(ddof=0)) * n
        assert abs(got - m2) <= 4 * n * (n + 3) * _U * m2 + 4 * _U * m2, route

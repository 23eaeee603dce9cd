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

Every route returns one :class:`~repro.stream.session.SessionResult`,
and every route's ``to_dict()`` must be the same, bit for bit, once the
provenance that route declares is dropped: the fleet moments, the
quantiles, the node-vs-fleet correlation, the stopping decision and the
first stopping prefix, the closing snapshot and the sample count.  The
node moments must share their bits too, and every quality label must
agree (wire provenance aside).  The monitor judges excursions per
batch, so each route's ``monitor`` is compared with the replay's at
that route's own batching.  Every route's output is also held to the
bounds the estimators state.
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
from repro.stream.session import SessionResult, stream_session
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


def _canonical(d: dict) -> str:
    """Order-independent JSON text; floats keep their bits."""
    return json.dumps(d, sort_keys=True, default=float)


def _view(result: SessionResult, rendered: dict | None = None) -> dict:
    """What a route's result must share with every other: its rendering
    (``rendered``, else ``to_dict()``) without the provenance the route
    declares or the per-batch ``monitor``, and the node moments' bits."""
    d = result.to_dict() if rendered is None else rendered
    m = result.node_moments
    return {
        "result": _canonical({
            k: v for k, v in d.items()
            if k not in result.provenance and k != "monitor"
        }),
        "node": tuple(
            _bits(v) for v in (m.mean, m.variance(), m.minimum, m.maximum)
        ),
        "pooled": _bits(result.fleet_moments.variance()),
    }


def _served(run, bodies, content_type, *, accuracy, n_batches):
    """Open a session, POST ``bodies``, close; returns the session's
    result and the close summary, which must be that result rendered."""
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

    session, summary = asyncio.run(scenario())
    result = session.final_result()
    assert _canonical(summary) == _canonical(result.to_dict())
    return result, summary


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

    def unrepaired_label(result):
        return fold_quality_report(
            result.node_moments, cells_folded=result.samples_ingested,
            cells_written_off=0, original_level=2,
        ).to_dict()

    results: dict[str, SessionResult] = {}
    views: dict[str, dict] = {}
    labels: dict[str, dict] = {}
    monitors: dict[str, tuple[int, dict]] = {}

    # -- the replay -------------------------------------------------------
    ticks = batching("stream ticks")
    direct = results["stream"] = replay(ticks)
    labels["stream"] = unrepaired_label(direct)

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
    reduced = results["run_shard"] = SessionResult.of(fleet, rule)
    labels["run_shard"] = unrepaired_label(reduced)
    monitors["run_shard"] = (ticks, reduced.monitor_report.to_dict())

    # -- sharded_session at an arbitrary shard count -----------------------
    ticks = batching("sharded_session ticks")
    n_shards = data.draw(st.integers(1, n_nodes), label="n_shards")
    sharded = results["sharded_session"] = sharded_session(
        run, n_shards=n_shards, ticks_per_batch=ticks, accuracy=accuracy
    )
    assert sharded.provenance["n_shards"] == n_shards
    labels["sharded_session"] = sharded.provenance["quality"].to_dict()
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
    served, summary = _served(
        run, bodies, "application/json",
        accuracy=accuracy, n_batches=len(batches),
    )
    results["serve json"] = served
    views["serve json"] = _view(served, summary)
    labels["serve json"] = summary["quality"]
    monitors["serve json"] = (ticks, summary["monitor"])

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
    served, summary = _served(
        run, chunks, RPWR_CONTENT_TYPE,
        accuracy=accuracy, n_batches=len(batches),
    )
    results["serve rpwr"] = served
    views["serve rpwr"] = _view(served, summary)
    labels["serve rpwr"] = summary["quality"]
    monitors["serve rpwr"] = (ticks, summary["monitor"])
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
    labels["wire chaos"] = report.to_dict()

    # -- one session result ------------------------------------------------
    for route, result in results.items():
        views.setdefault(route, _view(result))
    expected = views["stream"]
    for route, view in views.items():
        assert view == expected, route
    for route, label in labels.items():
        assert _quality(label) == _quality(labels["stream"]), route
    assert report.samples_arrived == direct.samples_ingested
    assert outcome.ok(), outcome.reconciliation
    assert direct.samples_ingested == watts.size

    # -- the monitor, at each route's own batching -------------------------
    for route, (ticks, monitor) in monitors.items():
        want = json.loads(json.dumps(replay(ticks).monitor_report.to_dict()))
        assert json.loads(json.dumps(monitor)) == want, route

    # -- the stated bounds, on every route's output ------------------------
    x = watts.ravel()
    mu = math.fsum(x.tolist()) / x.size
    m2 = math.fsum(((x - mu) ** 2).tolist())
    n = x.size
    for route, result in results.items():
        for q, est in result.quantiles_w.items():
            exact = float(np.quantile(x, q, method="lower"))
            assert abs(est - exact) <= (
                QUANTILE_REL_ERROR * (1 + 1e-9) * exact
            ), (route, q)
        got = float(result.fleet_moments.variance(ddof=0)) * n
        assert abs(got - m2) <= 4 * n * (n + 3) * _U * m2 + 4 * _U * m2, route

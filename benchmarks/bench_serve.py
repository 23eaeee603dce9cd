"""Telemetry service benchmark — JSON ingest samples/s in-process.

Collectors that cannot speak RPWR post JSON bodies, so the service's
JSON path (body -> validated batch -> bounded queue -> estimator fold)
must clear a 10 000-node x 1 Hz fleet with headroom.  Dispatch and
RPWR ingest are gated end to end by the ``serve-mixed`` workload in
``benchmarks/e2e``; JSON bodies have no end-to-end workload, so this
bench is their only gate.

Everything runs through :meth:`TelemetryApp.dispatch` on a
:class:`SimClock` — no sockets — so the numbers isolate service-layer
cost from kernel TCP cost, exactly like the load-test suite does.
``extra_info`` records ``cpu_count`` so baselines from different hosts
compare honestly.
"""

from __future__ import annotations

import asyncio
import json
import os

import numpy as np

from repro.serve import ServiceConfig, TelemetryApp, make_request
from repro.stream.ingest import SimClock

#: Ingest bench: 20 batches x 50 ticks x 500 nodes = 500k samples.
_N_BATCHES, _N_TICKS, _N_NODES = 20, 50, 500
_FLOOR_JSON_SAMPLES_PER_S = 100_000.0

#: A bucket the bench can never drain (rate limiting is not the
#: thing under measurement here; the route tests cover it).
_OPEN_THROTTLE = ServiceConfig(
    rate_capacity=1e9, rate_refill_per_request_s=1e9
)

_SESSION_CONFIG = {
    "population": _N_NODES,
    "core_t0_s": 0.0,
    "core_t1_s": float(_N_BATCHES * _N_TICKS),
    "interval_s": 1.0,
    "queue_capacity": _N_BATCHES + 1,
}


def _json_bodies() -> list[bytes]:
    rng = np.random.default_rng(2015)
    bodies = []
    for i in range(_N_BATCHES):
        times = np.arange(i * _N_TICKS, (i + 1) * _N_TICKS) * 1.0
        watts = 1500.0 + 10.0 * rng.standard_normal((_N_TICKS, _N_NODES))
        bodies.append(json.dumps({
            "times": times.tolist(),
            "watts": watts.tolist(),
            "node_ids": list(range(_N_NODES)),
        }).encode())
    return bodies


def bench_ingest_json(benchmark, report_sink):
    """End-to-end JSON ingest: body -> batch -> queue -> fold -> close."""
    bodies = _json_bodies()
    n_samples = _N_BATCHES * _N_TICKS * _N_NODES

    def session_run() -> int:
        async def run() -> int:
            app = TelemetryApp(SimClock(dt_s=1.0), _OPEN_THROTTLE)
            response = await app.dispatch(make_request(
                "POST", "/v1/sessions", tenant="bench",
                body=json.dumps(_SESSION_CONFIG).encode(),
            ))
            assert response.status == 201
            sid = json.loads(response.body)["session"]["session_id"]
            for body in bodies:
                response = await app.dispatch(make_request(
                    "POST", f"/v1/sessions/{sid}/batches",
                    tenant="bench", body=body,
                    content_type="application/json",
                ))
                assert response.status == 202
            await app.registry.get("bench", sid).drain()
            response = await app.dispatch(make_request(
                "DELETE", f"/v1/sessions/{sid}", tenant="bench"
            ))
            return json.loads(response.body)["summary"]["samples_ingested"]

        return asyncio.run(run())

    ingested = benchmark.pedantic(session_run, rounds=3, iterations=1)
    assert ingested == n_samples
    rate = n_samples / benchmark.stats.stats.min
    body_bytes = sum(len(b) for b in bodies)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["n_samples"] = n_samples
    benchmark.extra_info["body_bytes"] = body_bytes
    report_sink(
        "serve JSON ingest",
        f"{_N_BATCHES} batches, {n_samples:,} samples, "
        f"{body_bytes:,} B of JSON, "
        f"{rate / 1e3:.0f} k samples/s end to end",
    )
    assert rate >= _FLOOR_JSON_SAMPLES_PER_S, (
        f"JSON ingest at {rate / 1e3:.0f} k samples/s is below the "
        f"{_FLOOR_JSON_SAMPLES_PER_S / 1e3:.0f} k samples/s floor"
    )

"""Shared fixtures for the telemetry-service tests.

Everything here is deterministic: the run is a fixed-seed simulation,
the app runs on a :class:`~repro.stream.ingest.SimClock`, and the
expected verdict comes from a direct
:func:`~repro.stream.session.stream_session` replay of the very same
batches the HTTP clients submit.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.components import CpuModel, DramModel, FanModel
from repro.cluster.node import NodeConfig
from repro.cluster.system import SystemModel
from repro.cluster.thermal import FanController
from repro.cluster.variability import ManufacturingVariation
from repro.serve import ServiceConfig, TelemetryApp
from repro.stream.ingest import SampleBatch, SimClock, replay_run
from repro.stream.session import stream_session
from repro.traces.synth import SimulatedRun, simulate_run
from repro.workloads.hpl import HplWorkload

#: Session parameters shared by the direct replay and every HTTP client.
ACCURACY = 0.05
REPORT_EVERY_S = 60.0
TICKS_PER_BATCH = 15


def batch_to_json(batch: SampleBatch) -> dict:
    """Render one batch as the JSON ingest body."""
    return {
        "times": batch.times.tolist(),
        "watts": batch.watts.tolist(),
        "node_ids": batch.node_ids.tolist(),
    }


def strip_queue_stats(summary: dict) -> dict:
    """Drop driver-specific bookkeeping before verdict comparison.

    Queue statistics belong to the *driver* (a replay has no queue, a
    served session reports its HTTP queue's high-water mark), not the
    verdict; everything else must match bit for bit.
    """
    out = dict(summary)
    for key in ("queue_stalls", "queue_high_watermark", "session_id",
                "quality"):
        out.pop(key, None)
    return out


@pytest.fixture(scope="session")
def serve_run() -> SimulatedRun:
    """A tiny 8-node run: 240 s core at 2 s ticks (120 ticks)."""
    node = NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        dram=DramModel.for_capacity(32.0),
        fan=FanModel(max_watts=40.0),
        other_watts=20.0,
    )
    system = SystemModel(
        "serve-tiny",
        8,
        node,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(
            fan_model=node.fan, reference_watts=300.0
        ),
        seed=21,
    )
    workload = HplWorkload.cpu_out_of_core(
        240.0, setup_s=20.0, teardown_s=20.0
    )
    return simulate_run(system, workload, dt=2.0, seed=11)


@pytest.fixture(scope="session")
def serve_batches(serve_run) -> list[SampleBatch]:
    """The exact batch sequence every client replays."""
    return list(replay_run(serve_run, ticks_per_batch=TICKS_PER_BATCH))


@pytest.fixture(scope="session")
def json_payloads(serve_batches) -> list[bytes]:
    """The batches as JSON ingest bodies."""
    return [
        json.dumps(batch_to_json(b)).encode("utf-8")
        for b in serve_batches
    ]


@pytest.fixture(scope="session")
def direct_summary(serve_run) -> dict:
    """The ground-truth verdict from a direct in-process replay."""
    result = stream_session(
        serve_run,
        ticks_per_batch=TICKS_PER_BATCH,
        accuracy=ACCURACY,
        report_every_s=REPORT_EVERY_S,
    )
    # Through JSON and back, so float rendering matches the HTTP path.
    return strip_queue_stats(
        json.loads(json.dumps(result.to_dict(), default=float))
    )


@pytest.fixture(scope="session")
def session_config(serve_run) -> dict:
    """The HTTP session config equivalent to the direct replay."""
    t0_s, t1_s = serve_run.core_window
    return {
        "population": serve_run.system.n_nodes,
        "core_t0_s": t0_s,
        "core_t1_s": t1_s,
        "interval_s": max(serve_run.dt, 1.0),
        "accuracy": ACCURACY,
        "report_every_s": REPORT_EVERY_S,
    }


@pytest.fixture()
def clock() -> SimClock:
    """A fresh simulated clock per test."""
    return SimClock(dt_s=1.0)


@pytest.fixture()
def app(clock) -> TelemetryApp:
    """A service instance with default (generous) limits."""
    return TelemetryApp(clock, ServiceConfig())

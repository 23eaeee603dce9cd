"""The four end-to-end workloads and their correctness checks.

Every workload builds its inputs from ``seed`` in ``__init__`` (the
benchmark's set-up), then :meth:`repeat` drives one full session through
the public entry points a real collector uses and returns
``(samples_folded, output, counters)``.  :meth:`check` judges one
repeat's output against an independent reference and returns named
booleans.  Fleet and session sizes are keyword arguments so the
self-test can build each workload tiny; every other shape is a module
constant below.

The simulated system is the shard benchmark's: HPL out-of-core at 1 Hz,
σ = 2 % manufacturing variation.  The seed feeds both the system's node
variation and the run noise, and the wire fault plan.

The sessions are budget-shaped: sized so that about ten whole sessions
fit in a 10 s run, not taken from a measured collector.  A session of
150 ticks at 1 Hz is a legal Level 1 window (at least 60 s), but it is
much shorter than the full core phase the paper's adopted timing rule
asks for, so per-session costs, above all each node's one admission to
the sequential stopper, weigh more here than in a full-core session.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import json
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.cluster.components import CpuModel, DramModel, FanModel
from repro.cluster.node import NodeConfig
from repro.cluster.system import SystemModel
from repro.cluster.thermal import FanController
from repro.cluster.variability import ManufacturingVariation
from repro.faults.recovery import RecoveryPipeline
from repro.faults.wire import (
    FrameCorruption,
    FrameDrop,
    WireDelivery,
    WireFaultPlan,
)
from repro.serve import ServiceConfig, TelemetryApp, make_request
from repro.serve.app import RPWR_CONTENT_TYPE
from repro.shard import engine
from repro.stream.ingest import SimClock, replay_run
from repro.stream.session import LiveStreamState, stream_session
from repro.traces.synth import SimulatedRun, simulate_run
from repro.wire.session import WireReader, WireWriter
from repro.workloads.hpl import HplWorkload

from tracer import OP_ID

__all__ = ["COUNTERS", "OpLog", "WORKLOADS"]

#: Counters a repeat may report, read from the program's public state;
#: a workload that does not exercise a layer reports 0 for its counters.
COUNTERS = (
    "stream.estimators.samples",
    "wire.bytes_in",
    "wire.frames_ok",
    "wire.frames_missing",
    "wire.crc_failures",
    "faults.recovery.cells_repaired",
    "faults.recovery.samples_missing",
    "serve.requests",
    "serve.rejected",
    "serve.queue_high_watermark",
)

#: Relative tolerance of every tracked quantile against ``np.quantile``.
QUANTILE_RTOL = 0.01

#: Recovery detector thresholds that switch stuck/quarantine detection
#: off, as ``run_wire_chaos`` sets them: frame loss hits every node at
#: once, so per-node outage heuristics would misfire on the wire path.
DETECTORS_OFF = 10**6

#: Rate limiter wide open and quotas unlimited (the ``ServiceConfig``
#: default), so no request is refused: limiting is not under test.
OPEN_SERVICE = ServiceConfig(rate_capacity=1e9, rate_refill_per_request_s=1e9)

#: fleet-fold batches: 5 ticks, so a 150 s session is 31 operations and
#: the first 8, which carry the stopper admissions, stay a minority.
FOLD_TICKS_PER_BATCH = 5

#: wire-recover frames: the ``WireWriter`` default of 10 ticks a frame.
WIRE_TICKS_PER_FRAME = 10

#: wire-recover link faults per session: exactly 2 frames dropped and 1
#: corrupted (of 31), so every seed repairs gaps of both kinds; the seed
#: only places them.  Fault rates alone would leave about a quarter of
#: the seeds with no loss at all.
WIRE_DROPPED = 2
WIRE_CORRUPTED = 1

#: The link drops and corrupts but never reorders, so a gap is declared
#: at the next frame instead of after the default 8-frame reorder
#: window, which would hold back the chunks behind every loss and make
#: chunk latency bimodal.
WIRE_REORDER_WINDOW = 1

#: wide-stop sharding: 8 inline shards of 10-tick batches, as the shard
#: benchmark runs them; inline so the run stays on one CPU.
STOP_SHARDS = 8
STOP_TICKS_PER_BATCH = 10

#: serve-mixed: one client coroutine per CPU of the 2-vCPU host the
#: benchmark was defined on, each writing 5 ticks (320 samples on 64
#: nodes) a request and reading the verdict after every 4th write.
SERVE_CLIENTS = 2
SERVE_TICKS_PER_WRITE = 5
SERVE_VERDICT_EVERY = 4


def fleet_run(n_nodes: int, core_s: float, seed: int) -> SimulatedRun:
    """HPL out-of-core on ``n_nodes`` nodes at 1 Hz, σ = 2 %."""
    config = NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        dram=DramModel.for_capacity(64.0),
        fan=FanModel(max_watts=60.0),
        other_watts=25.0,
    )
    system = SystemModel(
        f"e2e-{n_nodes}",
        n_nodes,
        config,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(
            fan_model=config.fan, reference_watts=400.0
        ),
        seed=seed,
    )
    workload = HplWorkload.cpu_out_of_core(
        core_s, setup_s=30.0, teardown_s=15.0
    )
    return simulate_run(system, workload, dt=1.0, seed=seed)


def faulted_delivery(frames: list, seed: int) -> WireDelivery:
    """The first seeded fault plan that drops and corrupts exactly
    ``WIRE_DROPPED`` and ``WIRE_CORRUPTED`` frames, applied to ``frames``.

    Rates are set so those counts are the expected ones; candidate plan
    seeds derive from ``seed``, so the same seed gives the same plan.
    """
    n = len(frames)
    models = [FrameDrop(WIRE_DROPPED / n), FrameCorruption(WIRE_CORRUPTED / n)]
    for attempt in itertools.count():
        plan_seed = int(
            np.random.SeedSequence([seed, attempt]).generate_state(1)[0]
        )
        delivery = WireFaultPlan.canonical(models, plan_seed).apply(frames)
        ledger = delivery.ledger
        if (len(ledger.dropped_seqs), ledger.frames_corrupted) == (
            WIRE_DROPPED, WIRE_CORRUPTED
        ):
            return delivery


def live_state(run: SimulatedRun) -> LiveStreamState:
    """The state ``stream_session`` would build for ``run``."""
    return LiveStreamState(
        population=run.system.n_nodes,
        core_window=run.core_window,
        required_interval_s=max(run.dt, 1.0),
    )


def quantile_checks(quantiles_w: dict, watts: np.ndarray) -> dict:
    """Each tracked quantile within 1 % of ``np.quantile`` on ``watts``."""
    out = {}
    for q, est in quantiles_w.items():
        exact = float(np.quantile(watts, q))
        out[f"p{q * 100:g}_within_1pct"] = (
            abs(est - exact) <= QUANTILE_RTOL * abs(exact)
        )
    return out


def canonical(obj) -> str:
    """Order-independent JSON text, for exact comparison of results."""
    return json.dumps(obj, sort_keys=True, default=float)


class OpLog:
    """Latency and failure record of the timed operations of a repeat.

    An operation that raises is counted as failed (its traceback kept in
    ``errors``) and the session goes on, as a collector would.
    """

    def __init__(self) -> None:
        self.latencies_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _begin(self) -> contextvars.Token:
        self.attempted += 1
        return OP_ID.set(self.attempted - 1)

    def call(self, fn, *args):
        """Run one synchronous operation; ``None`` when it raised."""
        token = self._begin()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception:  # counted and reported, never fatal
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None
        finally:
            self.latencies_s.append(time.perf_counter() - t0)
            OP_ID.reset(token)

    async def request(self, app: TelemetryApp, request):
        """One HTTP request through ``dispatch``; status >= 400 fails."""
        token = self._begin()
        t0 = time.perf_counter()
        response = await app.dispatch(request)
        self.latencies_s.append(time.perf_counter() - t0)
        OP_ID.reset(token)
        if response.status >= 400:
            self.failed += 1
            self.errors.append(
                f"{request.method} {request.path} -> {response.status}: "
                f"{response.body[:200]!r}"
            )
        return response


class FleetFold:
    """The serial fold every route shares, with large batches.

    Batches are replayed in set-up; the timed part is
    ``LiveStreamState.push`` per batch, then ``finalize`` and ``result``.
    """

    name = "fleet-fold"

    def __init__(self, seed: int, *, n_nodes: int = 1024,
                 core_s: float = 150.0) -> None:
        self.run = fleet_run(n_nodes, core_s, seed)
        self.batches = list(
            replay_run(self.run, ticks_per_batch=FOLD_TICKS_PER_BATCH)
        )

    def repeat(self, ops: OpLog):
        state = live_state(self.run)
        for batch in self.batches:
            ops.call(state.push, batch)
        state.finalize()
        result = state.result()
        return state.samples_ingested, result, {
            "stream.estimators.samples": state.samples_ingested,
        }

    def check(self, result) -> dict:
        reference = stream_session(
            self.run, ticks_per_batch=FOLD_TICKS_PER_BATCH
        )
        out = {
            "equals_stream_session": _comparable(result)
            == _comparable(reference),
        }
        out.update(quantile_checks(
            result.quantiles_w, np.vstack([b.watts for b in self.batches])
        ))
        return out


def _comparable(result) -> str:
    """A session result without its ingest-queue statistics, which
    depend on how batches were delivered, not on the data."""
    d = result.to_dict()
    d.pop("queue_high_watermark")
    d.pop("queue_stalls")
    return canonical(d)


class WireRecover:
    """Wire decode and recovery repair in front of the fold.

    A seeded ``WireFaultPlan`` drops and corrupts ``delta-varint``
    frames in set-up.  The timed part feeds each delivered chunk to a
    ``WireReader``, every decoded or gap batch to a ``RecoveryPipeline``
    (hold policy) and gap-free batches on to ``LiveStreamState.push``, as
    serve's ``ingest_frames`` does; both ``finalize`` calls close it.
    """

    name = "wire-recover"

    def __init__(self, seed: int, *, n_nodes: int = 512,
                 core_s: float = 300.0) -> None:
        self.run = fleet_run(n_nodes, core_s, seed)
        self.batches = list(
            replay_run(self.run, ticks_per_batch=WIRE_TICKS_PER_FRAME)
        )
        frames = WireWriter().write_all(self.batches)
        self.delivery = faulted_delivery(frames, seed)
        self.n_ticks = sum(b.n_ticks for b in self.batches)

    def repeat(self, ops: OpLog):
        reader = WireReader(
            dt_s=float(self.run.dt), reorder_window=WIRE_REORDER_WINDOW
        )
        pipeline = RecoveryPipeline(
            gap_policy="hold",
            stuck_min_repeats=DETECTORS_OFF,
            quarantine_after=DETECTORS_OFF,
        )
        state = live_state(self.run)

        def fold(batches) -> None:
            for batch in batches:
                pipeline.observe(batch)
                if not np.isnan(batch.watts).any():
                    state.push(batch)

        for chunk in self.delivery.chunks:
            ops.call(lambda c: fold(reader.feed(c)), chunk)
        fold(reader.close())
        report = pipeline.finalize(expected_ticks=self.n_ticks)
        state.finalize()
        result = state.result()
        return state.samples_ingested, (reader, report, result), {
            "stream.estimators.samples": state.samples_ingested,
            "wire.bytes_in": reader.bytes_read,
            "wire.frames_ok": reader.frames_ok,
            "wire.frames_missing": reader.frames_missing,
            "wire.crc_failures": reader.crc_failures,
            "faults.recovery.cells_repaired": report.samples_repaired,
            "faults.recovery.samples_missing": report.samples_missing,
        }

    def check(self, output) -> dict:
        reader, report, result = output
        ledger = self.delivery.ledger
        lost = set(ledger.dropped_seqs) | set(ledger.corrupted_seqs)
        delivered = [b for i, b in enumerate(self.batches) if i not in lost]
        out = {
            # A lost tail frame never shows up as a gap, so it is
            # counted as never arrived against the planned horizon.
            "gaps_explain_losses": report.samples_missing
            + report.samples_never_arrived == ledger.samples_lost,
            "crc_detects_corruption": reader.crc_failures
            == ledger.frames_corrupted,
            "frames_conserved": reader.frames_ok + ledger.frames_lost
            == ledger.frames_sent,
            "repairs_cover_missing": report.samples_repaired
            == report.samples_missing,
            "folds_every_delivered_sample": result.samples_ingested
            == sum(b.n_samples for b in delivered),
        }
        out.update(quantile_checks(
            result.quantiles_w, np.vstack([b.watts for b in delivered])
        ))
        return out


class WideStop:
    """A wide, short fleet where Eq. 1–5 stopping is a large share.

    The timed part is one ``sharded_session`` call (8 inline shards),
    which is also the operation: a caller waits for the whole verdict.
    """

    name = "wide-stop"

    def __init__(self, seed: int, *, n_nodes: int = 2048,
                 core_s: float = 20.0) -> None:
        self.run = fleet_run(n_nodes, core_s, seed)

    def _session(self, n_shards: int):
        return engine.sharded_session(
            self.run, n_shards=n_shards,
            ticks_per_batch=STOP_TICKS_PER_BATCH, processes=0,
        )

    def repeat(self, ops: OpLog):
        result = ops.call(self._session, STOP_SHARDS)
        if result is None:
            return 0, None, {}
        return result.samples_ingested, result, {
            "stream.estimators.samples": result.samples_ingested,
        }

    def check(self, result) -> dict:
        reference = self._session(1)
        _, watts = self.run.node_power_matrix(*self.run.core_window)
        out = {
            "node_means_equal_one_shard": np.array_equal(
                np.asarray(result.node_moments.mean),
                np.asarray(reference.node_moments.mean),
            ),
            "stopping_equals_one_shard": canonical(result.stopping.to_dict())
            == canonical(reference.stopping.to_dict()),
        }
        out.update(quantile_checks(result.quantiles_w, watts))
        return out


@dataclass(frozen=True)
class _Client:
    tenant: str
    config: dict
    bodies: tuple[bytes, ...]


class ServeMixed:
    """Small RPWR writes and verdict reads through ``dispatch``.

    A closed loop of ``SERVE_CLIENTS`` coroutines, each with its own
    tenant and session: create, ``writes`` RPWR writes of
    ``SERVE_TICKS_PER_WRITE`` ticks with a verdict read after every
    ``SERVE_VERDICT_EVERY``-th, then close.  Each repeat runs on a fresh
    app and ``SimClock``.
    """

    name = "serve-mixed"

    def __init__(self, seed: int, *, n_nodes: int = 64,
                 writes: int = 150) -> None:
        clients = []
        for c in range(SERVE_CLIENTS):
            client_seed = int(
                np.random.SeedSequence([seed, c]).generate_state(1)[0]
            )
            run = fleet_run(n_nodes, writes * SERVE_TICKS_PER_WRITE - 1.0,
                            client_seed)
            writer = WireWriter()
            bodies = tuple(
                writer.write(batch).data
                for batch in replay_run(
                    run, ticks_per_batch=SERVE_TICKS_PER_WRITE
                )
            )
            t0_s, t1_s = run.core_window
            clients.append(_Client(
                tenant=f"tenant-{c}",
                config={
                    "population": n_nodes,
                    "core_t0_s": float(t0_s),
                    "core_t1_s": float(t1_s),
                    "interval_s": float(run.dt),
                    "queue_capacity": 64,
                },
                bodies=bodies,
            ))
        self.clients = tuple(clients)

    def repeat(self, ops: OpLog):
        sessions, summaries, app = asyncio.run(self._serve(ops))
        ops.failed += sum(len(s.worker_errors) for s in sessions)
        ops.errors.extend(e for s in sessions for e in s.worker_errors)
        samples = sum(s["samples_ingested"] for s in summaries if s)
        rejects = app.metrics.to_dict()["rejects"]
        return samples, summaries, {
            "stream.estimators.samples": samples,
            "wire.bytes_in": sum(s.bytes_ingested for s in sessions),
            "wire.frames_ok": sum(s.batches_accepted for s in sessions),
            "wire.frames_missing": sum(
                s["quality"]["frames_dropped"] for s in summaries if s
            ),
            "wire.crc_failures": sum(
                s["quality"]["frames_corrupt"] for s in summaries if s
            ),
            "serve.requests": ops.attempted,
            "serve.rejected": sum(rejects.values()),
            "serve.queue_high_watermark": max(
                s.queue_high_watermark for s in sessions
            ),
        }

    async def _serve(self, ops: OpLog):
        app = TelemetryApp(SimClock(dt_s=1.0), OPEN_SERVICE)
        pairs = await asyncio.gather(
            *(self._client(app, ops, client) for client in self.clients)
        )
        await app.shutdown()
        sessions, summaries = zip(*pairs)
        return sessions, summaries, app

    async def _client(self, app: TelemetryApp, ops: OpLog, client: _Client):
        created = await ops.request(app, make_request(
            "POST", "/v1/sessions", tenant=client.tenant,
            body=json.dumps(client.config).encode(),
        ))
        sid = json.loads(created.body)["session"]["session_id"]
        session = app.registry.get(client.tenant, sid)
        path = f"/v1/sessions/{sid}"
        for i, body in enumerate(client.bodies, 1):
            await ops.request(app, make_request(
                "POST", f"{path}/batches", tenant=client.tenant,
                body=body, content_type=RPWR_CONTENT_TYPE,
            ))
            if i % SERVE_VERDICT_EVERY == 0:
                await ops.request(app, make_request(
                    "GET", f"{path}/verdict", tenant=client.tenant
                ))
        closed = await ops.request(app, make_request(
            "DELETE", path, tenant=client.tenant
        ))
        summary = (
            json.loads(closed.body)["summary"] if closed.status == 200
            else None
        )
        return session, summary

    def check(self, summaries) -> dict:
        out = {}
        for client, summary in zip(self.clients, summaries):
            reader = WireReader(dt_s=client.config["interval_s"])
            batches = reader.feed(b"".join(client.bodies)) + reader.close()
            state = LiveStreamState(
                population=client.config["population"],
                core_window=(client.config["core_t0_s"],
                             client.config["core_t1_s"]),
                required_interval_s=client.config["interval_s"],
            )
            for batch in batches:
                state.push(batch)
            state.finalize()
            direct = state.result(
                queue_high_watermark=(summary or {}).get(
                    "queue_high_watermark", 0
                )
            )
            served = dict(summary or {})
            served.pop("session_id", None)
            served.pop("quality", None)
            # The served summary crossed JSON; put the direct one
            # through the same round trip before comparing.
            out[f"{client.tenant}_equals_direct_replay"] = canonical(
                served
            ) == canonical(json.loads(canonical(direct.to_dict())))
            for key, ok in quantile_checks(
                direct.quantiles_w, np.vstack([b.watts for b in batches])
            ).items():
                out[f"{client.tenant}_{key}"] = ok
        return out


#: Workload classes by name; constructing one is the timed set-up.
WORKLOADS = {
    cls.name: cls for cls in (FleetFold, WireRecover, WideStop, ServeMixed)
}

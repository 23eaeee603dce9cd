"""Deterministic load/concurrency tests for the telemetry service.

The headline property: hundreds of concurrent HTTP clients across many
tenants, all replaying the same batch stream, every one of them gets a
final verdict *bit-identical* to a direct in-process
:func:`~repro.stream.session.stream_session` replay — under rate
limiting, backpressure and shuffled wave orderings.  Everything runs
on a :class:`~repro.stream.ingest.SimClock`, so there is nothing to
flake: the same seed always produces the same request trace.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import (
    BatchPayload,
    ClientScript,
    LoadHarness,
    ServiceConfig,
    TelemetryApp,
    TenantQuota,
    make_request,
)
from repro.faults.recovery import fold_quality_report
from repro.serve.app import RPWR_CONTENT_TYPE
from repro.stream.ingest import SimClock
from repro.stream.session import LiveStreamState
from repro.wire.session import WireWriter

from .conftest import strip_queue_stats

N_TENANTS = 10
CLIENTS_PER_TENANT = 20  # 10 x 20 = 200 concurrent clients


def make_scripts(
    session_config: dict,
    payloads: list[BatchPayload],
    *,
    n_tenants: int = N_TENANTS,
    clients_per_tenant: int = CLIENTS_PER_TENANT,
) -> list[ClientScript]:
    """One identical scripted client per (tenant, slot) pair."""
    return [
        ClientScript(
            name=f"t{t:02d}-c{c:02d}",
            tenant=f"tenant-{t:02d}",
            config=session_config,
            payloads=payloads,
        )
        for t in range(n_tenants)
        for c in range(clients_per_tenant)
    ]


@pytest.fixture(scope="module")
def json_batch_payloads(json_payloads) -> list[BatchPayload]:
    return [BatchPayload(body=p) for p in json_payloads]


class TestLoadBitIdentical:
    def test_200_clients_10_tenants_bit_identical(
        self, session_config, json_batch_payloads, serve_batches,
        direct_summary,
    ):
        """The tentpole assertion: 200 concurrent clients, 10 tenants,
        every verdict equals the direct replay exactly — the quality
        label included."""
        clock = SimClock(dt_s=1.0)
        app = TelemetryApp(clock, ServiceConfig())
        scripts = make_scripts(session_config, json_batch_payloads)
        harness = LoadHarness(app, clock, scripts, seed=42)
        results = asyncio.run(harness.run())

        direct = LiveStreamState(
            population=session_config["population"],
            core_window=(
                session_config["core_t0_s"], session_config["core_t1_s"]
            ),
            required_interval_s=session_config["interval_s"],
            accuracy=session_config["accuracy"],
            report_every_s=session_config["report_every_s"],
        )
        for batch in serve_batches:
            direct.push(batch)
        direct_quality = fold_quality_report(
            direct.fold.monitor.node_moments,
            cells_folded=direct.samples_ingested,
            cells_written_off=0,
            original_level=2,
        ).to_dict()
        direct_quality = json.loads(json.dumps(direct_quality))

        assert len(results) == 200
        assert all(r.done and not r.errors for r in results)
        for result in results:
            assert strip_queue_stats(result.summary) == direct_summary
            assert result.summary["quality"] == direct_quality
        # Every session was closed; nothing leaked.
        assert len(app.registry) == 0
        assert app.registry.sessions_closed == 200

    def test_same_seed_same_trace(
        self, session_config, json_batch_payloads
    ):
        """Replaying the harness with the same seed reproduces the
        request trace exactly, status by status."""

        def run_once() -> list[tuple[str, list[int]]]:
            clock = SimClock(dt_s=1.0)
            app = TelemetryApp(
                clock,
                ServiceConfig(rate_capacity=8.0,
                              rate_refill_per_request_s=4.0),
            )
            scripts = make_scripts(
                session_config, json_batch_payloads[:3],
                n_tenants=4, clients_per_tenant=8,
            )
            harness = LoadHarness(app, clock, scripts, seed=7)
            results = asyncio.run(harness.run())
            return [(r.name, r.statuses) for r in results]

        assert run_once() == run_once()

    def test_wire_frame_clients_bit_identical(
        self, session_config, serve_batches, direct_summary
    ):
        """Clients shipping RPWR binary frames (lossless codec) land on
        the same verdict as the JSON clients and the direct replay."""
        writer = WireWriter(codec="raw64")
        payloads = [
            BatchPayload.from_frames(writer.write(b).data)
            for b in serve_batches
        ]
        clock = SimClock(dt_s=1.0)
        app = TelemetryApp(clock, ServiceConfig())
        scripts = make_scripts(
            session_config, payloads, n_tenants=2, clients_per_tenant=3
        )
        harness = LoadHarness(app, clock, scripts, seed=3)
        results = asyncio.run(harness.run())

        assert all(r.done and not r.errors for r in results)
        for result in results:
            assert strip_queue_stats(result.summary) == direct_summary


class TestRateLimiting:
    def test_tight_buckets_429_then_converge(
        self, session_config, json_batch_payloads, direct_summary
    ):
        """Starved buckets produce real 429s, clients retry on the next
        wave, and every verdict still comes out bit-identical."""
        clock = SimClock(dt_s=1.0)
        app = TelemetryApp(
            clock,
            ServiceConfig(rate_capacity=3.0,
                          rate_refill_per_request_s=2.0),
        )
        scripts = make_scripts(
            session_config, json_batch_payloads,
            n_tenants=4, clients_per_tenant=10,
        )
        harness = LoadHarness(app, clock, scripts, seed=11)
        results = asyncio.run(harness.run())

        assert all(r.done and not r.errors for r in results)
        assert sum(r.rate_limited for r in results) > 0
        for result in results:
            assert strip_queue_stats(result.summary) == direct_summary
        # The service counted what it refused.
        metrics = app.metrics.to_dict()
        assert metrics["rejects"]["rate-limited"] == sum(
            r.rate_limited for r in results
        )

    def test_per_tenant_fairness(
        self, session_config, json_batch_payloads
    ):
        """Identical workloads on independent per-tenant buckets finish
        with near-identical per-tenant request counts — no tenant
        starves another."""
        clock = SimClock(dt_s=1.0)
        app = TelemetryApp(
            clock,
            ServiceConfig(rate_capacity=4.0,
                          rate_refill_per_request_s=3.0),
        )
        scripts = make_scripts(
            session_config, json_batch_payloads,
            n_tenants=8, clients_per_tenant=6,
        )
        harness = LoadHarness(app, clock, scripts, seed=23)
        results = asyncio.run(harness.run())
        assert all(r.done for r in results)

        per_tenant: dict[str, int] = {}
        for result in results:
            per_tenant[result.tenant] = (
                per_tenant.get(result.tenant, 0) + result.requests_sent
            )
        assert len(per_tenant) == 8
        lo, hi = min(per_tenant.values()), max(per_tenant.values())
        # Buckets are per-tenant and tenants run identical scripts, so
        # totals may only differ by shuffle noise within a wave.
        assert hi - lo <= 0.2 * hi

    def test_quota_exhaustion_flat_refusal(
        self, app, session_config, json_payloads
    ):
        """A sample quota refuses ingest with a structured 429 and
        never double-bills a refused request."""
        quota_app = TelemetryApp(
            app.clock,
            ServiceConfig(
                quota=TenantQuota(max_samples=245),
            ),
        )

        async def scenario():
            response = await quota_app.dispatch(make_request(
                "POST", "/v1/sessions", tenant="acme",
                body=json.dumps(session_config).encode(),
            ))
            sid = json.loads(response.body)["session"]["session_id"]
            statuses = []
            for payload in json_payloads:
                r = await quota_app.dispatch(make_request(
                    "POST", f"/v1/sessions/{sid}/batches",
                    tenant="acme", body=payload,
                ))
                statuses.append(r.status)
            return sid, statuses

        sid, statuses = asyncio.run(scenario())
        # 8 nodes x 15 ticks = 120 samples/batch: two fit under 245,
        # every later attempt (even the 8-sample tail) bounces.
        assert statuses[:2] == [202, 202]
        assert set(statuses[2:]) == {429}
        used = quota_app.quotas.usage("acme")
        assert used[1] == 240  # refused batches never billed


async def _stall_then_retry(app, config, bodies, content_type):
    """Ingest ``bodies`` into a session whose drain worker is stalled,
    then wake the worker, retry every refused body in order, and close.
    """
    response = await app.dispatch(make_request(
        "POST", "/v1/sessions", tenant="acme",
        body=json.dumps(config).encode(),
    ))
    sid = json.loads(response.body)["session"]["session_id"]
    session = app.registry.get("acme", sid)
    session.gate.clear()  # stall the consumer

    def post(body):
        return app.dispatch(make_request(
            "POST", f"/v1/sessions/{sid}/batches",
            tenant="acme", body=body, content_type=content_type,
        ))

    statuses: list[int] = []
    refused: list[bytes] = []
    retry_after = None
    for body in bodies:
        r = await post(body)
        statuses.append(r.status)
        if r.status == 429:
            refused.append(body)
            retry_after = r.headers.get("Retry-After")

    session.gate.set()  # consumer wakes up
    await session.drain()
    for body in refused:  # client retries, in order
        r = await post(body)
        assert r.status == 202
    await session.drain()
    closed = await app.dispatch(make_request(
        "DELETE", f"/v1/sessions/{sid}", tenant="acme"
    ))
    return session, statuses, retry_after, closed


class TestBackpressure:
    def test_slow_consumer_429_then_recovers(
        self, app, session_config, json_payloads, direct_summary
    ):
        """A stalled drain worker fills the bounded queue, ingest
        answers 429 + Retry-After, and once the consumer catches up the
        session still converges on the exact direct verdict."""
        config = dict(session_config, queue_capacity=2)
        session, statuses, retry_after, closed = asyncio.run(
            _stall_then_retry(app, config, json_payloads, "application/json")
        )
        assert 429 in statuses  # the queue really filled
        assert statuses[0] == 202  # and really accepted some first
        assert retry_after is not None and float(retry_after) > 0
        assert session.batches_rejected > 0
        assert session.queue_high_watermark == 2
        summary = json.loads(closed.body)["summary"]
        assert strip_queue_stats(summary) == direct_summary

    def test_slow_consumer_rpwr_429_then_recovers(
        self, app, session_config, serve_batches, direct_summary
    ):
        """The same stall over RPWR frames: a refused body leaves the
        session's wire reader untouched, so its retry is decoded afresh
        instead of being dropped as duplicate frames."""
        config = dict(session_config, queue_capacity=2)
        writer = WireWriter(codec="raw64")
        bodies = [writer.write(b).data for b in serve_batches]
        session, statuses, retry_after, closed = asyncio.run(
            _stall_then_retry(app, config, bodies, RPWR_CONTENT_TYPE)
        )
        assert 429 in statuses
        assert statuses[0] == 202
        assert retry_after is not None and float(retry_after) > 0
        assert session.batches_rejected > 0
        summary = json.loads(closed.body)["summary"]
        assert summary["quality"]["frames_corrupt"] == 0
        assert strip_queue_stats(summary) == direct_summary


class TestIdleEviction:
    def test_eviction_on_simclock(
        self, session_config, json_payloads
    ):
        clock = SimClock(dt_s=1.0)
        app = TelemetryApp(clock, ServiceConfig(idle_timeout_s=100.0))

        async def scenario():
            ids = {}
            for tenant in ("fresh", "stale"):
                response = await app.dispatch(make_request(
                    "POST", "/v1/sessions", tenant=tenant,
                    body=json.dumps(session_config).encode(),
                ))
                ids[tenant] = json.loads(
                    response.body
                )["session"]["session_id"]
            clock.advance(50)
            # "fresh" stays active; "stale" never ingests again.
            await app.dispatch(make_request(
                "POST", f"/v1/sessions/{ids['fresh']}/batches",
                tenant="fresh", body=json_payloads[0],
            ))
            clock.advance(70)  # t=120: stale (t=0) is idle, fresh isn't
            evicted = await app.sweep_idle()
            return ids, evicted

        ids, evicted = asyncio.run(scenario())
        assert evicted == [ids["stale"]]
        assert app.registry.gauges()["sessions_evicted"] == 1
        assert len(app.registry) == 1

    def test_eviction_never_drops_queued_batches(
        self, session_config, json_payloads
    ):
        """However stale, a session with queued work survives the sweep
        until its worker has caught up."""
        clock = SimClock(dt_s=1.0)
        app = TelemetryApp(clock, ServiceConfig(idle_timeout_s=10.0))
        config = dict(session_config, queue_capacity=4)

        async def scenario():
            response = await app.dispatch(make_request(
                "POST", "/v1/sessions", tenant="acme",
                body=json.dumps(config).encode(),
            ))
            sid = json.loads(response.body)["session"]["session_id"]
            session = app.registry.get("acme", sid)
            session.gate.clear()
            await app.dispatch(make_request(
                "POST", f"/v1/sessions/{sid}/batches",
                tenant="acme", body=json_payloads[0],
            ))
            clock.advance(1000)  # way past the idle deadline
            first_sweep = await app.sweep_idle()
            assert session.pending_batches > 0
            session.gate.set()
            await session.drain()
            second_sweep = await app.sweep_idle()
            return sid, first_sweep, second_sweep, session

        sid, first_sweep, second_sweep, session = asyncio.run(scenario())
        assert first_sweep == []  # queued work shielded it
        assert second_sweep == [sid]  # drained -> evictable
        assert session.state.samples_ingested > 0  # nothing was lost

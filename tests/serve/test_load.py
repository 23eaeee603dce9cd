"""Refusal paths of the telemetry service, at the route level.

Rate limits, quotas, queue backpressure and idle eviction each refuse
or defer work; every test here checks the refusal itself and that the
refused work, retried, still lands on a verdict *bit-identical* to a
direct in-process :func:`~repro.stream.session.stream_session` replay.
Everything runs on a :class:`~repro.stream.ingest.SimClock`, so there
is nothing to flake.  That an accepted stream gives the same fold
state by every route is the property in
``tests/test_route_equivalence.py``.
"""

from __future__ import annotations

import asyncio
import json
import math

from repro.serve import (
    ServiceConfig,
    TelemetryApp,
    TenantQuota,
    make_request,
)
from repro.serve.app import RPWR_CONTENT_TYPE
from repro.stream.ingest import SimClock
from repro.wire.session import WireWriter

from .conftest import strip_queue_stats


class TestRateLimiting:
    def test_rate_limit_is_per_tenant_and_retry_converges(
        self, session_config, json_payloads, direct_summary
    ):
        """A tenant over its bucket gets 429 + Retry-After; another
        tenant at the same instant is served, because buckets are per
        tenant; after the advertised wait the retried body is accepted
        and the verdict equals the direct replay."""
        clock = SimClock(dt_s=1.0)
        app = TelemetryApp(
            clock,
            ServiceConfig(rate_capacity=3.0, rate_refill_per_request_s=2.0),
        )

        def send(tenant, method, path, body=b""):
            return app.dispatch(make_request(
                method, path, tenant=tenant, body=body,
            ))

        def wait_out(response):
            clock.advance(math.ceil(float(response.headers["Retry-After"])))

        async def until_served(tenant, method, path, body=b""):
            while True:
                response = await send(tenant, method, path, body)
                if response.status != 429:
                    return response
                wait_out(response)

        async def scenario():
            ids = {}
            for tenant in ("busy", "quiet"):
                response = await send(
                    tenant, "POST", "/v1/sessions",
                    json.dumps(session_config).encode(),
                )
                assert response.status == 201
                ids[tenant] = json.loads(
                    response.body
                )["session"]["session_id"]
            path = f"/v1/sessions/{ids['busy']}/batches"
            # The create took one of busy's three tokens.
            statuses = [
                (await send("busy", "POST", path, body)).status
                for body in json_payloads[:2]
            ]
            refused = await send("busy", "POST", path, json_payloads[2])
            other = await send(
                "quiet", "POST", f"/v1/sessions/{ids['quiet']}/batches",
                json_payloads[0],
            )
            wait_out(refused)
            retried = await send("busy", "POST", path, json_payloads[2])
            for body in json_payloads[3:]:
                assert (
                    await until_served("busy", "POST", path, body)
                ).status == 202
            closed = await until_served(
                "busy", "DELETE", f"/v1/sessions/{ids['busy']}"
            )
            return statuses, refused, other, retried, closed

        statuses, refused, other, retried, closed = asyncio.run(scenario())
        assert statuses == [202, 202]
        assert refused.status == 429
        assert json.loads(refused.body)["error"]["code"] == "rate-limited"
        assert float(refused.headers["Retry-After"]) > 0
        assert other.status == 202
        assert retried.status == 202
        assert closed.status == 200
        summary = json.loads(closed.body)["summary"]
        assert strip_queue_stats(summary) == direct_summary
        assert app.metrics.to_dict()["rejects"]["rate-limited"] >= 1

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

"""Tests for repro.serve.app routing and endpoint behaviour."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.sampling import recommend_sample_size
from repro.serve import make_request

from .conftest import ACCURACY


def body(response) -> dict:
    return json.loads(response.body)


def dispatch(app, request):
    return asyncio.run(app.dispatch(request))


async def open_session(app, config: dict, tenant: str = "acme") -> str:
    response = await app.dispatch(make_request(
        "POST", "/v1/sessions", tenant=tenant,
        body=json.dumps(config).encode(),
    ))
    assert response.status == 201
    return json.loads(response.body)["session"]["session_id"]


class TestPlainRoutes:
    def test_healthz(self, app):
        response = dispatch(app, make_request("GET", "/healthz"))
        assert response.status == 200
        assert body(response)["ok"] is True

    def test_unknown_route_404(self, app):
        response = dispatch(app, make_request("GET", "/nope"))
        assert response.status == 404
        assert body(response)["error"]["code"] == "no-route"

    def test_wrong_method_404(self, app):
        response = dispatch(app, make_request("DELETE", "/healthz"))
        assert response.status == 404

    def test_plan_matches_library(self, app):
        response = dispatch(app, make_request(
            "GET", "/v1/plan",
            query={"population": "10000", "cv": "0.03"},
        ))
        assert response.status == 200
        payload = body(response)
        expected = recommend_sample_size(10_000, 0.03, 0.01, 0.95)
        assert payload["required_n"] == expected.n
        assert payload["required_n_infinite"] == pytest.approx(expected.n0)
        assert payload["post2015_rule_n"] == 1000

    def test_plan_missing_param(self, app):
        response = dispatch(app, make_request(
            "GET", "/v1/plan", query={"population": "100"}
        ))
        assert response.status == 400
        assert body(response)["error"]["code"] == "missing-param"

    def test_plan_unparseable_param(self, app):
        response = dispatch(app, make_request(
            "GET", "/v1/plan",
            query={"population": "100", "cv": "many"},
        ))
        assert response.status == 400
        assert body(response)["error"]["code"] == "bad-param"

    def test_plan_invalid_values(self, app):
        response = dispatch(app, make_request(
            "GET", "/v1/plan",
            query={"population": "100", "cv": "-1"},
        ))
        assert response.status == 400

    def test_plan_table_grid(self, app):
        response = dispatch(app, make_request(
            "GET", "/v1/plan/table",
            query={"population": "5000", "cvs": "0.02,0.05",
                   "accuracies": "0.01"},
        ))
        assert response.status == 200
        payload = body(response)
        assert payload["cvs"] == [0.02, 0.05]
        expected = recommend_sample_size(5000, 0.05, 0.01, 0.95).n
        assert payload["required_n"][0][1] == expected

    def test_plan_table_bad_list(self, app):
        response = dispatch(app, make_request(
            "GET", "/v1/plan/table", query={"cvs": "a,b"}
        ))
        assert response.status == 400


class TestSessionRoutes:
    def test_tenantless_request_401(self, app, session_config):
        response = dispatch(app, make_request(
            "POST", "/v1/sessions",
            body=json.dumps(session_config).encode(),
        ))
        assert response.status == 401
        assert body(response)["error"]["code"] == "missing-tenant"

    def test_create_and_info(self, app, session_config):
        async def scenario():
            sid = await open_session(app, session_config)
            info = await app.dispatch(make_request(
                "GET", f"/v1/sessions/{sid}", tenant="acme"
            ))
            listing = await app.dispatch(make_request(
                "GET", "/v1/sessions", tenant="acme"
            ))
            return sid, info, listing

        sid, info, listing = asyncio.run(scenario())
        assert body(info)["session"]["session_id"] == sid
        assert body(info)["session"]["config"]["accuracy"] == ACCURACY
        assert [s["session_id"] for s in body(listing)["sessions"]] == [sid]

    def test_bad_config_rejected(self, app, session_config):
        bad = dict(session_config, queue_capacity=0)
        response = dispatch(app, make_request(
            "POST", "/v1/sessions", tenant="acme",
            body=json.dumps(bad).encode(),
        ))
        assert response.status == 400
        assert body(response)["error"]["code"] == "bad-config"

    @pytest.mark.parametrize("field, value", [
        ("confidence", 2.0),
        ("accuracy", -1),
        ("quantiles", [1.5]),
        ("report_every_s", 0),
        ("accuracy", "0.01"),
        ("report_every_s", "x"),
        ("confidence", None),
        # json.dumps writes a bare NaN token, which json.loads accepts.
        ("accuracy", float("nan")),
        ("population", 8.5),
        ("population", 10**400),
    ])
    def test_bad_field_is_400_before_the_registry(
        self, app, session_config, field, value
    ):
        def cap_rejects():
            return app.metrics.to_dict()["rejects"].get("session-cap", 0)

        live, caps = len(app.registry), cap_rejects()
        response = dispatch(app, make_request(
            "POST", "/v1/sessions", tenant="acme",
            body=json.dumps(dict(session_config, **{field: value})).encode(),
        ))
        assert response.status == 400
        assert body(response)["error"]["code"] == "bad-config"
        assert field in body(response)["error"]["message"]
        assert len(app.registry) == live
        assert cap_rejects() == caps

    def test_unknown_config_key_rejected(self, app, session_config):
        bad = dict(session_config, turbo=True)
        response = dispatch(app, make_request(
            "POST", "/v1/sessions", tenant="acme",
            body=json.dumps(bad).encode(),
        ))
        assert response.status == 400
        assert "turbo" in body(response)["error"]["message"]

    def test_unknown_session_404(self, app):
        response = dispatch(app, make_request(
            "GET", "/v1/sessions/s-99999999", tenant="acme"
        ))
        assert response.status == 404

    def test_cross_tenant_403(self, app, session_config):
        async def scenario():
            sid = await open_session(app, session_config, tenant="acme")
            return await app.dispatch(make_request(
                "GET", f"/v1/sessions/{sid}", tenant="rival"
            ))

        response = asyncio.run(scenario())
        assert response.status == 403
        assert body(response)["error"]["code"] == "not-owner"

    def test_session_cap_429(self, clock, session_config):
        from repro.serve import ServiceConfig, TelemetryApp

        app = TelemetryApp(clock, ServiceConfig(max_sessions_per_tenant=1))

        async def scenario():
            await open_session(app, session_config)
            return await app.dispatch(make_request(
                "POST", "/v1/sessions", tenant="acme",
                body=json.dumps(session_config).encode(),
            ))

        response = asyncio.run(scenario())
        assert response.status == 429
        assert body(response)["error"]["code"] == "session-cap"

    def test_ingest_verdict_quality_close(
        self, app, session_config, json_payloads
    ):
        async def scenario():
            sid = await open_session(app, session_config)
            for payload in json_payloads:
                response = await app.dispatch(make_request(
                    "POST", f"/v1/sessions/{sid}/batches",
                    tenant="acme", body=payload,
                ))
                assert response.status == 202
            for session in app.registry.all_sessions():
                await session.drain()
            verdict = await app.dispatch(make_request(
                "GET", f"/v1/sessions/{sid}/verdict", tenant="acme"
            ))
            quality = await app.dispatch(make_request(
                "GET", f"/v1/sessions/{sid}/quality", tenant="acme"
            ))
            closed = await app.dispatch(make_request(
                "DELETE", f"/v1/sessions/{sid}", tenant="acme"
            ))
            gone = await app.dispatch(make_request(
                "GET", f"/v1/sessions/{sid}", tenant="acme"
            ))
            return verdict, quality, closed, gone

        verdict, quality, closed, gone = asyncio.run(scenario())
        assert verdict.status == 200
        v = body(verdict)
        assert v["samples_ingested"] > 0
        assert v["snapshot"]["fleet_mean_w"] > 0
        assert "should_stop" in v["stopping"]
        q = body(quality)["quality"]
        assert q["effective_coverage"] == 1.0
        assert q["samples_missing"] == 0
        summary = body(closed)["summary"]
        assert summary["samples_ingested"] == v["samples_ingested"]
        assert gone.status == 404

    def test_served_sigma_tick_is_the_mean_per_node_sigma(
        self, app, session_config, json_payloads
    ):
        """``sigma_tick_w`` is the mean per-node temporal σ, not the σ
        pooled over every cell (which adds node-to-node spread)."""
        async def scenario():
            sid = await open_session(app, session_config)
            for payload in json_payloads:
                await app.dispatch(make_request(
                    "POST", f"/v1/sessions/{sid}/batches",
                    tenant="acme", body=payload,
                ))
            (session,) = app.registry.all_sessions()
            await session.drain()
            quality = await app.dispatch(make_request(
                "GET", f"/v1/sessions/{sid}/quality", tenant="acme"
            ))
            return session, body(quality)["quality"]

        session, q = asyncio.run(scenario())
        node_moments = session.state.fold.node_moments
        expected = float(np.asarray(node_moments.std()).mean())
        assert q["sigma_tick_w"] == expected
        assert q["sigma_tick_w"] < float(node_moments.pooled().std())

    def test_empty_session_close_summary(self, app, session_config):
        async def scenario():
            sid = await open_session(app, session_config)
            return await app.dispatch(make_request(
                "DELETE", f"/v1/sessions/{sid}", tenant="acme"
            ))

        response = asyncio.run(scenario())
        assert response.status == 200
        summary = body(response)["summary"]
        assert summary["insufficient_data"] is True
        assert summary["samples_ingested"] == 0

    def test_quality_none_before_data(self, app, session_config):
        async def scenario():
            sid = await open_session(app, session_config)
            return await app.dispatch(make_request(
                "GET", f"/v1/sessions/{sid}/quality", tenant="acme"
            ))

        response = asyncio.run(scenario())
        assert response.status == 200
        assert body(response)["quality"] is None

    def test_bad_content_type_415(self, app, session_config):
        async def scenario():
            sid = await open_session(app, session_config)
            return await app.dispatch(make_request(
                "POST", f"/v1/sessions/{sid}/batches", tenant="acme",
                body=b"1,2,3", content_type="text/csv",
            ))

        response = asyncio.run(scenario())
        assert response.status == 415


class TestMetricsRoute:
    def test_metrics_document(self, app, session_config, json_payloads):
        async def scenario():
            sid = await open_session(app, session_config)
            await app.dispatch(make_request(
                "POST", f"/v1/sessions/{sid}/batches",
                tenant="acme", body=json_payloads[0],
            ))
            await app.dispatch(make_request("GET", "/missing"))
            return await app.dispatch(make_request("GET", "/metrics"))

        response = asyncio.run(scenario())
        assert response.status == 200
        doc = body(response)
        assert doc["requests_total"] == 3
        assert doc["by_status"]["201"] == 1
        assert doc["by_status"]["202"] == 1
        assert doc["by_status"]["404"] == 1
        assert doc["ingest"]["batches"] == 1
        assert doc["registry"]["sessions_live"] == 1
        assert "acme" in doc["quota_usage"]
        route = doc["routes"]["POST /v1/sessions/*/batches"]
        assert route["total"] == 1
        assert route["latency"]["count"] == 1


class TestVerdictRoute:
    """``GET …/verdict`` reads one monitor report and renders exactly
    what a direct replay's snapshot, report and decision render."""

    @staticmethod
    def _reference_body(state, session_id: str) -> bytes:
        # The verdict body as rendered from three separate reads: a
        # snapshot stamped at the report's stream time, a second report
        # and the stopping decision.
        monitor = state.fold
        snapshot = (
            state.snapshot_at(
                monitor.report().t_now_s, monitor.report()
            ).to_dict()
            if state.samples_ingested else None
        )
        return json.dumps({
            "session_id": session_id,
            "samples_ingested": state.samples_ingested,
            "queue_depth": 0,
            "snapshot": snapshot,
            "monitor": monitor.report().to_dict(),
            "stopping": state.decision.to_dict(),
        }, default=float).encode("utf-8")

    def test_one_report_per_read_and_body_equals_direct_replay(
        self, app, session_config, json_payloads, serve_batches,
        monkeypatch,
    ):
        from repro.stream.monitor import ComplianceMonitor
        from repro.stream.session import LiveStreamState

        reports = []
        original = ComplianceMonitor.report

        def counted(monitor):
            reports.append(monitor)
            return original(monitor)

        monkeypatch.setattr(ComplianceMonitor, "report", counted)
        reference = LiveStreamState(
            population=session_config["population"],
            core_window=(
                session_config["core_t0_s"], session_config["core_t1_s"]
            ),
            required_interval_s=session_config["interval_s"],
            accuracy=ACCURACY,
            report_every_s=session_config["report_every_s"],
        )
        read_after = {0, 1, 3, len(json_payloads)}

        async def scenario():
            sid = await open_session(app, session_config)
            (session,) = app.registry.all_sessions()
            served = session.state.fold
            reads = []
            for k in range(len(json_payloads) + 1):
                if k:
                    response = await app.dispatch(make_request(
                        "POST", f"/v1/sessions/{sid}/batches",
                        tenant="acme", body=json_payloads[k - 1],
                    ))
                    assert response.status == 202
                    await session.drain()
                    reference.push(serve_batches[k - 1])
                if k not in read_after:
                    continue
                expected = self._reference_body(reference, sid)
                reports.clear()
                response = await app.dispatch(make_request(
                    "GET", f"/v1/sessions/{sid}/verdict", tenant="acme"
                ))
                served_reads = sum(m is served for m in reports)
                reads.append((k, response, expected, served_reads))
            return reads

        reads = asyncio.run(scenario())
        assert [k for k, *_ in reads] == sorted(read_after)
        for k, response, expected, served_reads in reads:
            assert response.status == 200, k
            assert served_reads == 1, k
            assert response.body == expected, k
        assert body(reads[0][1])["snapshot"] is None
        assert body(reads[-1][1])["snapshot"]["samples_seen"] > 0

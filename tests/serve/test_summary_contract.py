"""The result keys the end-to-end benchmark's checks rely on.

``benchmarks/e2e/workloads.py`` reads a session result in two places:

* fleet-fold's ``_comparable`` pops ``queue_stalls`` and
  ``queue_high_watermark`` from a stream result's dict;
* serve-mixed's check pops ``session_id`` and ``quality`` from a served
  close summary and compares what is left with
  ``LiveStreamState.result(queue_high_watermark=...).to_dict()``.

Both are held here, so a change that breaks them fails the tier-1 suite
before it fails a benchmark run.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve import make_request
from repro.stream.session import stream_session

from .conftest import ACCURACY, REPORT_EVERY_S, TICKS_PER_BATCH

_FLEET_FOLD = (
    "benchmarks/e2e/workloads.py: fleet-fold's _comparable pops "
    "queue_stalls and queue_high_watermark from a stream result"
)
_SERVE_MIXED = (
    "benchmarks/e2e/workloads.py: serve-mixed's check expects the close "
    "summary to be LiveStreamState.result(queue_high_watermark=...)"
    ".to_dict() plus session_id and quality"
)


def test_stream_result_declares_its_queue(serve_run):
    result = stream_session(
        serve_run, ticks_per_batch=TICKS_PER_BATCH, accuracy=ACCURACY,
        report_every_s=REPORT_EVERY_S,
    )
    d = result.to_dict()
    assert {"queue_stalls", "queue_high_watermark"} <= d.keys(), _FLEET_FOLD
    assert set(result.provenance) == {
        "queue_stalls", "queue_high_watermark",
    }, _FLEET_FOLD


def test_close_summary_is_the_state_result_plus_id_and_quality(
    app, session_config, json_payloads
):
    async def scenario():
        created = await app.dispatch(make_request(
            "POST", "/v1/sessions", tenant="acme",
            body=json.dumps(session_config).encode(),
        ))
        sid = json.loads(created.body)["session"]["session_id"]
        session = app.registry.get("acme", sid)
        for payload in json_payloads:
            response = await app.dispatch(make_request(
                "POST", f"/v1/sessions/{sid}/batches", tenant="acme",
                body=payload,
            ))
            assert response.status == 202
        closed = await app.dispatch(make_request(
            "DELETE", f"/v1/sessions/{sid}", tenant="acme"
        ))
        assert closed.status == 200
        return session, json.loads(closed.body)["summary"]

    session, summary = asyncio.run(scenario())
    state = session.state
    direct = state.result(
        queue_high_watermark=summary["queue_high_watermark"]
    ).to_dict()
    expected = {
        **direct,
        "session_id": session.session_id,
        "quality": session.quality_report().to_dict(),
    }
    # The summary crossed JSON; put the expectation through it too.
    assert summary == json.loads(
        json.dumps(expected, default=float)
    ), _SERVE_MIXED
    assert summary.keys() - direct.keys() == {
        "session_id", "quality",
    }, _SERVE_MIXED

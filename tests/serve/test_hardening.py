"""Malformed-input hardening tests for the telemetry service.

Adversarial bytes — garbage JSON, mis-shapen batches, corrupt RPWR
frames, fuzzed frame streams — must come back as *structured* 4xx
responses, never a 500, and must never corrupt session state: after
any rejected request the session keeps ingesting and its verdict stays
exactly consistent.  The frame fuzzing reuses the seeded mutation
approach of the wire chaos suite.

Every test runs its whole scenario inside one event loop (sessions own
worker tasks bound to the loop they were created on).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import rng
from repro.serve import ServiceConfig, TelemetryApp, make_request
from repro.serve.app import RPWR_CONTENT_TYPE
from repro.stream.ingest import SampleBatch, SimClock
from repro.wire.session import WireWriter

from .conftest import batch_to_json


class Harness:
    """One app + one session, driven inside a single event loop."""

    def __init__(self, session_config: dict) -> None:
        self.clock = SimClock(dt_s=1.0)
        self.app = TelemetryApp(self.clock, ServiceConfig())
        self.session_config = session_config
        self.session_id = ""

    async def open(self) -> None:
        response = await self.app.dispatch(make_request(
            "POST", "/v1/sessions", tenant="acme",
            body=json.dumps(self.session_config).encode(),
        ))
        assert response.status == 201
        self.session_id = json.loads(
            response.body
        )["session"]["session_id"]

    async def post(self, body: bytes,
                   content_type: str = "application/json"):
        return await self.app.dispatch(make_request(
            "POST", f"/v1/sessions/{self.session_id}/batches",
            tenant="acme", body=body, content_type=content_type,
        ))

    @property
    def session(self):
        return self.app.registry.get("acme", self.session_id)

    @property
    def ingested(self) -> int:
        return self.session.state.samples_ingested

    async def assert_still_functional(self, serve_batches) -> None:
        """A known-good batch still lands and folds after the abuse."""
        before = self.ingested
        good = json.dumps(batch_to_json(serve_batches[0])).encode()
        response = await self.post(good)
        assert response.status == 202
        await self.session.drain()
        assert self.ingested == before + serve_batches[0].n_samples
        assert not self.session.worker_errors


@pytest.fixture()
def harness(session_config) -> Harness:
    return Harness(session_config)


def frame_bytes(serve_batches) -> list[bytes]:
    writer = WireWriter(codec="raw64")
    return [writer.write(b).data for b in serve_batches]


class TestMalformedJson:
    @pytest.mark.parametrize("body", [
        b"{not json at all",
        b"\xff\xfe\x00garbage",
        b"[1, 2, 3",
        b'{"times": [0.0]',  # truncated mid-object
    ])
    def test_garbage_json_structured_400(
        self, harness, serve_batches, body
    ):
        async def scenario():
            await harness.open()
            response = await harness.post(body)
            assert response.status == 400
            assert json.loads(
                response.body
            )["error"]["code"] == "bad-json"
            assert harness.ingested == 0
            await harness.assert_still_functional(serve_batches)

        asyncio.run(scenario())

    def test_empty_body_400(self, harness):
        async def scenario():
            await harness.open()
            response = await harness.post(b"")
            assert response.status == 400
            assert json.loads(
                response.body
            )["error"]["code"] == "empty-body"

        asyncio.run(scenario())

    def test_non_object_batch_400(self, harness, serve_batches):
        async def scenario():
            await harness.open()
            response = await harness.post(b"[1, 2, 3]")
            assert response.status == 400
            assert json.loads(
                response.body
            )["error"]["code"] == "bad-batch"
            await harness.assert_still_functional(serve_batches)

        asyncio.run(scenario())


class TestMalformedBatches:
    @pytest.mark.parametrize("changes, fragment", [
        ({"times": None}, "1-D"),
        ({"watts": "many"}, "unparseable"),
        ({"times": []}, "non-empty"),
        ({"watts": [1.0, 2.0]}, "2-D"),
        ({"times": [0.0, 1.0, float("nan")]}, "finite"),
        ({"watts": [[1.0, 2.0], [3.0, float("inf")]]}, "finite"),
        ({"watts": [[-5.0, 3.0]]}, "non-negative"),
        ({"times": [0.0, 0.0, 1.0]}, "strictly increasing"),
        ({"node_ids": [1, 2, 3]}, "shapes"),
    ])
    def test_invalid_batch_fields_400(
        self, harness, serve_batches, changes, fragment
    ):
        base = batch_to_json(serve_batches[0])
        # json.dumps refuses nan/inf with allow_nan=False, which is the
        # *client* failing; simulate a hostile client that emits them.
        body = json.dumps({**base, **changes}).encode()

        async def scenario():
            await harness.open()
            response = await harness.post(body)
            assert response.status == 400
            error = json.loads(response.body)["error"]
            assert error["code"] == "bad-batch"
            assert fragment in error["message"]
            assert harness.ingested == 0
            await harness.assert_still_functional(serve_batches)

        asyncio.run(scenario())

    def test_missing_keys_reported(self, harness, serve_batches):
        base = batch_to_json(serve_batches[0])
        del base["watts"]

        async def scenario():
            await harness.open()
            response = await harness.post(json.dumps(base).encode())
            assert response.status == 400
            assert "watts" in json.loads(
                response.body
            )["error"]["message"]

        asyncio.run(scenario())

    def test_cell_cap_enforced(
        self, harness, serve_batches, monkeypatch
    ):
        import repro.serve.sessions as sessions_mod

        monkeypatch.setattr(sessions_mod, "MAX_BATCH_CELLS", 10)
        body = json.dumps(batch_to_json(serve_batches[0])).encode()

        async def scenario():
            await harness.open()
            response = await harness.post(body)
            assert response.status == 400
            assert "cells exceeds" in json.loads(
                response.body
            )["error"]["message"]
            assert harness.ingested == 0

        asyncio.run(scenario())


class TestCorruptFrames:
    def test_pure_garbage_frames(self, harness, serve_batches):
        frames = frame_bytes(serve_batches)
        garbage = bytes(reversed(frames[0]))

        async def scenario():
            await harness.open()
            response = await harness.post(
                garbage, content_type=RPWR_CONTENT_TYPE
            )
            # Either rejected as corrupt or accepted-zero while the
            # parser hunts for the next magic — never a 5xx, never
            # folded samples.
            assert response.status in (202, 400)
            payload = json.loads(response.body)
            if response.status == 400:
                assert payload["error"]["code"] == "corrupt-frames"
            assert harness.ingested == 0
            health = await harness.app.dispatch(
                make_request("GET", "/healthz")
            )
            assert health.status == 200

        asyncio.run(scenario())

    def test_flipped_crc_detected(self, harness, serve_batches):
        frames = frame_bytes(serve_batches)
        corrupt = bytearray(frames[0])
        corrupt[-1] ^= 0xFF  # break the CRC trailer

        async def scenario():
            await harness.open()
            response = await harness.post(
                bytes(corrupt), content_type=RPWR_CONTENT_TYPE
            )
            assert response.status == 400
            payload = json.loads(response.body)
            assert payload["error"]["code"] == "corrupt-frames"
            assert payload["error"]["ingest"]["frames_corrupt"] >= 1
            assert harness.ingested == 0

        asyncio.run(scenario())

    def test_negative_reading_frame_written_off(
        self, harness, serve_batches
    ):
        """A well-formed frame carrying a negative reading is written
        off into the provenance ledger; the session folds nothing from
        it and stays consistent."""
        bad = serve_batches[0]
        watts = bad.watts.copy()
        watts[0, 0] = -5.0
        frame = WireWriter(codec="raw64").write(
            SampleBatch(times=bad.times, watts=watts, node_ids=bad.node_ids)
        ).data

        async def scenario():
            await harness.open()
            response = await harness.post(
                frame, content_type=RPWR_CONTENT_TYPE
            )
            assert response.status == 202
            ingest = json.loads(response.body)["ingest"]
            assert ingest["batches_accepted"] == 0
            assert ingest["gap_cells"] == bad.n_samples
            await harness.session.drain()
            state = harness.session.state
            assert state.samples_ingested == 0
            assert state.fold.monitor.samples_seen == 0
            assert state.fold.sketch.count == 0
            assert not harness.session.worker_errors
            await harness.assert_still_functional(serve_batches)
            assert state.fold.sketch.count == state.samples_ingested
            assert state.fold.monitor.samples_seen == state.samples_ingested

        asyncio.run(scenario())

    def test_split_frame_reassembles(self, harness, serve_batches):
        """A frame truncated mid-request is held, not dropped: the
        remainder arriving in the next request completes it."""
        frames = frame_bytes(serve_batches)
        head, tail = frames[0][:20], frames[0][20:]

        async def scenario():
            await harness.open()
            first = await harness.post(
                head, content_type=RPWR_CONTENT_TYPE
            )
            assert first.status == 202
            assert json.loads(
                first.body
            )["ingest"]["batches_accepted"] == 0
            assert harness.ingested == 0
            second = await harness.post(
                tail, content_type=RPWR_CONTENT_TYPE
            )
            assert second.status == 202
            assert json.loads(
                second.body
            )["ingest"]["batches_accepted"] == 1
            await harness.session.drain()
            assert harness.ingested == serve_batches[0].n_samples

        asyncio.run(scenario())

    def test_fuzzed_stream_never_500s(self, harness, serve_batches):
        """Seeded byte-flip fuzzing over a whole frame stream: every
        response is structured JSON, the service never 500s, and the
        worker never trips on what got through."""
        stream = b"".join(frame_bytes(serve_batches))
        gen = rng.stream(1234, "serve.fuzz.frames")
        blobs = []
        for _ in range(30):
            blob = bytearray(stream)
            for _ in range(int(gen.integers(1, 24))):
                blob[int(gen.integers(0, len(blob)))] ^= int(
                    gen.integers(1, 256)
                )
            blobs.append(bytes(blob))

        async def scenario():
            await harness.open()
            for blob in blobs:
                response = await harness.post(
                    blob, content_type=RPWR_CONTENT_TYPE
                )
                assert response.status in (202, 400, 429)
                json.loads(response.body)  # always a JSON document
            await harness.session.drain()
            assert not harness.session.worker_errors

        asyncio.run(scenario())


class TestOversizedPayloads:
    def test_body_cap_is_config_driven(self):
        from repro.serve.http import ProtocolError, read_request

        async def scenario():
            reader = asyncio.StreamReader()
            body = b"x" * 100
            reader.feed_data(
                b"POST /v1/sessions HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            reader.feed_eof()
            with pytest.raises(ProtocolError) as excinfo:
                await read_request(reader, max_body_bytes=64)
            return excinfo.value

        error = asyncio.run(scenario())
        assert error.status == 413

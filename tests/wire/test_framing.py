"""Frame layout and parser resynchronisation tests."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wire.framing import (
    HEADER_LEN,
    MAGIC,
    MAX_PAYLOAD_LEN,
    TRAILER_LEN,
    WIRE_VERSION,
    FrameParser,
    encode_frame,
)


def frame(seq: int = 0, payload: bytes = b"pppp", **overrides) -> bytes:
    kwargs = dict(
        codec_id=1,
        flags=0,
        seq=seq,
        node_lo=0,
        n_nodes=4,
        n_ticks=2,
        tick=seq * 2,
        payload=payload,
    )
    kwargs.update(overrides)
    return encode_frame(**kwargs)


class TestEncodeFrame:
    def test_layout_matches_the_documented_offsets(self):
        data = frame(seq=7, payload=b"abcdef")
        assert data[:4] == MAGIC
        assert data[4] == WIRE_VERSION
        assert data[5] == 1  # codec_id
        assert struct.unpack_from("<I", data, 8)[0] == 7  # seq
        assert struct.unpack_from("<I", data, 32)[0] == 6  # payload_len
        assert len(data) == HEADER_LEN + 6 + TRAILER_LEN

    def test_rejects_oversized_payload(self):
        with pytest.raises(ValueError, match="MAX_PAYLOAD_LEN"):
            encode_frame(
                codec_id=1,
                flags=0,
                seq=0,
                node_lo=0,
                n_nodes=1,
                n_ticks=1,
                tick=0,
                payload=b"\x00" * (MAX_PAYLOAD_LEN + 1),
            )


class TestParserHappyPath:
    def test_round_trip(self):
        parser = FrameParser()
        events = parser.feed(frame(seq=3, payload=b"hello"))
        events += parser.close()
        assert [e.kind for e in events] == ["ok"]
        assert events[0].header.seq == 3
        assert events[0].payload == b"hello"
        assert parser.frames_ok == 1
        assert parser.garbage_bytes == 0

    def test_byte_at_a_time_delivery(self):
        data = frame(seq=0) + frame(seq=1)
        parser = FrameParser()
        events = []
        for i in range(len(data)):
            events += parser.feed(data[i : i + 1])
        events += parser.close()
        assert [e.header.seq for e in events if e.ok] == [0, 1]
        assert parser.frames_ok == 2

    def test_garbage_between_frames_is_counted_and_skipped(self):
        data = b"\x00\x01junk" + frame(seq=0) + b"zzz" + frame(seq=1)
        parser = FrameParser()
        events = parser.feed(data) + parser.close()
        assert [e.header.seq for e in events if e.ok] == [0, 1]
        assert parser.garbage_bytes == len(b"\x00\x01junk") + len(b"zzz")

    def test_magic_split_across_chunks_still_parses(self):
        data = frame(seq=0)
        parser = FrameParser()
        events = parser.feed(data[:2])  # half the magic
        events += parser.feed(data[2:])
        events += parser.close()
        assert parser.frames_ok == 1
        assert [e.kind for e in events] == ["ok"]


class TestParserCorruption:
    def test_crc_failure_yields_exactly_one_corrupt_event(self):
        data = bytearray(frame(seq=5, payload=b"x" * 40))
        data[HEADER_LEN + 3] ^= 0xFF  # payload byte
        parser = FrameParser()
        events = parser.feed(bytes(data)) + parser.close()
        assert [e.kind for e in events] == ["corrupt"]
        assert events[0].reason == "crc mismatch"
        assert events[0].header.seq == 5  # header survived for accounting
        assert parser.crc_failures == 1

    def test_crc_skip_covers_the_declared_extent(self):
        # A corrupted frame followed by a clean one: the parser must
        # not rescan inside the corrupted frame's body.
        bad = bytearray(frame(seq=0, payload=MAGIC * 3))
        bad[-1] ^= 0x01  # break the trailer
        parser = FrameParser()
        events = parser.feed(bytes(bad) + frame(seq=1)) + parser.close()
        kinds = [e.kind for e in events]
        assert kinds == ["corrupt", "ok"]
        assert parser.crc_failures == 1
        assert parser.frames_ok == 1

    def test_bad_version_is_rejected_then_resynchronises(self):
        bad = bytearray(frame(seq=0))
        bad[4] = 99  # version
        parser = FrameParser()
        events = parser.feed(bytes(bad) + frame(seq=1)) + parser.close()
        assert any(
            e.kind == "corrupt" and "version" in e.reason for e in events
        )
        assert [e.header.seq for e in events if e.ok] == [1]
        assert parser.header_rejects >= 1

    def test_unknown_flags_are_rejected(self):
        data = frame(seq=0, flags=0x8000)
        parser = FrameParser()
        events = parser.feed(data) + parser.close()
        assert all(not e.ok for e in events)
        assert any("flags" in e.reason for e in events)

    def test_truncated_stream_reports_one_final_corrupt_event(self):
        data = frame(seq=0, payload=b"y" * 30)
        parser = FrameParser()
        events = parser.feed(data[:-7])
        assert events == []
        events = parser.close()
        assert [e.kind for e in events] == ["corrupt"]
        assert "truncated" in events[0].reason
        assert parser.truncated_frames == 1

    def test_implausible_length_does_not_buffer_forever(self):
        bad = bytearray(frame(seq=0))
        struct.pack_into("<I", bad, 32, MAX_PAYLOAD_LEN + 1)
        parser = FrameParser()
        events = parser.feed(bytes(bad)) + parser.close()
        assert any(
            "implausible payload length" in e.reason for e in events
        )

    def test_closed_parser_refuses_feed(self):
        parser = FrameParser()
        parser.close()
        with pytest.raises(ValueError, match="closed"):
            parser.feed(b"x")
        assert parser.close() == []  # idempotent


def _counters(parser: FrameParser) -> tuple[int, ...]:
    return (
        parser.frames_ok, parser.crc_failures, parser.header_rejects,
        parser.truncated_frames, parser.garbage_bytes, parser.bytes_fed,
        parser.buffered,
    )


class TestChunkingDoesNotChangeParsing:
    """Events and counters depend on the bytes, not on how they were cut."""

    @staticmethod
    def _stream() -> tuple[bytes, list[int]]:
        """Leading garbage, good frames, a CRC failure, a bad version,
        garbage between frames and a truncated tail; returns the bytes
        and the frame boundaries."""
        crc_bad = bytearray(frame(seq=2, payload=MAGIC + b"q" * 37))
        crc_bad[HEADER_LEN + 9] ^= 0x40
        bad_version = bytearray(frame(seq=4))
        bad_version[4] = 7
        pieces = [
            b"\x00junk" + MAGIC[:3],
            frame(seq=0, payload=b"a" * 17),
            frame(seq=1, payload=bytes(range(200))),
            bytes(crc_bad),
            frame(seq=3),
            bytes(bad_version),
            b"zz",
            *(frame(seq=5 + i, payload=bytes([i]) * (3 * i)) for i in range(8)),
            frame(seq=13, payload=b"t" * 25)[:-6],
        ]
        edges = np.cumsum([0] + [len(p) for p in pieces]).tolist()
        return b"".join(pieces), edges

    def _parse(self, data: bytes, cuts: list[int]):
        parser = FrameParser()
        events = []
        for lo, hi in zip(cuts, cuts[1:]):
            events += parser.feed(data[lo:hi])
        before_close = _counters(parser)
        events += parser.close()
        return events, before_close, _counters(parser)

    def test_one_chunk_per_frame_and_byte_by_byte_agree(self):
        data, edges = self._stream()
        whole = self._parse(data, [0, len(data)])
        events = whole[0]
        assert [e.header.seq for e in events if e.ok] == [
            0, 1, 3, *range(5, 13)
        ]
        # The garbage's "RPW" and the next frame's "R" make a false
        # magic, whose version byte is "P" (80).
        assert [e.reason for e in events if not e.ok] == [
            "unsupported version 80", "crc mismatch",
            "unsupported version 7", "truncated at end of stream",
        ]
        assert self._parse(data, edges) == whole
        assert self._parse(data, list(range(len(data) + 1))) == whole

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=40))
    @settings(max_examples=60)
    def test_any_split_agrees(self, cut_points):
        data, _ = self._stream()
        cuts = sorted({0, len(data), *(c % len(data) for c in cut_points)})
        assert self._parse(data, cuts) == self._parse(data, [0, len(data)])

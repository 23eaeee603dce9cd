"""Framed binary wire format for per-node power telemetry.

A telemetry stream is a sequence of self-delimiting **frames**, each
carrying one :class:`~repro.stream.ingest.SampleBatch` worth of
samples.  The layout (all little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
       0      4   magic          b"RPWR"
       4      1   version        u8, currently 1
       5      1   codec_id       u8, see repro.wire.codecs
       6      2   flags          u16 bitfield (bit 0: zlib outer layer)
       8      4   seq            u32 frame sequence number
      12      4   node_lo        u32 first node id in the frame
      16      4   n_nodes        u32 node count (columns)
      20      4   n_ticks        u32 tick count (rows)
      24      8   tick           u64 stream tick index of the first row
      32      4   payload_len    u32 payload bytes
      36      *   payload        codec output (see repro.wire.codecs)
      36+*    4   crc32          u32 CRC-32 over header + payload

The parser (:class:`FrameParser`) is the trust boundary: it consumes
*arbitrary* bytes — truncated, corrupted, reordered, or pure garbage —
and never raises.  Every complete candidate frame is either emitted as
an ``ok`` event (magic, version, bounds and CRC all check out) or as a
``corrupt`` event naming what failed; bytes that never line up with a
plausible header are counted as garbage and skipped.  On a CRC failure
with a plausible header the parser skips the frame's entire declared
extent rather than rescanning inside it, so one corrupted frame
produces exactly one ``corrupt`` event — the property the chaos
ledger's exact reconciliation rests on.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "HEADER_LEN",
    "TRAILER_LEN",
    "MAX_PAYLOAD_LEN",
    "FLAG_ZLIB",
    "FrameHeader",
    "FrameEvent",
    "FrameParser",
    "encode_frame",
]

#: Frame preamble — "RePro WiRe".
MAGIC = b"RPWR"

#: Wire format version this module reads and writes.
WIRE_VERSION = 1

#: Header layout: magic, version, codec_id, flags, seq, node_lo,
#: n_nodes, n_ticks, tick, payload_len.
_HEADER = struct.Struct("<4sBBHIIIIQI")

HEADER_LEN = _HEADER.size
TRAILER_LEN = 4

#: Upper bound on a sane payload (64 MiB).  Anything larger is treated
#: as a corrupt length field, which also stops a fuzzed header from
#: making the parser buffer unbounded amounts of garbage.
MAX_PAYLOAD_LEN = 64 * 1024 * 1024

#: flags bit 0 — payload is zlib-compressed codec output.
FLAG_ZLIB = 0x0001

#: All currently meaningful flag bits.
_KNOWN_FLAGS = FLAG_ZLIB


@dataclass(frozen=True)
class FrameHeader:
    """Decoded fixed header of one frame."""

    codec_id: int
    flags: int
    seq: int
    node_lo: int
    n_nodes: int
    n_ticks: int
    tick: int
    payload_len: int


@dataclass(frozen=True)
class FrameEvent:
    """One parser outcome: a validated frame or a detected corruption.

    ``kind`` is ``"ok"`` (header + payload valid, CRC matched) or
    ``"corrupt"`` (a plausible frame failed validation; ``reason`` says
    how).  Corrupt events carry the header when it parsed — the chaos
    layer uses its ``seq``/``tick`` for exact accounting — and an empty
    payload.
    """

    kind: str
    header: FrameHeader | None
    payload: bytes
    reason: str = ""

    @property
    def ok(self) -> bool:
        """Whether this event is a validated frame."""
        return self.kind == "ok"


def encode_frame(
    *,
    codec_id: int,
    flags: int,
    seq: int,
    node_lo: int,
    n_nodes: int,
    n_ticks: int,
    tick: int,
    payload: bytes,
) -> bytes:
    """Assemble one wire frame (header + payload + CRC-32 trailer)."""
    if len(payload) > MAX_PAYLOAD_LEN:
        raise ValueError(
            f"payload of {len(payload)} exceeds MAX_PAYLOAD_LEN"
        )
    header = _HEADER.pack(
        MAGIC,
        WIRE_VERSION,
        codec_id,
        flags,
        seq,
        node_lo,
        n_nodes,
        n_ticks,
        tick,
        len(payload),
    )
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    return header + payload + struct.pack("<I", crc)


def _parse_header(
    buf: bytes | bytearray, pos: int
) -> tuple[FrameHeader | None, str]:
    """Try to read a header at ``pos``; returns ``(header, reason)``.

    ``header is None`` with an empty reason means "not enough bytes
    yet"; a non-empty reason means the candidate is implausible and the
    caller should resynchronise.
    """
    if len(buf) - pos < HEADER_LEN:
        return None, ""
    (
        magic,
        version,
        codec_id,
        flags,
        seq,
        node_lo,
        n_nodes,
        n_ticks,
        tick,
        payload_len,
    ) = _HEADER.unpack_from(buf, pos)
    if magic != MAGIC:  # pragma: no cover - caller aligns to magic
        return None, "bad magic"
    if version != WIRE_VERSION:
        return None, f"unsupported version {version}"
    if flags & ~_KNOWN_FLAGS:
        return None, f"unknown flags 0x{flags:04x}"
    if payload_len > MAX_PAYLOAD_LEN:
        return None, f"implausible payload length {payload_len}"
    return (
        FrameHeader(
            codec_id=codec_id,
            flags=flags,
            seq=seq,
            node_lo=node_lo,
            n_nodes=n_nodes,
            n_ticks=n_ticks,
            tick=tick,
            payload_len=payload_len,
        ),
        "",
    )


class FrameParser:
    """Incremental, crash-proof frame scanner.

    Feed byte chunks of any size; each call returns the
    :class:`FrameEvent` list completed by those bytes.  The parser
    keeps an internal buffer for partial frames; :meth:`close` flushes
    it, reporting a trailing incomplete frame as one final ``corrupt``
    event.

    Resynchronisation policy:

    * bytes before the next ``MAGIC`` are garbage — counted, skipped;
    * a candidate whose header is implausible (bad version, unknown
      flags, absurd length) yields a ``corrupt`` event and a rescan
      from the byte after its magic;
    * a candidate with a plausible header but failing CRC yields a
      ``corrupt`` event and skips the *declared* frame extent — never
      rescanning inside a frame that announced its own length.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.frames_ok = 0
        self.crc_failures = 0
        self.header_rejects = 0
        self.truncated_frames = 0
        self.garbage_bytes = 0
        self.bytes_fed = 0
        self._closed = False

    @property
    def buffered(self) -> int:
        """Bytes held back as the start of a not yet complete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[FrameEvent]:
        """Consume a chunk; return the events it completed."""
        if self._closed:
            raise ValueError("parser is closed")
        self._buf.extend(data)
        self.bytes_fed += len(data)
        return self._scan(final=False)

    def close(self) -> list[FrameEvent]:
        """Flush: report any dangling partial frame, then stop."""
        if self._closed:
            return []
        self._closed = True
        events = self._scan(final=True)
        if self._buf:
            # Leftover bytes start with MAGIC (otherwise _scan would
            # have discarded them as garbage) but never completed.
            self.truncated_frames += 1
            header, _ = _parse_header(self._buf, 0)
            events.append(
                FrameEvent(
                    kind="corrupt",
                    header=header,
                    payload=b"",
                    reason="truncated at end of stream",
                )
            )
            self.garbage_bytes += len(self._buf)
            self._buf.clear()
        return events

    # ------------------------------------------------------------------
    def _discard(self, n_bytes: int) -> None:
        del self._buf[:n_bytes]

    def _scan(self, *, final: bool) -> list[FrameEvent]:
        events: list[FrameEvent] = []
        while True:
            # Align to the next magic; everything before it is garbage.
            idx = self._buf.find(MAGIC)
            if idx < 0:
                # Keep a tail shorter than the magic — it may be a
                # prefix of a magic split across chunks.
                keep = min(len(self._buf), len(MAGIC) - 1)
                drop = len(self._buf) - keep
                if final:
                    drop = len(self._buf)
                self.garbage_bytes += drop
                self._discard(drop)
                return events
            if idx > 0:
                self.garbage_bytes += idx
                self._discard(idx)
            header, reason = _parse_header(self._buf, 0)
            if header is None and not reason:
                return events  # need more bytes for the header
            if header is None:
                self.header_rejects += 1
                events.append(
                    FrameEvent(
                        kind="corrupt",
                        header=None,
                        payload=b"",
                        reason=reason,
                    )
                )
                self._discard(1)  # rescan just past this magic
                continue
            frame_len = HEADER_LEN + header.payload_len + TRAILER_LEN
            if len(self._buf) < frame_len:
                return events  # need more bytes for payload + CRC
            body_len = HEADER_LEN + header.payload_len
            stored = struct.unpack_from("<I", self._buf, body_len)[0]
            # CRC and payload read the buffer in place; only the payload
            # of a good frame is copied out.  The view is released
            # before the buffer is trimmed.
            with memoryview(self._buf) as view:
                good = zlib.crc32(view[:body_len]) & 0xFFFFFFFF == stored
                payload = bytes(view[HEADER_LEN:body_len]) if good else b""
            if not good:
                self.crc_failures += 1
                events.append(
                    FrameEvent(
                        kind="corrupt",
                        header=header,
                        payload=b"",
                        reason="crc mismatch",
                    )
                )
                # Trust the declared extent: skip the whole frame.
                self._discard(frame_len)
                continue
            self.frames_ok += 1
            events.append(
                FrameEvent(kind="ok", header=header, payload=payload)
            )
            self._discard(frame_len)

"""Encoder/decoder sessions: batches to frames and back, with audit.

:class:`WireWriter` serialises a :class:`~repro.stream.ingest.SampleBatch`
stream into wire frames, assigning sequence numbers and stream tick
indices; :class:`WireReader` is the receiving side, and the bridge into
the PR 4 recovery layer: it validates CRCs, re-orders frames inside a
bounded window, detects sequence gaps, and emits an *in-order* batch
stream in which every missing frame's rows appear as NaN — exactly the
missing-sample convention :class:`~repro.faults.recovery.RecoveryPipeline`
repairs and labels.  Nothing is dropped silently: every corrupt,
duplicate, reordered, undecodable or missing frame is counted, and the
worst lossy-codec error bound seen on the stream is tracked for the
:class:`~repro.faults.quality.QualityReport` provenance stamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stream.ingest import SampleBatch
from repro.wire.codecs import Codec, codec_for_frame, make_codec
from repro.wire.framing import (
    FLAG_ZLIB,
    HEADER_LEN,
    TRAILER_LEN,
    FrameHeader,
    FrameParser,
    encode_frame,
)

__all__ = ["WireFrame", "WireWriter", "WireReader"]


@dataclass(frozen=True)
class WireFrame:
    """One encoded frame: its bytes plus the header bookkeeping."""

    data: bytes
    seq: int
    tick: int
    n_ticks: int
    n_nodes: int
    node_lo: int
    error_bound_w: float

    @property
    def n_samples(self) -> int:
        """Scalar samples carried by the frame."""
        return self.n_ticks * self.n_nodes

    @property
    def n_bytes(self) -> int:
        """Total frame size on the wire."""
        return len(self.data)


class WireWriter:
    """Serialise a batch stream into framed, codec-compressed bytes.

    Batches must cover a contiguous node range (``node_ids`` equal to
    ``arange(node_lo, node_lo + n)``) and arrive in time order; the
    writer assigns consecutive sequence numbers and cumulative stream
    tick indices, which is what lets the reader detect gaps and
    reordering exactly.
    """

    def __init__(self, codec: str | Codec = "delta-varint") -> None:
        self.codec = make_codec(codec)
        self._flags = FLAG_ZLIB if self.codec.name.startswith("zlib(") else 0
        self._next_seq = 0
        self._next_tick = 0
        self._node_lo: int | None = None
        self._n_nodes: int | None = None
        self.frames_written = 0
        self.bytes_written = 0
        self.payload_bytes = 0
        self.samples_written = 0
        self.error_bound_w = 0.0

    def write(self, batch: SampleBatch) -> WireFrame:
        """Encode one batch as the next frame in the stream."""
        ids = np.asarray(batch.node_ids, dtype=np.int64)
        if ids.size == 0 or batch.n_ticks == 0:
            raise ValueError("cannot frame an empty batch")
        node_lo = int(ids[0])
        if not np.array_equal(
            ids, np.arange(node_lo, node_lo + ids.size, dtype=np.int64)
        ):
            raise ValueError(
                "wire frames carry contiguous node ranges; re-index "
                "the fleet before framing"
            )
        if self._node_lo is None:
            self._node_lo, self._n_nodes = node_lo, ids.size
        elif (node_lo, ids.size) != (self._node_lo, self._n_nodes):
            raise ValueError("batch node range changed mid-stream")
        payload, bound_w = self.codec.encode(
            np.asarray(batch.watts, dtype=np.float64)
        )
        times_blob = np.ascontiguousarray(
            batch.times, dtype="<f8"
        ).tobytes()
        data = encode_frame(
            codec_id=self.codec.codec_id,
            flags=self._flags,
            seq=self._next_seq,
            node_lo=node_lo,
            n_nodes=ids.size,
            n_ticks=batch.n_ticks,
            tick=self._next_tick,
            payload=times_blob + payload,
        )
        frame = WireFrame(
            data=data,
            seq=self._next_seq,
            tick=self._next_tick,
            n_ticks=batch.n_ticks,
            n_nodes=ids.size,
            node_lo=node_lo,
            error_bound_w=bound_w,
        )
        self._next_seq += 1
        self._next_tick += batch.n_ticks
        self.frames_written += 1
        self.bytes_written += frame.n_bytes
        self.payload_bytes += len(payload)
        self.samples_written += frame.n_samples
        self.error_bound_w = max(self.error_bound_w, bound_w)
        return frame

    def write_all(self, batches) -> list[WireFrame]:
        """Frame a whole batch stream."""
        return [self.write(batch) for batch in batches]


class WireReader:
    """Decode a framed byte stream back into in-order sample batches.

    Feed byte chunks of any size; each :meth:`feed` returns the
    :class:`~repro.stream.ingest.SampleBatch` objects the chunk
    completed, strictly in stream order.  Out-of-order frames are held
    in a reorder window of ``reorder_window`` frames; when the window
    overflows (or at :meth:`close`), the skipped sequence numbers are
    declared missing and their rows are delivered as all-NaN gap
    batches — the PR 4 recovery layer's missing-sample convention — so
    a downstream :class:`~repro.faults.recovery.RecoveryPipeline` can
    repair and label them.

    Timestamps for gap rows are reconstructed from the stream's tick
    grid (``t0_s + tick · dt_s``), inferred from the first decoded
    frame; pass ``dt_s`` explicitly when frames may carry a single
    tick.
    """

    def __init__(
        self,
        *,
        dt_s: float | None = None,
        reorder_window: int = 8,
    ) -> None:
        if reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        self._parser = FrameParser()
        self._window = int(reorder_window)
        self._pending: dict[int, tuple[FrameHeader, bytes]] = {}
        self._next_seq = 0
        self._next_tick = 0
        self._max_seq_seen = -1
        self._dt_s = dt_s
        self._t0_s: float | None = None
        self._node_lo: int | None = None
        self._n_nodes: int | None = None
        self._closed = False
        self.frames_ok = 0
        self.frames_missing = 0
        self.frames_reordered = 0
        self.frames_duplicate = 0
        self.frames_undecodable = 0
        self.gap_ticks = 0
        self.ticks_delivered = 0
        self.error_bound_w = 0.0
        self.codec_names: tuple[str, ...] = ()

    # -- parser counters, re-exposed -----------------------------------
    @property
    def crc_failures(self) -> int:
        """Frames rejected by the CRC-32 trailer."""
        return self._parser.crc_failures

    @property
    def garbage_bytes(self) -> int:
        """Bytes that never lined up with a plausible frame."""
        return self._parser.garbage_bytes

    @property
    def bytes_read(self) -> int:
        """Total bytes fed in."""
        return self._parser.bytes_fed

    @property
    def truncated_frames(self) -> int:
        """Partial frames dangling at end of stream."""
        return self._parser.truncated_frames

    def max_batches(self, n_bytes: int) -> int:
        """Most decoded batches a :meth:`feed` of ``n_bytes`` can return.

        Each frame those bytes complete releases at most its own batch
        plus the frames waiting in the reorder window; gap batches carry
        no samples and are not counted.
        """
        n_frames = (self._parser.buffered + n_bytes) // (
            HEADER_LEN + TRAILER_LEN
        )
        return n_frames + len(self._pending)

    # ------------------------------------------------------------------
    def feed(self, data: bytes) -> list[SampleBatch]:
        """Consume a chunk; return the in-order batches it completed."""
        if self._closed:
            raise ValueError("reader is closed")
        out: list[SampleBatch] = []
        for event in self._parser.feed(data):
            if event.ok:
                out.extend(self._accept(event.header, event.payload))
        return out

    def close(self) -> list[SampleBatch]:
        """Flush the reorder window, declaring leftover gaps missing."""
        if self._closed:
            return []
        self._closed = True
        self._parser.close()
        out: list[SampleBatch] = []
        while self._pending:
            out.extend(self._release(min(self._pending)))
        return out

    # ------------------------------------------------------------------
    def _accept(
        self, header: FrameHeader, payload: bytes
    ) -> list[SampleBatch]:
        seq = header.seq
        if seq < self._next_seq or seq in self._pending:
            self.frames_duplicate += 1
            return []
        # Reordered means "arrived after a later frame", not merely
        # "blocked behind a gap".
        if seq < self._max_seq_seen:
            self.frames_reordered += 1
        self._max_seq_seen = max(self._max_seq_seen, seq)
        self._pending[seq] = (header, payload)
        out: list[SampleBatch] = []
        while self._next_seq in self._pending:
            out.extend(self._release(self._next_seq))
        # Window overflow: give up on the oldest gap and move on.
        while len(self._pending) > self._window:
            out.extend(self._release(min(self._pending)))
        return out

    def _release(self, seq: int) -> list[SampleBatch]:
        """Emit frame ``seq``, preceded by a gap batch if needed."""
        header, payload = self._pending.pop(seq)
        self.frames_missing += seq - self._next_seq
        out: list[SampleBatch] = []
        batch = self._decode(header, payload)
        if batch is None:
            # Undecodable: treat the frame's own rows as a gap too.
            self._next_seq = seq + 1
            gap = self._gap_batch(
                header, header.tick + header.n_ticks
            )
            if gap is not None:
                out.append(gap)
            self._next_tick = header.tick + header.n_ticks
            return out
        gap = self._gap_batch(header, header.tick)
        if gap is not None:
            out.append(gap)
        out.append(batch)
        self.frames_ok += 1
        self.ticks_delivered += header.n_ticks
        self._next_seq = seq + 1
        self._next_tick = header.tick + header.n_ticks
        return out

    def _decode(
        self, header: FrameHeader, payload: bytes
    ) -> SampleBatch | None:
        times_len = header.n_ticks * 8
        if len(payload) < times_len:
            self.frames_undecodable += 1
            return None
        times = np.frombuffer(payload[:times_len], dtype="<f8").copy()
        try:
            codec = codec_for_frame(header.codec_id, header.flags)
            watts, bound_w = codec.decode(
                payload[times_len:], header.n_ticks, header.n_nodes
            )
        except ValueError:
            self.frames_undecodable += 1
            return None
        if not np.all(np.isfinite(times)):
            self.frames_undecodable += 1
            return None
        if self._node_lo is None:
            self._node_lo = header.node_lo
            self._n_nodes = header.n_nodes
        if (header.node_lo, header.n_nodes) != (
            self._node_lo,
            self._n_nodes,
        ):
            self.frames_undecodable += 1
            return None
        if self._t0_s is None:
            if self._dt_s is None:
                if header.n_ticks >= 2:
                    self._dt_s = float(times[1] - times[0])
                else:
                    self._dt_s = 1.0
            self._t0_s = float(times[0]) - header.tick * self._dt_s
        self.error_bound_w = max(self.error_bound_w, bound_w)
        if codec.name not in self.codec_names:
            self.codec_names = (*self.codec_names, codec.name)
        return SampleBatch(
            times=times,
            watts=watts,
            node_ids=np.arange(
                header.node_lo,
                header.node_lo + header.n_nodes,
                dtype=np.int64,
            ),
        )

    def _gap_batch(
        self, header: FrameHeader, up_to_tick: int
    ) -> SampleBatch | None:
        """NaN batch covering ticks [_next_tick, up_to_tick), if any."""
        n_gap = up_to_tick - self._next_tick
        if n_gap <= 0:
            return None
        self.gap_ticks += n_gap
        dt_s = self._dt_s if self._dt_s is not None else 1.0
        t0_s = self._t0_s if self._t0_s is not None else 0.0
        ticks = np.arange(self._next_tick, up_to_tick, dtype=np.float64)
        n_nodes = (
            self._n_nodes if self._n_nodes is not None else header.n_nodes
        )
        node_lo = (
            self._node_lo if self._node_lo is not None else header.node_lo
        )
        return SampleBatch(
            times=t0_s + ticks * dt_s,
            watts=np.full((n_gap, n_nodes), np.nan),
            node_ids=np.arange(
                node_lo, node_lo + n_nodes, dtype=np.int64
            ),
        )

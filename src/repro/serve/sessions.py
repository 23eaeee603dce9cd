"""Per-tenant telemetry sessions and the session registry.

One :class:`TelemetrySession` wraps one
:class:`~repro.stream.session.LiveStreamState` — the same incremental
core :func:`~repro.stream.session.stream_session` drives — behind a
bounded :class:`asyncio.Queue` drained by a single worker task.  The
queue is the backpressure boundary: when it is full,
:meth:`TelemetrySession.try_submit` refuses and the route layer turns
the refusal into ``429 + Retry-After``.  Because exactly one worker
drains each session's queue in FIFO order, the estimator state is a
pure function of the accepted batch sequence — which is what makes an
HTTP-fed verdict bit-identical to a direct :func:`stream_session` run
over the same batches.

The :class:`SessionRegistry` owns the id space, per-tenant session
caps, and idle eviction on the injected clock.  Eviction never drops
queued work: a session with batches still in its queue is skipped no
matter how stale its last-touch time is (locked by a hypothesis
property in ``tests/serve/test_registry.py``).
"""

from __future__ import annotations

import asyncio
import copy
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.faults.quality import QualityReport
from repro.faults.recovery import fold_quality_report
from repro.stream.ingest import SampleBatch
from repro.stream.session import LiveStreamState, SessionResult
from repro.units import SECONDS_PER_HOUR
from repro.wire.session import WireReader

__all__ = [
    "SessionConfig",
    "batch_from_json",
    "FrameIngest",
    "TelemetrySession",
    "SessionRegistry",
]

#: Hard ceiling on ticks × nodes accepted in one JSON batch.
MAX_BATCH_CELLS = 4_000_000


def _real(name: str, value: object) -> float:
    """``value`` as a finite float; ``ValueError`` for anything else."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an int beyond float range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


def _count(name: str, value: object) -> int:
    """``value`` as an int when it is integral; ``ValueError`` otherwise."""
    if not _real(name, value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SessionConfig:
    """Everything a tenant declares when opening a session.

    Construction coerces every field (finite reals, integral counts, a
    non-empty quantile list) and checks the ranges the session's
    :class:`~repro.stream.session.LiveStreamState` enforces, so a bad
    config is refused here, before any session exists.
    """

    population: int
    core_t0_s: float
    core_t1_s: float
    interval_s: float
    quantiles: tuple[float, ...] = (0.5, 0.95)
    accuracy: float = 0.01
    confidence: float = 0.95
    report_every_s: float = 600.0
    queue_capacity: int = 8
    compliance_level: int = 2

    def __post_init__(self) -> None:
        for name in ("population", "queue_capacity", "compliance_level"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        for name in ("core_t0_s", "core_t1_s", "interval_s", "accuracy",
                     "confidence", "report_every_s"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not isinstance(self.quantiles, (list, tuple)) or not self.quantiles:
            raise ValueError("quantiles must be a non-empty list")
        object.__setattr__(self, "quantiles", tuple(
            _real("quantiles", q) for q in self.quantiles
        ))
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not self.core_t1_s > self.core_t0_s:
            raise ValueError("core window must have positive duration")
        if not self.interval_s > 0:
            raise ValueError("interval_s must be positive")
        if not all(0.0 < q < 1.0 for q in self.quantiles):
            raise ValueError(
                f"quantiles must be in (0, 1), got {list(self.quantiles)}"
            )
        if not self.accuracy > 0:
            raise ValueError(f"accuracy must be positive, got {self.accuracy}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if not self.report_every_s > 0:
            raise ValueError("report_every_s must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.compliance_level not in (0, 1, 2, 3):
            raise ValueError(
                f"unknown compliance level {self.compliance_level}"
            )

    @classmethod
    def from_json(cls, obj: object) -> "SessionConfig":
        """Build from a decoded JSON body; ``ValueError`` on bad input."""
        if not isinstance(obj, dict):
            raise ValueError("session config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        required = {"population", "core_t0_s", "core_t1_s", "interval_s"}
        missing = sorted(required - set(obj))
        if missing:
            raise ValueError(
                f"missing config key(s): {', '.join(missing)}"
            )
        return cls(**obj)

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "population": self.population,
            "core_t0_s": self.core_t0_s,
            "core_t1_s": self.core_t1_s,
            "interval_s": self.interval_s,
            "quantiles": list(self.quantiles),
            "accuracy": self.accuracy,
            "confidence": self.confidence,
            "report_every_s": self.report_every_s,
            "queue_capacity": self.queue_capacity,
            "compliance_level": self.compliance_level,
        }


def batch_from_json(obj: object) -> SampleBatch:
    """Decode a JSON ingest body into a validated :class:`SampleBatch`.

    Raises ``ValueError`` on any malformed input — wrong shapes,
    non-finite readings, oversized matrices — *before* anything touches
    session state, so a bad request can never corrupt a session.
    """
    if not isinstance(obj, dict):
        raise ValueError("batch must be a JSON object")
    missing = sorted(
        {"times", "watts", "node_ids"} - set(obj)
    )
    if missing:
        raise ValueError(f"missing batch key(s): {', '.join(missing)}")
    try:
        times = np.asarray(obj["times"], dtype=np.float64)
        watts = np.asarray(obj["watts"], dtype=np.float64)
        node_ids = np.asarray(obj["node_ids"], dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"unparseable batch arrays: {exc}") from exc
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if watts.ndim != 2:
        raise ValueError("watts must be a 2-D [ticks x nodes] matrix")
    if watts.size > MAX_BATCH_CELLS:
        raise ValueError(
            f"batch of {watts.size} cells exceeds the "
            f"{MAX_BATCH_CELLS}-cell limit"
        )
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not np.all(np.isfinite(watts)):
        raise ValueError("watts must be finite")
    if np.any(watts < 0):
        raise ValueError("watts must be non-negative")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    try:
        return SampleBatch(times=times, watts=watts, node_ids=node_ids)
    except ValueError as exc:
        raise ValueError(f"inconsistent batch shapes: {exc}") from exc


@dataclass(frozen=True)
class FrameIngest:
    """Outcome of feeding one RPWR request body into a session."""

    batches_accepted: int
    samples_accepted: int
    frames_corrupt: int
    gap_cells: int
    refused: bool

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "batches_accepted": self.batches_accepted,
            "samples_accepted": self.samples_accepted,
            "frames_corrupt": self.frames_corrupt,
            "gap_cells": self.gap_cells,
            "refused": self.refused,
        }


class TelemetrySession:
    """One tenant's live compliance session behind a bounded queue."""

    def __init__(
        self,
        session_id: str,
        tenant: str,
        config: SessionConfig,
        *,
        now_s: float,
    ) -> None:
        self.session_id = session_id
        self.tenant = tenant
        self.config = config
        self.state = LiveStreamState(
            population=config.population,
            core_window=(config.core_t0_s, config.core_t1_s),
            required_interval_s=config.interval_s,
            quantiles=config.quantiles,
            accuracy=config.accuracy,
            confidence=config.confidence,
            report_every_s=config.report_every_s,
        )
        self.queue: asyncio.Queue[SampleBatch] = asyncio.Queue(
            maxsize=config.queue_capacity
        )
        #: Test hook: clearing the gate stalls the consumer, modelling a
        #: slow estimator backend so backpressure can be exercised
        #: deterministically.
        self.gate = asyncio.Event()
        self.gate.set()
        self.created_s = float(now_s)
        self.last_active_s = float(now_s)
        self.closed = False
        self.batches_accepted = 0
        self.batches_folded = 0
        self.batches_rejected = 0
        self.bytes_ingested = 0
        self.queue_high_watermark = 0
        self.worker_errors: list[str] = []
        self._reader: WireReader | None = None
        self._gap_cells = 0
        self._frames_corrupt_seen = 0
        self._worker: asyncio.Task | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the drain worker (requires a running event loop)."""
        if self._worker is None:
            self._worker = asyncio.create_task(
                self._drain_forever(), name=f"drain-{self.session_id}"
            )

    async def _drain_forever(self) -> None:
        while True:
            batch = await self.queue.get()
            try:
                await self.gate.wait()
                self.state.push(batch)
            except Exception as exc:  # record, never lose silently
                self.worker_errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                self.batches_folded += 1
                self.queue.task_done()

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Batches sitting in the queue right now."""
        return self.queue.qsize()

    @property
    def pending_batches(self) -> int:
        """Accepted batches not yet folded into the stream state.

        Unlike :attr:`queue_depth` this also counts a batch the drain
        worker has popped but not yet pushed (e.g. while stalled on the
        gate) — the count eviction safety must be judged against.
        """
        return self.batches_accepted - self.batches_folded

    def touch(self, now_s: float) -> None:
        """Refresh the idle-eviction deadline."""
        self.last_active_s = float(now_s)

    def try_submit(self, batch: SampleBatch, *, n_bytes: int,
                   now_s: float) -> bool:
        """Offer one batch to the ingest queue; ``False`` when full."""
        if self.closed:
            raise ValueError("session is closed")
        try:
            self.queue.put_nowait(batch)
        except asyncio.QueueFull:
            self.batches_rejected += 1
            return False
        self.batches_accepted += 1
        self.bytes_ingested += n_bytes
        self.queue_high_watermark = max(
            self.queue_high_watermark, self.queue.qsize()
        )
        self.touch(now_s)
        return True

    def ingest_frames(self, body: bytes, *, now_s: float) -> FrameIngest:
        """Feed an RPWR byte chunk through the session's wire reader.

        Decoded in-order batches go through the same
        :meth:`try_submit` path as JSON batches; all-NaN gap batches
        (sequence holes the reader declares missing) are *counted* into
        the quality provenance but never pushed into the estimators.
        Refusal is all-or-nothing per body: when the queue cannot take
        every batch the body decodes to, nothing is submitted and the
        reader is left as it was, so the client's retry of the same
        body decodes afresh.  Only a body that might not fit is decoded
        on a copy of the reader; the common path feeds it directly.
        """
        if self.closed:
            raise ValueError("session is closed")
        if self._reader is None:
            self._reader = WireReader(dt_s=self.config.interval_s)
        free = self.queue.maxsize - self.queue.qsize()
        if free == 0:
            return self._refuse_body()
        reader = self._reader
        if reader.max_batches(len(body)) > free:
            reader = copy.deepcopy(reader)  # adopted only if it all fits
        data: list[SampleBatch] = []
        gap_cells = 0
        for batch in reader.feed(body):
            # Gap batches (sequence holes the reader reconstructs) are
            # all-NaN by construction; their cells go into the
            # provenance ledger, never into the estimators.  A frame
            # with a negative or infinite reading cannot be folded
            # either, and a hypothetical mixed frame is written off
            # whole, which errs conservative.
            if not batch.readings_valid():
                gap_cells += int(batch.watts.size)
            else:
                data.append(batch)
        if len(data) > free:
            return self._refuse_body()
        self._reader = reader
        self._gap_cells += gap_cells
        for batch in data:
            self.try_submit(batch, n_bytes=0, now_s=now_s)
        if data:
            self.bytes_ingested += len(body)
        corrupt_now = reader.crc_failures + reader.frames_undecodable
        corrupt_new = corrupt_now - self._frames_corrupt_seen
        self._frames_corrupt_seen = corrupt_now
        return FrameIngest(
            batches_accepted=len(data),
            samples_accepted=sum(b.n_samples for b in data),
            frames_corrupt=corrupt_new,
            gap_cells=self._gap_cells,
            refused=False,
        )

    def _refuse_body(self) -> FrameIngest:
        self.batches_rejected += 1
        return FrameIngest(
            batches_accepted=0,
            samples_accepted=0,
            frames_corrupt=0,
            gap_cells=self._gap_cells,
            refused=True,
        )

    async def drain(self) -> None:
        """Wait until every queued batch has been folded into state."""
        await self.queue.join()

    async def close(self) -> None:
        """Stop ingest, drain the queue, finalize the stream state."""
        if self.closed:
            return
        self.closed = True
        self.gate.set()
        await self.queue.join()
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                self._worker = None
        self.state.finalize()

    # ------------------------------------------------------------------
    def info(self) -> dict:
        """Liveness/bookkeeping view for ``GET /v1/sessions/{id}``."""
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "closed": self.closed,
            "created_s": self.created_s,
            "last_active_s": self.last_active_s,
            "queue_depth": self.queue_depth,
            "pending_batches": self.pending_batches,
            "queue_capacity": self.config.queue_capacity,
            "queue_high_watermark": self.queue_high_watermark,
            "batches_accepted": self.batches_accepted,
            "batches_rejected": self.batches_rejected,
            "samples_ingested": self.state.samples_ingested,
            "bytes_ingested": self.bytes_ingested,
            "worker_errors": list(self.worker_errors),
            "config": self.config.to_dict(),
        }

    def quality_report(self) -> QualityReport | None:
        """Provenance label for everything this session has served.

        ``None`` until the first sample lands (there is nothing to
        label).  Counts are matrix cells; wire provenance comes from
        the session's reader when frames were used.
        """
        state = self.state
        if state.samples_ingested == 0:
            return None
        quality = fold_quality_report(
            state.fold.node_moments,
            cells_folded=state.samples_ingested,
            cells_written_off=self._gap_cells,
            original_level=self.config.compliance_level,
        )
        reader = self._reader
        if reader is None:
            return quality
        return replace(
            quality,
            codec=", ".join(reader.codec_names),
            codec_error_bound_w=reader.error_bound_w,
            frames_dropped=reader.frames_missing,
            frames_corrupt=self._frames_corrupt_seen,
        )

    def final_summary(self) -> dict:
        """The close/eviction response body: :meth:`final_result`
        rendered, or an insufficient-data body before any sample."""
        state = self.state
        if state.samples_ingested == 0:
            return {
                "session_id": self.session_id,
                "samples_ingested": 0,
                "insufficient_data": True,
                "stopping": state.decision.to_dict(),
                "monitor": state.fold.report().to_dict(),
            }
        return self.final_result().to_dict()

    def final_result(self) -> SessionResult:
        """The state's session result, with the ``session_id`` and the
        quality label declared as provenance after the stream's own."""
        result = self.state.result(
            queue_high_watermark=self.queue_high_watermark
        )
        return replace(result, provenance={
            **result.provenance,
            "session_id": self.session_id,
            "quality": self.quality_report(),
        })


class SessionRegistry:
    """All live sessions, with ownership checks and idle eviction."""

    def __init__(
        self,
        *,
        idle_timeout_s: float = SECONDS_PER_HOUR,
        max_sessions_per_tenant: int = 64,
        max_sessions_total: int = 4096,
    ) -> None:
        if idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        if max_sessions_per_tenant < 1 or max_sessions_total < 1:
            raise ValueError("session caps must be >= 1")
        self.idle_timeout_s = float(idle_timeout_s)
        self.max_sessions_per_tenant = int(max_sessions_per_tenant)
        self.max_sessions_total = int(max_sessions_total)
        self._sessions: dict[str, TelemetrySession] = {}
        self._next_id = 0
        self.sessions_created = 0
        self.sessions_closed = 0
        self.sessions_evicted = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def tenant_count(self, tenant: str) -> int:
        """Live sessions owned by ``tenant``."""
        return sum(
            1 for s in self._sessions.values() if s.tenant == tenant
        )

    def tenant_sessions(self, tenant: str) -> list[TelemetrySession]:
        """All live sessions owned by ``tenant``, in id order."""
        return [
            s for _, s in sorted(self._sessions.items())
            if s.tenant == tenant
        ]

    def all_sessions(self) -> list[TelemetrySession]:
        """Every live session, in id order."""
        return [s for _, s in sorted(self._sessions.items())]

    def create(
        self, tenant: str, config: SessionConfig, *, now_s: float
    ) -> TelemetrySession:
        """Open (and start) a new session for ``tenant``.

        Raises ``ValueError`` when a cap is hit — the route layer maps
        that to a 429.
        """
        if len(self._sessions) >= self.max_sessions_total:
            raise ValueError(
                f"service at capacity ({self.max_sessions_total} sessions)"
            )
        if self.tenant_count(tenant) >= self.max_sessions_per_tenant:
            raise ValueError(
                f"tenant {tenant!r} at capacity "
                f"({self.max_sessions_per_tenant} sessions)"
            )
        session_id = f"s-{self._next_id:08d}"
        self._next_id += 1
        session = TelemetrySession(
            session_id, tenant, config, now_s=now_s
        )
        session.start()
        self._sessions[session_id] = session
        self.sessions_created += 1
        return session

    def get(self, tenant: str, session_id: str) -> TelemetrySession:
        """Look up a session, enforcing tenant ownership.

        Raises ``KeyError`` when absent and ``PermissionError`` when
        owned by a different tenant (the routes map these to 404/403).
        """
        session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(session_id)
        if session.tenant != tenant:
            raise PermissionError(
                f"session {session_id} belongs to another tenant"
            )
        return session

    async def close(self, tenant: str, session_id: str) -> dict:
        """Close a session, remove it, and return its final summary."""
        session = self.get(tenant, session_id)
        await session.close()
        del self._sessions[session_id]
        self.sessions_closed += 1
        return session.final_summary()

    def evictable(self, now_s: float) -> list[TelemetrySession]:
        """Sessions past the idle deadline with *no* pending work.

        ``pending_batches`` (not ``queue_depth``) is the safety test:
        a batch the worker has popped but not yet folded still counts.
        """
        deadline_s = now_s - self.idle_timeout_s
        return [
            s for _, s in sorted(self._sessions.items())
            if s.last_active_s <= deadline_s and s.pending_batches == 0
        ]

    async def evict_idle(self, now_s: float) -> list[str]:
        """Close and drop every evictable session; returns their ids.

        A session with batches still queued is never evicted, however
        stale its last-touch time — queued work always lands in the
        estimators first (the registry hypothesis property).
        """
        evicted: list[str] = []
        for session in self.evictable(now_s):
            await session.close()
            del self._sessions[session.session_id]
            self.sessions_evicted += 1
            evicted.append(session.session_id)
        return evicted

    async def close_all(self) -> None:
        """Shut every session down (service shutdown path)."""
        for session_id in sorted(self._sessions):
            session = self._sessions.pop(session_id)
            await session.close()
            self.sessions_closed += 1

    def gauges(self) -> dict:
        """Registry gauges for ``/metrics``."""
        depths = [s.queue_depth for s in self._sessions.values()]
        return {
            "sessions_live": len(self._sessions),
            "sessions_created": self.sessions_created,
            "sessions_closed": self.sessions_closed,
            "sessions_evicted": self.sessions_evicted,
            "queue_depth_total": sum(depths),
            "queue_depth_max": max(depths, default=0),
        }

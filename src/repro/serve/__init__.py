"""repro.serve — multi-tenant async telemetry service.

An asyncio HTTP/JSON front end over the streaming compliance engine:
each tenant opens sessions, POSTs sample batches (JSON or RPWR binary
frames), and reads live compliance verdicts, sampling plans (Eq. 1–5 /
Table 5) and :class:`~repro.faults.quality.QualityReport` provenance
back out.  Cross-cutting layers — per-tenant token-bucket rate limits,
byte/sample quotas, bounded per-session ingest queues with
``429 + Retry-After`` backpressure, idle eviction, ``/metrics`` — are
all pure functions of an injected clock, so the whole service runs
deterministically on a :class:`~repro.stream.ingest.SimClock`, driven
in process through :meth:`TelemetryApp.dispatch` with
:func:`~repro.serve.http.make_request`.

Layering::

    http.py      wire parsing: bytes -> Request, Response -> bytes;
                 make_request builds an in-process Request
    limits.py    token buckets + quota ledger
    sessions.py  TelemetrySession (LiveStreamState + queue), registry
    metrics.py   per-route counters and latency moments
    app.py       routing, middleware, TCP glue
"""

from repro.serve.app import ServiceConfig, TelemetryApp
from repro.serve.http import (
    ProtocolError,
    Request,
    Response,
    error_response,
    json_response,
    make_request,
)
from repro.serve.limits import (
    QuotaCharge,
    QuotaLedger,
    RateDecision,
    TenantQuota,
    TokenBucket,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.sessions import (
    FrameIngest,
    SessionConfig,
    SessionRegistry,
    TelemetrySession,
    batch_from_json,
)

__all__ = [
    "ServiceConfig",
    "TelemetryApp",
    "ProtocolError",
    "Request",
    "Response",
    "error_response",
    "json_response",
    "make_request",
    "QuotaCharge",
    "QuotaLedger",
    "RateDecision",
    "TenantQuota",
    "TokenBucket",
    "ServiceMetrics",
    "FrameIngest",
    "SessionConfig",
    "SessionRegistry",
    "TelemetrySession",
    "batch_from_json",
]

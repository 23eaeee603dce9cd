"""Structured per-request service metrics.

Everything the operator needs to see at ``/metrics``: request counts
by route and status, latency moments per route (on the service clock —
simulated seconds under a :class:`~repro.stream.ingest.SimClock`, so
the numbers are deterministic in tests), reject counts by reason, and
ingest volume.  Gauges that live elsewhere (session counts, queue
depths) are passed in at render time by the app, which owns them.

The latency estimator reuses :class:`~repro.stream.estimators.RunningMoments`
— the same shifted running sums the telemetry path trusts — rather
than growing a parallel stats implementation.
"""

from __future__ import annotations

from repro.stream.estimators import RunningMoments

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Counters and latency moments for the service."""

    def __init__(self) -> None:
        self._requests: dict[tuple[str, int], int] = {}
        self._latency: dict[str, RunningMoments] = {}
        self._rejects: dict[str, int] = {}
        self.batches_ingested = 0
        self.samples_ingested = 0
        self.bytes_ingested = 0

    # ------------------------------------------------------------------
    def observe_request(
        self, route: str, status: int, latency_s: float
    ) -> None:
        """Record one finished request."""
        key = (route, int(status))
        self._requests[key] = self._requests.get(key, 0) + 1
        moments = self._latency.get(route)
        if moments is None:
            moments = self._latency[route] = RunningMoments()
        moments.push(max(0.0, float(latency_s)))

    def observe_reject(self, reason: str) -> None:
        """Record one refused request (rate limit, quota, backpressure)."""
        self._rejects[reason] = self._rejects.get(reason, 0) + 1

    def observe_ingest(self, *, n_batches: int, n_samples: int,
                       n_bytes: int) -> None:
        """Record accepted ingest volume."""
        self.batches_ingested += n_batches
        self.samples_ingested += n_samples
        self.bytes_ingested += n_bytes

    # ------------------------------------------------------------------
    @property
    def requests_total(self) -> int:
        """All requests observed, any route or status."""
        return sum(self._requests.values())

    def requests_by_status(self) -> dict[int, int]:
        """Request counts keyed by HTTP status."""
        out: dict[int, int] = {}
        for (_, status), count in self._requests.items():
            out[status] = out.get(status, 0) + count
        return out

    def to_dict(self, **gauges: object) -> dict:
        """The ``/metrics`` document; extra gauges merge in verbatim."""
        routes: dict[str, dict] = {}
        for (route, status), count in sorted(self._requests.items()):
            entry = routes.setdefault(route, {"by_status": {}, "total": 0})
            entry["by_status"][str(status)] = count
            entry["total"] += count
        for route, moments in self._latency.items():
            entry = routes.setdefault(route, {"by_status": {}, "total": 0})
            entry["latency"] = {
                "count": moments.count,
                "mean_s": (
                    float(moments.mean) if moments.count else 0.0
                ),
                "max_s": (
                    float(moments.maximum) if moments.count else 0.0
                ),
            }
        return {
            "requests_total": self.requests_total,
            "by_status": {
                str(k): v
                for k, v in sorted(self.requests_by_status().items())
            },
            "routes": routes,
            "rejects": dict(sorted(self._rejects.items())),
            "ingest": {
                "batches": self.batches_ingested,
                "samples": self.samples_ingested,
                "bytes": self.bytes_ingested,
            },
            **gauges,
        }

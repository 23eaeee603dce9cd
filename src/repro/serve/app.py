"""The multi-tenant telemetry service: routing, limits, transport.

:class:`TelemetryApp` is a self-contained asyncio HTTP application.
Its :meth:`~TelemetryApp.dispatch` coroutine maps one
:class:`~repro.serve.http.Request` to a
:class:`~repro.serve.http.Response` through the full middleware stack
— tenant auth, per-tenant token-bucket rate limiting, byte/sample
quotas, routing, structured error mapping and metrics — without
touching a socket, which is what lets the load-test suite drive
thousands of concurrent in-process clients deterministically.
:meth:`~TelemetryApp.serve_tcp` bolts the same dispatcher onto
``asyncio.start_server`` for real deployments (the ``repro serve``
CLI subcommand).

API surface (all JSON unless noted)::

    GET    /healthz                      liveness probe
    GET    /metrics                      structured service metrics
    GET    /v1/plan                      Eq. 5 required-n for (N, cv, λ, 1-α)
    GET    /v1/plan/table                Table 5 grid over (λ, cv)
    POST   /v1/sessions                  open a session        (X-Tenant)
    GET    /v1/sessions                  list own sessions     (X-Tenant)
    GET    /v1/sessions/{id}             session bookkeeping   (X-Tenant)
    POST   /v1/sessions/{id}/batches     ingest JSON or RPWR   (X-Tenant)
    GET    /v1/sessions/{id}/verdict     live compliance/stopping verdict
    GET    /v1/sessions/{id}/quality     QualityReport provenance
    DELETE /v1/sessions/{id}             close; returns the final summary

Time comes exclusively from the injected clock (anything with a
``now_s`` property — a :class:`~repro.stream.ingest.SimClock` in tests,
a monotonic wall clock in the CLI), so every limiter decision, idle
eviction and latency metric is reproducible under test.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from repro.core.recommendations import recommended_measurement_nodes
from repro.units import SECONDS_PER_HOUR
from repro.core.sampling import recommend_sample_size
from repro.serve.http import (
    DEFAULT_MAX_BODY_BYTES,
    ProtocolError,
    Request,
    Response,
    error_response,
    json_response,
    read_request,
    render_response,
)
from repro.serve.limits import QuotaLedger, TenantQuota, TokenBucket
from repro.serve.metrics import ServiceMetrics
from repro.serve.sessions import (
    SessionConfig,
    SessionRegistry,
    batch_from_json,
)

__all__ = ["ServiceConfig", "TelemetryApp"]

#: Content type for RPWR binary frame ingest.
RPWR_CONTENT_TYPE = "application/x-rpwr"


@dataclass(frozen=True)
class ServiceConfig:
    """Operator-facing service knobs."""

    rate_capacity: float = 100.0
    rate_refill_per_request_s: float = 50.0
    quota: TenantQuota = field(default_factory=TenantQuota)
    idle_timeout_s: float = SECONDS_PER_HOUR
    max_sessions_per_tenant: int = 64
    max_sessions_total: int = 4096
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    sweep_every_s: float = 60.0

    def __post_init__(self) -> None:
        if self.rate_capacity <= 0 or self.rate_refill_per_request_s <= 0:
            raise ValueError("rate limiter parameters must be positive")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.sweep_every_s <= 0:
            raise ValueError("sweep_every_s must be positive")


class TelemetryApp:
    """Route table plus cross-cutting layers, one instance per service."""

    def __init__(self, clock, config: ServiceConfig | None = None) -> None:
        self.clock = clock
        self.config = config or ServiceConfig()
        self.registry = SessionRegistry(
            idle_timeout_s=self.config.idle_timeout_s,
            max_sessions_per_tenant=self.config.max_sessions_per_tenant,
            max_sessions_total=self.config.max_sessions_total,
        )
        self.metrics = ServiceMetrics()
        self.quotas = QuotaLedger(self.config.quota)
        self._buckets: dict[str, TokenBucket] = {}
        self._routes: list[
            tuple[str, tuple[str, ...],
                  Callable[..., Awaitable[Response]], bool]
        ] = [
            ("GET", ("healthz",), self._route_healthz, False),
            ("GET", ("metrics",), self._route_metrics, False),
            ("GET", ("v1", "plan"), self._route_plan, False),
            ("GET", ("v1", "plan", "table"), self._route_plan_table, False),
            ("POST", ("v1", "sessions"), self._route_create, True),
            ("GET", ("v1", "sessions"), self._route_list, True),
            ("GET", ("v1", "sessions", "*"), self._route_info, True),
            ("POST", ("v1", "sessions", "*", "batches"),
             self._route_ingest, True),
            ("GET", ("v1", "sessions", "*", "verdict"),
             self._route_verdict, True),
            ("GET", ("v1", "sessions", "*", "quality"),
             self._route_quality, True),
            ("DELETE", ("v1", "sessions", "*"), self._route_close, True),
        ]

    # -- middleware ----------------------------------------------------
    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.config.rate_capacity,
                self.config.rate_refill_per_request_s,
                now_s=self.clock.now_s,
            )
        return bucket

    def _match(
        self, request: Request
    ) -> tuple[Callable[..., Awaitable[Response]] | None, list[str],
               bool, str]:
        """Resolve a route; returns (handler, params, needs_tenant, name)."""
        parts = tuple(p for p in request.path.split("/") if p)
        for method, pattern, handler, needs_tenant in self._routes:
            if method != request.method or len(pattern) != len(parts):
                continue
            params = []
            for want, got in zip(pattern, parts):
                if want == "*":
                    params.append(got)
                elif want != got:
                    break
            else:
                name = f"{method} /" + "/".join(pattern)
                return handler, params, needs_tenant, name
        return None, [], False, f"{request.method} {request.path}"

    async def dispatch(self, request: Request) -> Response:
        """One request through the full middleware stack."""
        t_start_s = self.clock.now_s
        handler, params, needs_tenant, route = self._match(request)
        try:
            if handler is None:
                response = error_response(
                    404, "no-route",
                    f"no route for {request.method} {request.path}",
                )
            else:
                response = await self._guarded(
                    handler, request, params, needs_tenant
                )
        except ProtocolError as exc:
            response = error_response(exc.status, exc.code, exc.message)
        except Exception as exc:  # the service must never drop a request
            response = error_response(
                500, "internal-error", f"{type(exc).__name__}: {exc}"
            )
        self.metrics.observe_request(
            route, response.status, self.clock.now_s - t_start_s
        )
        return response

    async def _guarded(
        self,
        handler: Callable[..., Awaitable[Response]],
        request: Request,
        params: list[str],
        needs_tenant: bool,
    ) -> Response:
        """Auth + rate limit, then the route handler."""
        if not needs_tenant:
            return await handler(request, *params)
        tenant = request.tenant
        if not tenant:
            self.metrics.observe_reject("missing-tenant")
            return error_response(
                401, "missing-tenant",
                "tenanted endpoints require the X-Tenant header",
            )
        decision = self._bucket(tenant).acquire(self.clock.now_s)
        if not decision.granted:
            self.metrics.observe_reject("rate-limited")
            retry_s = max(decision.retry_after_s, 1e-3)
            return error_response(
                429, "rate-limited",
                f"tenant {tenant!r} is over its request rate",
                retry_after_s=retry_s,
                headers={"Retry-After": f"{retry_s:.3f}"},
            )
        return await handler(request, *params)

    # -- untenanted routes ---------------------------------------------
    async def _route_healthz(self, request: Request) -> Response:
        return json_response({"ok": True, "t_now_s": self.clock.now_s})

    async def _route_metrics(self, request: Request) -> Response:
        return json_response(
            self.metrics.to_dict(
                registry=self.registry.gauges(),
                quota_usage=self.quotas.to_dict(),
            )
        )

    @staticmethod
    def _float_param(request: Request, name: str, default: float | None,
                     ) -> float:
        raw = request.query.get(name)
        if raw is None:
            if default is None:
                raise ProtocolError(
                    400, "missing-param", f"query parameter {name} required"
                )
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ProtocolError(
                400, "bad-param", f"unparseable {name}={raw!r}"
            ) from exc

    async def _route_plan(self, request: Request) -> Response:
        """Eq. 5 sampling plan: required subset size for an accuracy."""
        population = int(self._float_param(request, "population", None))
        cv = self._float_param(request, "cv", None)
        accuracy = self._float_param(request, "accuracy", 0.01)
        confidence = self._float_param(request, "confidence", 0.95)
        try:
            plan = recommend_sample_size(
                population, cv, accuracy, confidence
            )
        except ValueError as exc:
            raise ProtocolError(400, "bad-plan", str(exc)) from exc
        return json_response({
            "population": population,
            "cv": cv,
            "accuracy": accuracy,
            "confidence": confidence,
            "required_n": plan.n,
            "required_n_infinite": plan.n0,
            "required_n_exact": plan.n_exact,
            "post2015_rule_n": recommended_measurement_nodes(population),
        })

    async def _route_plan_table(self, request: Request) -> Response:
        """The Table 5 grid for a requested fleet size."""
        population = int(
            self._float_param(request, "population", 10_000.0)
        )
        confidence = self._float_param(request, "confidence", 0.95)

        def _list_param(name: str, default: tuple[float, ...]) -> list[float]:
            raw = request.query.get(name)
            if raw is None:
                return list(default)
            try:
                values = [float(v) for v in raw.split(",") if v.strip()]
            except ValueError as exc:
                raise ProtocolError(
                    400, "bad-param", f"unparseable {name}={raw!r}"
                ) from exc
            if not values:
                raise ProtocolError(400, "bad-param", f"empty {name} list")
            return values

        accuracies = _list_param(
            "accuracies", (0.005, 0.01, 0.015, 0.02)
        )
        cvs = _list_param("cvs", (0.02, 0.03, 0.05))
        try:
            cells = [
                [
                    recommend_sample_size(
                        population, cv, accuracy, confidence
                    ).n
                    for cv in cvs
                ]
                for accuracy in accuracies
            ]
        except ValueError as exc:
            raise ProtocolError(400, "bad-plan", str(exc)) from exc
        return json_response({
            "population": population,
            "confidence": confidence,
            "accuracies": accuracies,
            "cvs": cvs,
            "required_n": cells,
        })

    # -- session routes ------------------------------------------------
    def _lookup(self, request: Request, session_id: str):
        try:
            return self.registry.get(request.tenant, session_id)
        except KeyError as exc:
            raise ProtocolError(
                404, "no-session", f"no session {session_id}"
            ) from exc
        except PermissionError as exc:
            raise ProtocolError(403, "not-owner", str(exc)) from exc

    async def _route_create(self, request: Request) -> Response:
        try:
            config = SessionConfig.from_json(request.json())
        except ValueError as exc:
            raise ProtocolError(400, "bad-config", str(exc)) from exc
        try:
            session = self.registry.create(
                request.tenant, config, now_s=self.clock.now_s
            )
        except ValueError as exc:
            self.metrics.observe_reject("session-cap")
            return error_response(
                429, "session-cap", str(exc),
                headers={"Retry-After": f"{self.config.sweep_every_s:.3f}"},
            )
        return json_response({"session": session.info()}, status=201)

    async def _route_list(self, request: Request) -> Response:
        sessions = self.registry.tenant_sessions(request.tenant)
        return json_response(
            {"sessions": [s.info() for s in sessions]}
        )

    async def _route_info(
        self, request: Request, session_id: str
    ) -> Response:
        return json_response({"session": self._lookup(request, session_id).info()})

    async def _route_ingest(
        self, request: Request, session_id: str
    ) -> Response:
        session = self._lookup(request, session_id)
        if session.closed:
            raise ProtocolError(
                409, "session-closed", f"session {session_id} is closed"
            )
        now_s = self.clock.now_s
        if request.content_type == RPWR_CONTENT_TYPE:
            response = self._ingest_frames(request, session, now_s)
        elif request.content_type in ("application/json", ""):
            response = self._ingest_json(request, session, now_s)
        else:
            raise ProtocolError(
                415, "bad-content-type",
                f"unsupported Content-Type {request.content_type!r}",
            )
        # One scheduling yield so the session's drain worker gets a
        # turn — over TCP the socket writes yield anyway; the
        # in-process dispatch path (tests, load harness) must behave
        # the same or queues would only ever drain at wave barriers.
        await asyncio.sleep(0)
        return response

    def _ingest_json(self, request: Request, session, now_s: float
                     ) -> Response:
        try:
            batch = batch_from_json(request.json())
        except ValueError as exc:
            raise ProtocolError(400, "bad-batch", str(exc)) from exc
        charge = self.quotas.charge(
            session.tenant,
            n_bytes=len(request.body),
            n_samples=batch.n_samples,
        )
        if not charge.granted:
            self.metrics.observe_reject(charge.reason)
            return error_response(
                429, charge.reason,
                f"tenant {session.tenant!r} exhausted its quota",
                usage=charge.to_dict(),
            )
        if not session.try_submit(
            batch, n_bytes=len(request.body), now_s=now_s
        ):
            self.metrics.observe_reject("backpressure")
            retry_s = session.config.interval_s
            return error_response(
                429, "backpressure",
                f"session {session.session_id} ingest queue is full",
                retry_after_s=retry_s,
                queue_depth=session.queue_depth,
                headers={"Retry-After": f"{retry_s:.3f}"},
            )
        self.metrics.observe_ingest(
            n_batches=1, n_samples=batch.n_samples,
            n_bytes=len(request.body),
        )
        return json_response({
            "accepted": True,
            "queue_depth": session.queue_depth,
            "batches_accepted": session.batches_accepted,
        }, status=202)

    def _ingest_frames(self, request: Request, session, now_s: float
                       ) -> Response:
        if not request.body:
            raise ProtocolError(400, "empty-body", "frame body required")
        charge = self.quotas.charge(
            session.tenant, n_bytes=len(request.body), n_samples=0
        )
        if not charge.granted:
            self.metrics.observe_reject(charge.reason)
            return error_response(
                429, charge.reason,
                f"tenant {session.tenant!r} exhausted its quota",
                usage=charge.to_dict(),
            )
        outcome = session.ingest_frames(request.body, now_s=now_s)
        if outcome.refused:
            self.metrics.observe_reject("backpressure")
            retry_s = session.config.interval_s
            return error_response(
                429, "backpressure",
                f"session {session.session_id} ingest queue is full",
                retry_after_s=retry_s,
                ingest=outcome.to_dict(),
                headers={"Retry-After": f"{retry_s:.3f}"},
            )
        if outcome.batches_accepted:
            # Bill the sample quota now that the frame count is known.
            self.quotas.charge(
                session.tenant, n_bytes=0,
                n_samples=outcome.samples_accepted,
            )
            self.metrics.observe_ingest(
                n_batches=outcome.batches_accepted,
                n_samples=outcome.samples_accepted,
                n_bytes=len(request.body),
            )
        if (
            outcome.frames_corrupt
            and not outcome.batches_accepted
        ):
            return error_response(
                400, "corrupt-frames",
                "request body contained no decodable frames",
                ingest=outcome.to_dict(),
            )
        return json_response(
            {"accepted": True, "ingest": outcome.to_dict(),
             "queue_depth": session.queue_depth},
            status=202,
        )

    async def _route_verdict(
        self, request: Request, session_id: str
    ) -> Response:
        session = self._lookup(request, session_id)
        state = session.state
        snapshot = (
            state.live_snapshot().to_dict()
            if state.samples_ingested else None
        )
        return json_response({
            "session_id": session.session_id,
            "samples_ingested": state.samples_ingested,
            "queue_depth": session.queue_depth,
            "snapshot": snapshot,
            "monitor": state.fold.monitor.report().to_dict(),
            "stopping": state.decision.to_dict(),
        })

    async def _route_quality(
        self, request: Request, session_id: str
    ) -> Response:
        session = self._lookup(request, session_id)
        quality = session.quality_report()
        return json_response({
            "session_id": session.session_id,
            "quality": quality.to_dict() if quality else None,
        })

    async def _route_close(
        self, request: Request, session_id: str
    ) -> Response:
        self._lookup(request, session_id)  # ownership check first
        summary = await self.registry.close(request.tenant, session_id)
        return json_response({"summary": summary})

    # -- maintenance -----------------------------------------------------
    async def sweep_idle(self) -> list[str]:
        """One idle-eviction pass at the current clock reading."""
        return await self.registry.evict_idle(self.clock.now_s)

    async def shutdown(self) -> None:
        """Close every live session."""
        await self.registry.close_all()

    # -- transport glue ---------------------------------------------------
    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one TCP connection: parse, dispatch, respond, repeat."""
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except ProtocolError as exc:
                    response = error_response(
                        exc.status, exc.code, exc.message
                    )
                    writer.write(
                        render_response(response, keep_alive=False)
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self.dispatch(request)
                keep_alive = (
                    request.headers.get("connection", "").lower()
                    != "close"
                )
                writer.write(
                    render_response(response, keep_alive=keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            return  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.base_events.Server:
        """Bind the dispatcher to a real TCP listener."""
        return await asyncio.start_server(
            self.handle_connection, host=host, port=port
        )

    async def sweep_forever(self) -> None:
        """Background idle-eviction loop for real deployments.

        Cadence uses ``asyncio.sleep`` (event-loop time); eviction
        decisions themselves read the injected service clock.
        """
        while True:
            await asyncio.sleep(self.config.sweep_every_s)
            await self.sweep_idle()

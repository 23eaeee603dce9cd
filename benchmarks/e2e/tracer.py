"""Outside-in span tracer for the end-to-end benchmark.

The program under test carries no tracing of its own, so this module
wraps a fixed list of public callables (:data:`LAYERS`) from outside,
records one span per call, and restores every original on
:meth:`Tracer.uninstall`.  Untraced repeats never see a wrapper.

Self time is attributed by switching: at any instant the clock runs for
exactly one span (the innermost one executing) or for nobody (harness
and event-loop time, ``uncovered_ns``).  A synchronous span's self time
is therefore its duration minus its children's durations, and the
self times of all spans plus ``uncovered_ns`` add up to the traced wall
time exactly.  An async span (``TelemetryApp.dispatch``) stops accruing
while its task is suspended, so two interleaved asyncio clients never
count each other's work; that suspended time is kept in
``suspended_ns``.

The parent of a span is the span open in the same asyncio task when it
started, kept in a :class:`contextvars.ContextVar`.  A task inherits the
context it was created in, so the spans of a serve session's drain task
hang under the request that created the session.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import time

__all__ = ["LAYERS", "LAYER_NAMES", "OP_ID", "Span", "Tracer", "layer_totals"]

#: (layer, "module:Qualified.name") for every callable the trace wraps.
LAYERS: tuple[tuple[str, str], ...] = (
    ("traces.synth", "repro.traces.synth:SimulatedRun.stream_run"),
    ("traces.synth", "repro.traces.synth:SimulatedRun.node_power_matrix"),
    ("wire", "repro.wire.session:WireReader.feed"),
    ("wire", "repro.wire.session:WireReader.close"),
    ("faults.recovery", "repro.faults.recovery:RecoveryPipeline.observe"),
    ("faults.recovery", "repro.faults.recovery:RecoveryPipeline.finalize"),
    ("faults.recovery", "repro.faults.recovery:build_quality_report"),
    ("stream.monitor", "repro.stream.monitor:ComplianceMonitor.observe"),
    ("stream.monitor", "repro.stream.monitor:ComplianceMonitor.report"),
    ("stream.estimators", "repro.stream.estimators:P2Quantile.push_batch"),
    ("stream.estimators", "repro.stream.estimators:RunningMoments.push_batch"),
    ("stream.estimators",
     "repro.stream.estimators:RunningCovariance.push_batch"),
    ("stream.estimators", "repro.stream.estimators:RunningMoments.concat"),
    ("stream.estimators", "repro.stream.estimators:RunningCovariance.concat"),
    ("stream.session", "repro.stream.session:LiveStreamState.push"),
    ("stream.session", "repro.stream.session:LiveStreamState.snapshot_at"),
    ("stream.session", "repro.stream.session:LiveStreamState.finalize"),
    ("stream.session", "repro.stream.session:LiveStreamState.result"),
    ("stream.stopping", "repro.stream.stopping:SequentialStopper.update"),
    ("stream.stopping", "repro.stream.stopping:SequentialStopper.evaluate"),
    ("shard", "repro.shard.engine:sharded_session"),
    ("shard", "repro.shard.engine:fleet_reference"),
    ("shard", "repro.shard.engine:run_shard"),
    ("shard", "repro.shard.reduce:reduce_states"),
    ("serve", "repro.serve.app:TelemetryApp.dispatch"),
    ("serve", "repro.serve.sessions:TelemetrySession.ingest_frames"),
    ("serve", "repro.serve.sessions:TelemetrySession.final_summary"),
)

#: Layer names in table order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(l for l, _ in LAYERS))

#: Operation id the harness sets around each timed operation.
OP_ID: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_op_id", default=-1
)

_PARENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_span_parent", default=-1
)


class Span:
    """One recorded call of a wrapped callable."""

    __slots__ = ("name", "layer", "span_id", "parent_id", "op_id",
                 "start_ns", "end_ns", "self_ns", "suspended_ns")

    def __init__(self, name: str, layer: str, span_id: int) -> None:
        self.name = name
        self.layer = layer
        self.span_id = span_id
        self.parent_id = _PARENT.get()
        self.op_id = OP_ID.get()
        self.start_ns = 0
        self.end_ns = 0
        self.self_ns = 0
        self.suspended_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_row(self) -> list:
        """Compact JSON row (see ``Tracer.ROW_FIELDS``)."""
        return [self.name, self.layer, self.start_ns, self.end_ns,
                self.self_ns, self.span_id, self.parent_id, self.op_id]


class Tracer:
    """Span recorder with exclusive (switch-based) self-time accounting.

    ``clock`` returns integer nanoseconds; tests inject a counter.
    """

    ROW_FIELDS = ("name", "layer", "start_ns", "end_ns", "self_ns",
                  "span_id", "parent_id", "op_id")

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self._next_id = 0
        self._running: Span | None = None
        self._mark = clock()
        self._window_start = self._mark
        self.uncovered_ns = 0

    # -- accounting ----------------------------------------------------
    def _switch(self, to: Span | None) -> int:
        """Charge the time since the last switch, then run ``to``."""
        now = self._clock()
        if self._running is None:
            self.uncovered_ns += now - self._mark
        else:
            self._running.self_ns += now - self._mark
        self._running = to
        self._mark = now
        return now

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self._next_id)
        self._next_id += 1
        self.spans.append(span)
        return span

    def reset(self) -> None:
        """Drop recorded spans and start a new accounting window."""
        self.spans = []
        self._running = None
        self._mark = self._window_start = self._clock()
        self.uncovered_ns = 0

    def window_ns(self) -> int:
        """Close the accounting window; returns its length."""
        return self._switch(None) - self._window_start

    def call(self, name: str, layer: str, fn, args, kwargs):
        """Run ``fn`` inside a synchronous span."""
        span = self._open(name, layer)
        prev = self._running
        span.start_ns = self._switch(span)
        token = _PARENT.set(span.span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            _PARENT.reset(token)
            span.end_ns = self._switch(prev)

    def iterate(self, name: str, layer: str, iterator):
        """Yield from ``iterator`` with one span around each ``next``."""
        try:
            while True:
                try:
                    item = self.call(name, layer, next, (iterator,), {})
                except StopIteration:
                    return
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def _drive(self, name: str, layer: str, coro):
        """Generator behind :class:`_TracedAwaitable`: step ``coro``."""
        span = self._open(name, layer)
        token = _PARENT.set(span.span_id)
        value, error = None, None
        suspended_at = None
        try:
            while True:
                prev = self._running
                now = self._switch(span)
                if suspended_at is None:
                    span.start_ns = now
                else:
                    span.suspended_ns += now - suspended_at
                try:
                    if error is not None:
                        step = coro.throw(error)
                    else:
                        step = coro.send(value)
                except StopIteration as stop:
                    span.end_ns = self._switch(prev)
                    return stop.value
                except BaseException:
                    span.end_ns = self._switch(prev)
                    raise
                suspended_at = self._switch(prev)
                try:
                    value, error = (yield step), None
                except BaseException as exc:  # forwarded into coro
                    value, error = None, exc
        finally:
            _PARENT.reset(token)

    # -- installation --------------------------------------------------
    def install(self, layers=LAYERS) -> None:
        """Wrap every listed callable; :meth:`uninstall` undoes it.

        A listed callable that no longer exists raises, with every
        wrapper installed before it removed again.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install(layers)
        except BaseException:
            self.uninstall()
            raise

    def _install(self, layers) -> None:
        for layer, target in layers:
            module_name, qualname = target.split(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap_raw(qualname, layer, raw))
            else:
                fn = getattr(owner, attr)
                wrapped = self._wrap(qualname, layer, fn)
                # Also patch every module that imported the name directly.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "repro":
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        """Restore every original callable."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_raw(self, name: str, layer: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, layer, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(name, layer, raw.__func__))
        return self._wrap(name, layer, raw)

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            def traced_async(*args, **kwargs):
                return _TracedAwaitable(
                    tracer._drive(name, layer, fn(*args, **kwargs))
                )
            return traced_async
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return tracer.iterate(name, layer, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, layer, fn, args, kwargs)
        return traced


class _TracedAwaitable:
    """Awaitable that steps a coroutine through :meth:`Tracer._drive`."""

    __slots__ = ("_gen",)

    def __init__(self, gen) -> None:
        self._gen = gen

    def __await__(self):
        return (yield from self._gen)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Per-layer ``{"calls": n, "self_ns": t}`` over a span list."""
    out = {name: {"calls": 0, "self_ns": 0} for name in LAYER_NAMES}
    for span in spans:
        row = out.setdefault(span.layer, {"calls": 0, "self_ns": 0})
        row["calls"] += 1
        row["self_ns"] += span.self_ns
    return out

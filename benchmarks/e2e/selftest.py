"""Self-test of the end-to-end benchmark; exits non-zero on any failure.

Usage (from the repository root)::

    python3 benchmarks/e2e/selftest.py

* The tracer, on a fake counter clock: a synchronous call tree and two
  interleaved asyncio tasks, where every span's self time must equal its
  duration minus its children's (minus, for an async span, the time its
  task was suspended), spans must nest under their own task's span, and
  self times plus uncovered time must add up to the window exactly.
* Installing the tracer wraps classes and every module that imported a
  listed function; uninstalling restores each original; a listed
  callable that is gone raises and leaves nothing wrapped.
* Each workload, built tiny, measured untraced and traced: every metric
  named in ``BENCHMARK.json`` is produced with its unit, every
  correctness check passes and no operation fails.
"""

from __future__ import annotations

import asyncio
import json
import sys

import run

run.import_program()

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

TINY = {
    "fleet-fold": {"n_nodes": 16, "core_s": 40.0},
    "wire-recover": {"n_nodes": 16, "core_s": 300.0},
    "wide-stop": {"n_nodes": 64, "core_s": 10.0},
    "serve-mixed": {"n_nodes": 8, "writes": 12},
}

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILURES.append(what)


class CounterClock:
    """Fake nanosecond clock: each read advances it by one tick."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now

    def work(self, ticks: int) -> None:
        self.now += ticks


def _children_ns(tracer: Tracer, span) -> int:
    return sum(s.duration_ns for s in tracer.spans
               if s.parent_id == span.span_id)


def test_sync_tree() -> None:
    clock = CounterClock()
    tracer = Tracer(clock)
    leaf = tracer._wrap("leaf", "inner", lambda: clock.work(5))

    def middle() -> None:
        clock.work(3)
        leaf()
        clock.work(2)

    mid = tracer._wrap("middle", "outer", middle)

    def top() -> None:
        leaf()
        mid()
        clock.work(11)

    tracer.reset()
    tracer._wrap("top", "outer", top)()
    window = tracer.window_ns()
    expect(len(tracer.spans) == 4, "sync tree records four spans")
    expect(all(s.self_ns == s.duration_ns - _children_ns(tracer, s)
               for s in tracer.spans),
           "sync self time = duration - children")
    expect(sum(s.self_ns for s in tracer.spans) + tracer.uncovered_ns
           == window, "sync self times + uncovered = window")


def test_interleaved_tasks() -> None:
    clock = CounterClock()
    tracer = Tracer(clock)
    child = tracer._wrap("child", "inner", lambda: clock.work(4))

    async def job(ticks: int) -> None:
        child()
        clock.work(ticks)
        await asyncio.sleep(0)  # the other task runs here
        child()
        clock.work(ticks)

    traced_job = tracer._wrap("job", "outer", job)

    async def main() -> None:
        await asyncio.gather(traced_job(7), traced_job(13))

    tracer.reset()
    asyncio.run(main())
    window = tracer.window_ns()
    jobs = [s for s in tracer.spans if s.name == "job"]
    children = [s for s in tracer.spans if s.name == "child"]
    expect(len(jobs) == 2 and len(children) == 4,
           "two jobs with two children each")
    a, b = sorted(jobs, key=lambda s: s.start_ns)
    expect(a.start_ns < b.start_ns < a.end_ns, "the two jobs interleave")
    expect(all(sum(c.parent_id == j.span_id for c in children) == 2
               for j in jobs), "children nest under their own task's job")
    expect(all(j.suspended_ns > 0 for j in jobs), "both jobs were suspended")
    expect(all(j.self_ns == j.duration_ns - _children_ns(tracer, j)
               - j.suspended_ns for j in jobs),
           "async self time = duration - children - suspended")
    expect(sorted(j.self_ns for j in jobs)[1]
           - sorted(j.self_ns for j in jobs)[0] >= 2 * (13 - 7),
           "a job's self time excludes the other job's work")
    expect(sum(s.self_ns for s in tracer.spans) + tracer.uncovered_ns
           == window, "async self times + uncovered = window")


def test_install_restores() -> None:
    from repro import shard
    from repro.serve.app import TelemetryApp
    from repro.shard import engine
    from repro.stream.estimators import RunningMoments
    from repro.stream.session import LiveStreamState

    before = (LiveStreamState.__dict__["push"],
              RunningMoments.__dict__["concat"],
              TelemetryApp.__dict__["dispatch"], engine.run_shard)
    tracer = Tracer()
    tracer.install()
    try:
        expect(LiveStreamState.__dict__["push"] is not before[0],
               "install wraps a method")
        expect(isinstance(RunningMoments.__dict__["concat"], classmethod)
               and RunningMoments.__dict__["concat"] is not before[1],
               "install wraps a classmethod as a classmethod")
        expect(engine.run_shard is not before[3]
               and shard.run_shard is engine.run_shard,
               "install wraps a function in every module importing it")
    finally:
        tracer.uninstall()
    after = (LiveStreamState.__dict__["push"],
             RunningMoments.__dict__["concat"],
             TelemetryApp.__dict__["dispatch"], engine.run_shard)
    expect(all(x is y for x, y in zip(before, after))
           and shard.run_shard is before[3],
           "uninstall restores every original")

    missing = ("stream.session", "repro.stream.session:LiveStreamState.gone")
    try:
        Tracer().install(LAYERS + (missing,))
        raised = False
    except (AttributeError, KeyError):
        raised = True
    expect(raised and LiveStreamState.__dict__["push"] is before[0]
           and engine.run_shard is before[3],
           "a missing callable raises and leaves nothing wrapped")


def test_workloads() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name, sizes in TINY.items():
        wl = workloads.WORKLOADS[name](7, **sizes)
        for trace in (False, True):
            out = run.collect(wl, 0.0, trace)
            out["samples"]["setup_s"] = [0.0]
            specs = bench["per_layer" if trace else "end_to_end"]
            try:
                metrics = run.assemble(out["samples"], specs)
            except KeyError as exc:
                expect(False, f"{name} trace={trace:d}: {exc}")
                continue
            expect(all(metrics[s["name"]]["unit"] == s["unit"]
                       for s in specs),
                   f"{name} trace={trace:d}: every metric with its unit")
            failed = [k for k, ok in out["checks"].items() if not ok]
            expect(not failed, f"{name} trace={trace:d}: checks pass "
                   f"{failed or ''}")
            expect(out["failed"] == 0 and out["attempted"] > 0,
                   f"{name} trace={trace:d}: no operation failed")


def main() -> int:
    test_sync_tree()
    test_interleaved_tasks()
    test_install_restores()
    test_workloads()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

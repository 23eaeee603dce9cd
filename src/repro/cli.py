"""Command-line interface.

The subcommands mirror the workflows the paper prescribes for sites::

    python -m repro.cli plan --nodes 9216 --cv 0.025 --accuracy 0.01
    python -m repro.cli assess --nodes 9216 --watts 207.1,210.4,...
    python -m repro.cli systems
    python -m repro.cli stream --system l-csc --accuracy 0.02
    python -m repro.cli serve --port 8350
    python -m repro.cli run --jobs 4
    python -m repro.cli experiments T5 F3 --markdown out.md
    python -m repro.cli lint src/repro --format json

``plan`` sizes a measurement subset (Eq. 5, or the two-step pilot
procedure when per-node pilot watts are given); ``assess`` produces the
accuracy statement the paper wants attached to every submission;
``systems`` prints the calibrated registry; ``stream`` replays a
registry system through the :mod:`repro.stream` online pipeline (live
statistics, rule compliance and the sequential stopping verdict);
``run`` executes the experiment sweep on a process pool with the
content-addressed result cache on by default (``--no-cache`` disables,
``--refresh`` re-runs; results are byte-identical to a serial run);
``serve`` boots the :mod:`repro.serve` multi-tenant telemetry service
on a monotonic wall clock (``--self-test`` runs one TCP session
lifecycle and requires the verdict to match a direct replay);
``experiments`` is the classic serial shortcut to
:mod:`repro.experiments.runner`; ``lint`` runs the :mod:`repro.checks`
reproducibility/units/RNG static analysis and exits non-zero on
findings (the pre-merge gate, see ``scripts/check.sh``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.report import Table
from repro.cluster.registry import (
    NODE_VARIABILITY_SYSTEMS,
    PAPER_TABLE4,
    TRACE_SYSTEMS,
    get_system,
    get_trace_setup,
    workload_utilisation,
)
from repro.core.accuracy import assess_accuracy
from repro.core.recommendations import recommended_measurement_nodes
from repro.core.sampling import recommend_sample_size, two_step_pilot_plan
from repro.units import SECONDS_PER_HOUR

__all__ = ["build_parser", "main"]


def _parse_watts(text: str) -> np.ndarray:
    try:
        values = np.array([float(x) for x in text.split(",") if x.strip()])
    except ValueError as exc:
        raise SystemExit(
            f"error: could not parse watts list: {exc}"
        ) from exc
    if values.size == 0:
        raise SystemExit("error: empty watts list")
    if not np.all(np.isfinite(values)):
        raise SystemExit(
            "error: watts values must be finite (got nan or inf)"
        )
    if np.any(values < 0):
        raise SystemExit("error: watts values must be non-negative")
    return values


def _registry_system(name: str):
    """Resolve ``--system``: ``(system, trace workload or None)``.

    Trace systems come with their recorded workload; node-variability
    systems have none.  An unknown name exits listing the known ones.
    """
    if name in TRACE_SYSTEMS:
        return get_trace_setup(name)
    if name in NODE_VARIABILITY_SYSTEMS:
        return get_system(name), None
    known = ", ".join((*TRACE_SYSTEMS, *NODE_VARIABILITY_SYSTEMS))
    raise SystemExit(f"error: unknown system {name!r} (known: {known})")


def _node_indices(max_nodes: int | None, n_nodes: int) -> np.ndarray | None:
    """The leading-node subset ``--max-nodes`` selects (``None``: all)."""
    if max_nodes is None:
        return None
    if max_nodes < 1:
        raise SystemExit("error: --max-nodes must be >= 1")
    return np.arange(min(max_nodes, n_nodes))


def _cmd_plan(args: argparse.Namespace) -> int:
    if args.pilot is not None:
        pilot = _parse_watts(args.pilot)
        plan = two_step_pilot_plan(
            args.nodes, pilot, accuracy=args.accuracy,
            confidence=args.confidence,
        )
        print(f"pilot of {pilot.size} nodes: mean {pilot.mean():.1f} W, "
              f"sigma/mu {plan.cv:.2%}")
    else:
        plan = recommend_sample_size(
            args.nodes, args.cv, args.accuracy, args.confidence
        )
    print(f"Eq. 5 plan: {plan}")
    new_rule = recommended_measurement_nodes(args.nodes)
    print(f"post-2015 submission rule: measure at least {new_rule} nodes "
          f"(max of 16 or 10% of {args.nodes})")
    if plan.n > new_rule:
        print("note: your accuracy target needs more nodes than the "
              "submission rule minimum.")
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    watts = _parse_watts(args.watts)
    if watts.size < 2:
        raise SystemExit("error: need at least two node measurements")
    assessment = assess_accuracy(
        watts, args.nodes,
        confidence=args.confidence,
        target_lambda=args.target,
    )
    print(assessment.summary())
    return 0 if assessment.meets_target in (True, None) else 1


def _cmd_budget(args: argparse.Namespace) -> int:
    from repro.core.planning import (
        InstrumentationConstraints,
        plan_measurement,
    )
    from repro.metering.meter import MeterSpec

    constraints = InstrumentationConstraints(
        n_meters=args.meters,
        channels_per_meter=args.channels,
        meter_spec=MeterSpec(gain_error_cv=args.meter_gain_cv),
        full_core_window=not args.partial_window,
        machine_class=args.machine_class,
        conversion_modeling_error=args.conversion_error,
    )
    plan = plan_measurement(
        args.nodes, args.cv, args.accuracy, constraints
    )
    print(plan.summary())
    return 0 if plan.feasible else 1


def _cmd_systems(_: argparse.Namespace) -> int:
    table = Table(
        ["system", "kind", "N", "mean node W (paper)", "sigma/mu (paper)"],
        title="calibrated paper systems",
    )
    for name in NODE_VARIABILITY_SYSTEMS:
        row = PAPER_TABLE4[name]
        system = get_system(name)
        sample = system.node_sample(workload_utilisation(name))
        table.add_row(
            [name, "node-variability", system.n_nodes,
             f"{sample.mean():.1f} ({row.mean_w:.1f})",
             f"{sample.coefficient_of_variation():.2%} ({row.cv:.2%})"]
        )
    for name in TRACE_SYSTEMS:
        table.add_row([name, "trace (Table 2)", "-", "-", "-"])
    print(table.render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.recommendations import NEW_RULES
    from repro.lists.jsonio import submission_from_json
    from repro.lists.validation import validate_submission

    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.path}: {exc}")
    try:
        submission = submission_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: invalid submission: {exc}")
    report = validate_submission(
        submission,
        new_rules=None if args.old_rules_only else NEW_RULES,
    )
    print(report.summary())
    for v in report.violations:
        print(f"  violation: {v}")
    for f in report.new_rule_failures:
        print(f"  new-rule failure: {f}")
    for n in report.notes:
        print(f"  note: {n}")
    ok = report.complies_with_level and report.complies_with_new_rules
    return 0 if ok else 1


def _known_lint_rule_ids() -> frozenset[str]:
    """Every rule id ``--select``/``--ignore`` may legally name."""
    from repro.checks import PARSE_ERROR_ID, rule_index
    from repro.checks.semantic import semantic_rule_index

    return frozenset({PARSE_ERROR_ID, *rule_index(), *semantic_rule_index()})


def _lint_rule_catalogue(config, semantic: bool) -> list[tuple[str, str]]:
    """``(rule_id, title)`` for every rule active in this run."""
    from repro.checks import rule_index
    from repro.checks.semantic import SEMANTIC_RULES

    catalogue = [
        (rule_id, rule.title)
        for rule_id, rule in rule_index().items()
        if config.rule_enabled(rule_id)
    ]
    if semantic:
        catalogue += [
            (rule.rule_id, rule.title)
            for rule in SEMANTIC_RULES
            if config.rule_enabled(rule.rule_id)
        ]
    return catalogue


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.checks import LintCache, LintConfig, LintReport, load_config, run_lint

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    config = load_config(paths[0])
    overrides = {}
    known_ids = _known_lint_rule_ids()
    for option in ("select", "ignore"):
        raw = getattr(args, option)
        if raw is None:
            continue
        ids = tuple(s.strip() for s in raw.split(",") if s.strip())
        unknown = sorted(set(ids) - known_ids)
        if unknown:
            raise SystemExit(
                f"error: unknown rule id(s) for --{option}: "
                f"{', '.join(unknown)} (known: {', '.join(sorted(known_ids))})"
            )
        overrides[option] = ids
    if overrides:
        config = LintConfig(
            **{
                **{f: getattr(config, f) for f in config.__dataclass_fields__},
                **overrides,
            }
        )
    if args.write_baseline and not args.semantic:
        raise SystemExit("error: --write-baseline requires --semantic")
    cache = None
    if not args.no_cache:
        cache = LintCache(Path(args.cache_file))
    report = run_lint(paths, config=config, jobs=args.jobs, cache=cache)
    findings = list(report.findings)
    summary_hits = 0
    if args.semantic:
        from repro.checks.semantic import run_semantic_lint

        sem = run_semantic_lint(paths, config=config, cache=cache, jobs=args.jobs)
        findings = sorted(findings + sem.findings)
        summary_hits = sem.summary_cache_hits
    accepted = None
    if args.semantic and args.write_baseline:
        from repro.checks.semantic import Baseline

        Baseline.from_findings(
            findings, "accepted when the baseline was (re)generated"
        ).save(args.baseline)
        print(f"wrote {len(findings)} accepted finding(s) to {args.baseline}")
        return 0
    if args.semantic and not args.no_baseline:
        from repro.checks.semantic import Baseline

        try:
            baseline = Baseline.load(args.baseline)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        match = baseline.apply(findings)
        findings, accepted = match.new, match.accepted
        for entry in match.stale:
            print(
                "warning: stale baseline entry: "
                f"{entry.get('rule')} {entry.get('path')}: "
                f"{entry.get('message')}",
                file=sys.stderr,
            )
    if args.sarif:
        from repro.checks.semantic import render_sarif

        catalogue = _lint_rule_catalogue(config, args.semantic)
        Path(args.sarif).write_text(
            render_sarif(findings, catalogue, accepted) + "\n", encoding="utf-8"
        )
    out = LintReport(
        findings=findings,
        files_scanned=report.files_scanned,
        cache_hits=report.cache_hits,
    )
    if args.format == "json":
        print(out.render_json())
    else:
        print(out.render_text())
        if accepted:
            print(f"{len(accepted)} baseline-accepted finding(s) not shown")
        if summary_hits:
            print(f"(semantic summaries: {summary_hits} cached)")
    return 0 if not findings else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    import json

    from repro.stream.session import stream_session
    from repro.traces.synth import simulate_run
    from repro.workloads.base import ConstantWorkload

    system, workload = _registry_system(args.system)
    if workload is None:
        workload = ConstantWorkload(
            utilisation=workload_utilisation(args.system),
            core_s=args.core_seconds,
        )

    quantiles = tuple(
        float(q) for q in args.quantiles.split(",") if q.strip()
    )
    if not quantiles or not all(0.0 < q < 1.0 for q in quantiles):
        raise SystemExit("error: quantiles must be in (0, 1)")

    node_indices = _node_indices(args.max_nodes, system.n_nodes)

    run = simulate_run(system, workload, dt=args.dt, seed=args.seed)
    result = stream_session(
        run,
        node_indices=node_indices,
        ticks_per_batch=args.ticks_per_batch,
        quantiles=quantiles,
        accuracy=args.accuracy,
        confidence=args.confidence,
        report_every_s=args.report_every,
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, default=float))
    else:
        print(result.render_text())
    ok = (
        result.monitor_report.interval_ok
        and result.stopping.should_stop
    )
    return 0 if ok else 1


def _cmd_shard(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.shard import sharded_session
    from repro.traces.synth import simulate_run
    from repro.workloads.base import ConstantWorkload

    system, workload = _registry_system(args.system)
    if workload is None:
        workload = ConstantWorkload(
            utilisation=workload_utilisation(args.system),
            core_s=args.core_seconds,
        )

    if args.shards < 1:
        raise SystemExit("error: --shards must be >= 1")
    processes = args.processes
    if processes is None:
        processes = min(args.shards, os.cpu_count() or 1)
    if processes < 0:
        raise SystemExit("error: --processes must be >= 0")

    run = simulate_run(system, workload, dt=args.dt, seed=args.seed)
    result = sharded_session(
        run,
        n_shards=min(args.shards, system.n_nodes),
        ticks_per_batch=args.ticks_per_batch,
        accuracy=args.accuracy,
        confidence=args.confidence,
        processes=processes,
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, default=float))
    else:
        print(result.render_text())
    ok = (
        result.monitor_report.interval_ok
        and result.stopping.should_stop
    )
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults.chaos import ChaosScenario, run_chaos
    from repro.traces.synth import simulate_run
    from repro.workloads.base import ConstantWorkload

    # The trace workload is ignored: chaos degrades a constant-load (or,
    # with --pathology, an HPL tail-off) run of the system.
    system, _ = _registry_system(args.system)
    node_indices = _node_indices(args.max_nodes, system.n_nodes)

    if args.pathology:
        from repro.faults.pathology import run_pathology, standard_scenarios
        from repro.workloads.hpl import HplWorkload

        kinds = tuple(
            k.strip() for k in args.pathology.split(",") if k.strip()
        )
        if kinds == ("all",):
            kinds = ("aliasing", "entropy", "spread")
        try:
            scenarios = standard_scenarios(
                kinds, intensity=args.intensity
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
        # A trending (tail-off) trace, so the duty-cycled meter's hold
        # bias is real signal rather than zero-mean noise.
        workload = HplWorkload.gpu_in_core(core_s=args.core_seconds)
        run = simulate_run(system, workload, dt=args.dt, seed=args.seed)
        outcomes = [
            run_pathology(
                run,
                scenario,
                gap_policy=args.policy,
                seed=args.seed,
                node_indices=node_indices,
            )
            for scenario in scenarios
        ]
        if args.format == "json":
            print(json.dumps(
                [o.to_dict() for o in outcomes], indent=2, default=float
            ))
        else:
            for outcome in outcomes:
                print("\n".join(outcome.lines()))
                print()
        return 0 if all(o.ok() for o in outcomes) else 1

    workload = ConstantWorkload(
        utilisation=0.95, core_s=args.core_seconds
    )

    try:
        rates = [
            float(r) for r in args.dropout.split(",") if r.strip()
        ]
    except ValueError as exc:
        raise SystemExit(f"error: bad --dropout list: {exc}") from exc
    if not rates or not all(0.0 <= r < 1.0 for r in rates):
        raise SystemExit("error: dropout rates must be in [0, 1)")

    run = simulate_run(system, workload, dt=args.dt, seed=args.seed)
    outcomes = []
    for rate in rates:
        scenario = ChaosScenario(
            name=f"dropout-{rate:g}",
            dropout_rate=rate,
            node_loss=args.node_loss,
            stuck_rate=args.stuck,
            spike_rate=args.spike,
            truncate_frac=args.truncate,
            delivery_failure_rate=args.delivery_failure_rate,
        )
        outcomes.append(
            run_chaos(
                run,
                scenario,
                gap_policy=args.policy,
                seed=args.seed,
                node_indices=node_indices,
            )
        )
    if args.format == "json":
        print(json.dumps(
            [o.to_dict() for o in outcomes], indent=2, default=float
        ))
    else:
        for outcome in outcomes:
            print("\n".join(outcome.lines()))
            print()
    return 0 if all(o.ok() for o in outcomes) else 1


def _cmd_wire(args: argparse.Namespace) -> int:
    import json

    from repro.traces.synth import simulate_run
    from repro.wire.codecs import available_codecs
    from repro.wire.frontier import wire_frontier
    from repro.workloads.base import ConstantWorkload

    if args.fuzz is not None:
        return _wire_fuzz(args.fuzz, seed=args.seed)

    # The trace workload is ignored: the frontier streams a
    # constant-load run of the system.
    system, _ = _registry_system(args.system)

    codecs = tuple(c.strip() for c in args.codecs.split(",") if c.strip())
    unknown = [c for c in codecs if c not in available_codecs()]
    if unknown:
        raise SystemExit(
            f"error: unknown codec(s) {', '.join(unknown)} "
            f"(known: {', '.join(available_codecs())})"
        )
    for rate_list in (args.drop, args.corrupt):
        if not all(0.0 <= r < 1.0 for r in rate_list):
            raise SystemExit("error: rates must be in [0, 1)")
    rates = tuple(
        (drop, corrupt) for drop in args.drop for corrupt in args.corrupt
    )

    node_indices = _node_indices(args.max_nodes, system.n_nodes)

    workload = ConstantWorkload(utilisation=0.95, core_s=args.core_seconds)
    run = simulate_run(system, workload, dt=args.dt, seed=args.seed)
    cells = wire_frontier(
        run,
        codecs=codecs,
        rates=rates,
        seed=args.seed,
        node_indices=node_indices,
        ticks_per_batch=args.ticks_per_frame,
    )
    if args.format == "json":
        print(json.dumps([c.to_dict() for c in cells], indent=2,
                         default=float))
    else:
        header = (
            f"{'codec':>20s} {'drop':>5s} {'corr':>5s} {'lost':>7s} "
            f"{'B/node/s':>9s} {'ratio':>6s} {'mean err':>9s} "
            f"{'cv err':>9s} {'flip':>5s} {'ok':>3s}"
        )
        print(header)
        for c in cells:
            ok = c.reconciled and c.within_bounds
            print(
                f"{c.codec:>20s} {c.drop_rate:>5.0%} {c.corrupt_rate:>5.0%} "
                f"{c.frames_lost:>3d}/{c.frames_sent:<3d} "
                f"{c.node_bps:>9.2f} x{c.compression_ratio:<5.2f} "
                f"{c.rel_err_fleet_mean:>9.2e} {c.rel_err_node_cv:>9.2e} "
                f"{'yes' if c.verdict_flipped else 'no':>5s} "
                f"{'yes' if ok else 'NO':>3s}"
            )
    return 0 if all(c.reconciled and c.within_bounds for c in cells) else 1


def _wire_fuzz(iterations: int, *, seed: int) -> int:
    """Bounded-iteration frame-parser fuzz (the CI smoke stage).

    Builds a valid frame stream, then mutates, truncates and splices it
    with seeded randomness; the parser must never raise and never
    accept a frame whose CRC does not check out.
    """
    from repro.rng import stream as _stream
    from repro.wire.framing import FrameParser, encode_frame

    if iterations < 1:
        raise SystemExit("error: --fuzz iterations must be >= 1")
    rng = _stream(seed, "wire:fuzz")
    base = b"".join(
        encode_frame(
            codec_id=1,
            flags=0,
            seq=i,
            node_lo=0,
            n_nodes=4,
            n_ticks=2,
            tick=2 * i,
            payload=rng.bytes(80),
        )
        for i in range(4)
    )
    for i in range(iterations):
        blob = bytearray(base)
        for _ in range(int(rng.integers(1, 12))):
            blob[int(rng.integers(len(blob)))] = int(rng.integers(256))
        lo = int(rng.integers(len(blob)))
        hi = int(rng.integers(lo, len(blob) + 1))
        mangled = bytes(blob[lo:hi]) + rng.bytes(int(rng.integers(40)))
        parser = FrameParser()
        step = int(rng.integers(1, 97))
        for off in range(0, len(mangled), step):
            parser.feed(mangled[off: off + step])
        parser.close()
    print(f"wire fuzz: {iterations} mutated streams parsed, no crash")
    return 0


class _WallClock:
    """Monotonic wall clock behind the injected-clock interface.

    The service reads ``now_s`` for every limiter decision and idle
    sweep; tests inject a :class:`~repro.stream.ingest.SimClock`, real
    deployments get this (monotonic, so NTP steps can't starve or
    flood the token buckets).
    """

    def __init__(self) -> None:
        import time

        self._monotonic = time.monotonic
        self._t0_s = self._monotonic()

    @property
    def now_s(self) -> float:
        return self._monotonic() - self._t0_s


async def _http_exchange(reader, writer, payload: bytes) -> tuple[int, dict]:
    """One request/response over an open connection; JSON body."""
    import json

    writer.write(payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    n_body = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            n_body = int(value)
    body = await reader.readexactly(n_body)
    return status, json.loads(body)


def _http_request(method: str, target: str, *, tenant: str = "",
                  body: bytes = b"", close: bool = False) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: localhost"]
    if tenant:
        lines.append(f"X-Tenant: {tenant}")
    if body:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _serve_self_test(seed: int) -> int:
    """Full TCP lifecycle against the service; verdict must match a
    direct :func:`~repro.stream.session.stream_session` replay."""
    import asyncio
    import json

    from repro.cluster.components import CpuModel, DramModel, FanModel
    from repro.cluster.node import NodeConfig
    from repro.cluster.system import SystemModel
    from repro.cluster.thermal import FanController
    from repro.cluster.variability import ManufacturingVariation
    from repro.serve import ServiceConfig, TelemetryApp
    from repro.stream.ingest import SimClock, replay_run
    from repro.stream.session import stream_session
    from repro.traces.synth import simulate_run
    from repro.workloads.hpl import HplWorkload

    accuracy, report_every_s, ticks_per_batch = 0.05, 60.0, 15
    node = NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        dram=DramModel.for_capacity(32.0),
        fan=FanModel(max_watts=40.0),
        other_watts=20.0,
    )
    system = SystemModel(
        "serve-selftest", 8, node,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(
            fan_model=node.fan, reference_watts=300.0
        ),
        seed=21,
    )
    workload = HplWorkload.cpu_out_of_core(
        240.0, setup_s=20.0, teardown_s=20.0
    )
    run = simulate_run(system, workload, dt=2.0, seed=seed)
    batches = list(replay_run(run, ticks_per_batch=ticks_per_batch))
    direct = stream_session(
        run, ticks_per_batch=ticks_per_batch, accuracy=accuracy,
        report_every_s=report_every_s,
    )
    want = json.loads(json.dumps(direct.to_dict(), default=float))
    t0_s, t1_s = run.core_window
    config = {
        "population": run.system.n_nodes,
        "core_t0_s": t0_s,
        "core_t1_s": t1_s,
        "interval_s": max(run.dt, 1.0),
        "accuracy": accuracy,
        "report_every_s": report_every_s,
    }

    async def scenario() -> dict:
        app = TelemetryApp(SimClock(dt_s=1.0), ServiceConfig())
        server = await app.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            status, payload = await _http_exchange(
                reader, writer,
                _http_request(
                    "POST", "/v1/sessions", tenant="selftest",
                    body=json.dumps(config).encode(),
                ),
            )
            assert status == 201, f"create -> {status}"
            sid = payload["session"]["session_id"]
            for batch in batches:
                body = json.dumps({
                    "times": batch.times.tolist(),
                    "watts": batch.watts.tolist(),
                    "node_ids": batch.node_ids.tolist(),
                }).encode()
                status, payload = await _http_exchange(
                    reader, writer,
                    _http_request(
                        "POST", f"/v1/sessions/{sid}/batches",
                        tenant="selftest", body=body,
                    ),
                )
                assert status == 202, f"ingest -> {status}: {payload}"
            status, payload = await _http_exchange(
                reader, writer,
                _http_request(
                    "DELETE", f"/v1/sessions/{sid}",
                    tenant="selftest", close=True,
                ),
            )
            assert status == 200, f"close -> {status}"
            return payload["summary"]
        finally:
            writer.close()
            server.close()
            await server.wait_closed()
            await app.shutdown()

    got = asyncio.run(scenario())
    # Queue bookkeeping belongs to the driver, not the verdict.
    for key in ("queue_stalls", "queue_high_watermark", "session_id",
                "quality"):
        want.pop(key, None)
        got.pop(key, None)
    if got != want:
        diff = sorted(
            k for k in set(want) | set(got)
            if want.get(k) != got.get(k)
        )
        print("serve self-test: MISMATCH in " + ", ".join(diff))
        return 1
    print(
        "serve self-test: TCP lifecycle ok — "
        f"{len(batches)} batches, "
        f"{got['samples_ingested']} samples, verdict bit-identical "
        "to the direct stream_session replay"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServiceConfig, TelemetryApp

    if args.self_test:
        return _serve_self_test(seed=args.seed)

    config = ServiceConfig(
        rate_capacity=args.rate_capacity,
        rate_refill_per_request_s=args.rate_refill,
        idle_timeout_s=args.idle_timeout,
    )

    async def run_forever() -> None:
        app = TelemetryApp(_WallClock(), config)
        server = await app.serve_tcp(args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"repro serve: listening on http://{host}:{port}")
        sweeper = asyncio.ensure_future(app.sweep_forever())
        try:
            await server.serve_forever()
        finally:
            sweeper.cancel()
            server.close()
            await server.wait_closed()
            await app.shutdown()

    try:
        asyncio.run(run_forever())
    except KeyboardInterrupt:
        print("repro serve: shut down")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    argv = list(args.ids)
    if args.markdown:
        argv += ["--markdown", args.markdown]
    if args.quiet:
        argv += ["--quiet"]
    return runner_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.experiments.runner import add_run_arguments, run_from_args

    parser = argparse.ArgumentParser(
        prog="repro",
        description="EE HPC WG power-measurement methodology tools "
                    "(SC '15 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser(
        "plan", help="size a node-subset measurement (Eq. 5)"
    )
    plan.add_argument("--nodes", type=int, required=True,
                      help="fleet size N")
    plan.add_argument("--cv", type=float, default=0.03,
                      help="assumed sigma/mu (default 0.03, the paper's "
                           "conservative band edge)")
    plan.add_argument("--accuracy", type=float, default=0.01,
                      help="target relative accuracy lambda (default 1%%)")
    plan.add_argument("--confidence", type=float, default=0.95)
    plan.add_argument("--pilot", type=str, default=None,
                      help="comma-separated pilot node watts; switches to "
                           "the two-step procedure")
    plan.set_defaults(func=_cmd_plan)

    assess = sub.add_parser(
        "assess", help="assess a subset measurement's accuracy"
    )
    assess.add_argument("--nodes", type=int, required=True)
    assess.add_argument("--watts", type=str, required=True,
                        help="comma-separated measured node watts")
    assess.add_argument("--target", type=float, default=None,
                        help="accuracy target lambda to verify")
    assess.add_argument("--confidence", type=float, default=0.95)
    assess.set_defaults(func=_cmd_assess)

    budget = sub.add_parser(
        "budget",
        help="full error budget for a measurement plan under "
             "instrumentation constraints",
    )
    budget.add_argument("--nodes", type=int, required=True)
    budget.add_argument("--cv", type=float, default=0.03)
    budget.add_argument("--accuracy", type=float, default=0.02)
    budget.add_argument("--meters", type=int, default=2)
    budget.add_argument("--channels", type=int, default=24,
                        help="nodes per instrument")
    budget.add_argument("--meter-gain-cv", type=float, default=0.01)
    budget.add_argument("--partial-window", action="store_true",
                        help="use the pre-2015 partial window instead of "
                             "the full core phase")
    budget.add_argument("--machine-class", choices=("cpu", "gpu"),
                        default="cpu")
    budget.add_argument("--conversion-error", type=float, default=0.0)
    budget.set_defaults(func=_cmd_budget)

    systems = sub.add_parser("systems", help="list the calibrated registry")
    systems.set_defaults(func=_cmd_systems)

    validate = sub.add_parser(
        "validate",
        help="validate a submission JSON against the methodology",
    )
    validate.add_argument("path", help="submission JSON file")
    validate.add_argument(
        "--old-rules-only", action="store_true",
        help="check only the claimed level's Table 1 rules, not the "
             "post-2015 requirements",
    )
    validate.set_defaults(func=_cmd_validate)

    stream = sub.add_parser(
        "stream",
        help="replay a registry system through the online telemetry "
             "pipeline (live stats, compliance, sequential stopping)",
    )
    stream.add_argument("--system", default="l-csc",
                        help="registry system to replay (default: l-csc)")
    stream.add_argument("--dt", type=float, default=1.0,
                        help="sample spacing in seconds (default 1, the "
                             "Level 1/2 granularity)")
    stream.add_argument("--seed", type=int, default=2015,
                        help="replay seed (default 2015)")
    stream.add_argument("--accuracy", type=float, default=0.01,
                        help="sequential stopping target lambda")
    stream.add_argument("--confidence", type=float, default=0.95)
    stream.add_argument("--quantiles", default="0.5,0.95",
                        help="comma-separated fleet power quantiles to "
                             "track (default 0.5,0.95)")
    stream.add_argument("--ticks-per-batch", type=int, default=60,
                        help="collector flush interval in ticks")
    stream.add_argument("--report-every", type=float, default=600.0,
                        help="snapshot cadence in simulated seconds")
    stream.add_argument("--max-nodes", type=int, default=None,
                        help="stream only the first K nodes (a measured "
                             "subset; default: the whole fleet)")
    stream.add_argument("--core-seconds", type=float,
                        default=SECONDS_PER_HOUR,
                        help="core duration for node-variability systems "
                             "(which have no HPL trace; default 1 hour)")
    stream.add_argument("--format", choices=("text", "json"),
                        default="text")
    stream.set_defaults(func=_cmd_stream)

    shard = sub.add_parser(
        "shard",
        help="replay a registry system through the sharded multiprocess "
             "pipeline — bit-identical to serial for any shard count",
        description="Partition the fleet into contiguous node ranges, "
                    "run the full per-node kernel per shard (in a fork "
                    "worker pool, or inline with --processes 0), and "
                    "concatenate the per-shard states in node order.  "
                    "Every output, the quantile sketch included, is "
                    "bit-identical to a one-shard run for any shard "
                    "count.",
    )
    shard.add_argument("--system", default="l-csc",
                       help="registry system to replay")
    shard.add_argument("--shards", type=int, default=4,
                       help="contiguous node-range shards "
                            "(default: %(default)s)")
    shard.add_argument("--processes", type=int, default=None, metavar="N",
                       help="worker processes (default: min(shards, "
                            "cpu count); 0 runs every shard inline)")
    shard.add_argument("--dt", type=float, default=1.0,
                       help="sample spacing in seconds")
    shard.add_argument("--seed", type=int, default=2015,
                       help="simulation seed")
    shard.add_argument("--accuracy", type=float, default=0.01,
                       help="sequential stopping target lambda")
    shard.add_argument("--confidence", type=float, default=0.95)
    shard.add_argument("--ticks-per-batch", type=int, default=60,
                       help="slab capacity / collector flush interval")
    shard.add_argument("--core-seconds", type=float,
                       default=SECONDS_PER_HOUR,
                       help="core-phase length for non-trace systems")
    shard.add_argument("--format", choices=("text", "json"),
                       default="text")
    shard.set_defaults(func=_cmd_shard)

    chaos = sub.add_parser(
        "chaos",
        help="inject deterministic meter faults into a replayed system, "
             "run the self-healing recovery and audit the quality label "
             "(exit 1 on any bound breach or ledger mismatch)",
    )
    chaos.add_argument("--system", default="l-csc",
                       help="registry system to degrade (default: l-csc)")
    chaos.add_argument("--dropout", default="0.05",
                       help="comma-separated sample-dropout rates to "
                            "sweep (default 0.05)")
    chaos.add_argument("--node-loss", type=int, default=1,
                       help="nodes lost mid-run per scenario (default 1)")
    chaos.add_argument("--stuck", type=float, default=0.0,
                       help="stuck-at-last-value start rate (default 0)")
    chaos.add_argument("--spike", type=float, default=0.0,
                       help="spike-glitch rate (default 0)")
    chaos.add_argument("--truncate", type=float, default=0.0,
                       help="fraction of the trace tail that never "
                            "arrives (default 0)")
    chaos.add_argument("--delivery-failure-rate", type=float, default=0.0,
                       help="per-attempt transient delivery failure "
                            "probability (default 0)")
    chaos.add_argument("--pathology", default="",
                       help="run correlated meter pathologies instead of "
                            "independent faults: comma-separated subset "
                            "of aliasing,entropy,spread, or 'all'")
    chaos.add_argument("--intensity", choices=("low", "high"),
                       default="high",
                       help="pathology intensity grid row "
                            "(with --pathology; default high)")
    chaos.add_argument("--policy", choices=("hold", "interpolate",
                                            "exclude"),
                       default="hold", help="gap-repair policy")
    chaos.add_argument("--dt", type=float, default=2.0,
                       help="sample spacing in seconds (default 2)")
    chaos.add_argument("--seed", type=int, default=2015,
                       help="fault-plan and replay seed (default 2015)")
    chaos.add_argument("--core-seconds", type=float, default=1800.0,
                       help="core duration of the degraded run "
                            "(default 1800)")
    chaos.add_argument("--max-nodes", type=int, default=None,
                       help="degrade only the first K nodes "
                            "(default: the whole fleet)")
    chaos.add_argument("--format", choices=("text", "json"),
                       default="text")
    chaos.set_defaults(func=_cmd_chaos)

    wire = sub.add_parser(
        "wire",
        help="sweep the wire codecs' bandwidth-vs-accuracy frontier, "
             "or fuzz the frame parser (--fuzz N)",
        description="Replay a simulated fleet through the framed wire "
                    "protocol at each codec x loss-rate cell, audit "
                    "the recovery exactly, and print the "
                    "bandwidth-vs-accuracy frontier.  With --fuzz N, "
                    "instead mutate N seeded byte streams through the "
                    "frame parser (the CI smoke stage).",
    )
    wire.add_argument("--system", default="l-csc",
                      help="trace system to stream (default: %(default)s)")
    wire.add_argument("--codecs",
                      default="raw64,delta-varint,zlib(delta-varint),"
                              "quant12,quant8",
                      help="comma-separated codec specs")
    wire.add_argument("--drop", type=float, nargs="*",
                      default=[0.0, 0.1],
                      help="frame drop rates to sweep (default: 0 0.1)")
    wire.add_argument("--corrupt", type=float, nargs="*",
                      default=[0.0, 0.1],
                      help="frame corruption rates to sweep "
                           "(default: 0 0.1)")
    wire.add_argument("--dt", type=float, default=2.0,
                      help="sample spacing in seconds")
    wire.add_argument("--core-seconds", type=float, default=1200.0,
                      help="core-phase length of the simulated run")
    wire.add_argument("--ticks-per-frame", type=int, default=10,
                      help="ticks carried per wire frame")
    wire.add_argument("--seed", type=int, default=2015,
                      help="root seed for the run and the fault plans")
    wire.add_argument("--max-nodes", type=int, default=12,
                      help="leading node subset to frame "
                           "(default: %(default)s)")
    wire.add_argument("--fuzz", type=int, default=None, metavar="N",
                      help="skip the sweep; fuzz the frame parser with "
                           "N mutated streams and exit")
    wire.add_argument("--format", choices=("text", "json"),
                      default="text")
    wire.set_defaults(func=_cmd_wire)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant telemetry service (HTTP/JSON + RPWR)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8350, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--rate-capacity", type=float, default=100.0,
        help="token-bucket burst capacity per tenant",
    )
    serve.add_argument(
        "--rate-refill", type=float, default=50.0,
        help="token-bucket refill rate (requests/s) per tenant",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=SECONDS_PER_HOUR,
        help="seconds of inactivity before a drained session is evicted",
    )
    serve.add_argument(
        "--self-test", action="store_true",
        help="boot on an ephemeral port, run one TCP session lifecycle "
             "and require the verdict to match a direct replay",
    )
    serve.add_argument(
        "--seed", type=int, default=11, help="self-test run seed"
    )
    serve.set_defaults(func=_cmd_serve)

    run = sub.add_parser(
        "run",
        help="run the experiment sweep — parallel (--jobs N) with the "
             "content-addressed result cache on by default",
        description="Run the paper-reproduction experiment sweep. "
                    "Experiments are scheduled longest-first onto a "
                    "process pool; unchanged experiments replay from "
                    "the content-addressed cache under --cache-dir "
                    "(on by default; --no-cache disables it; --jobs "
                    "defaults to 1). Every layout (serial, --jobs N, "
                    "cached) produces byte-identical records.",
    )
    add_run_arguments(run)
    run.set_defaults(func=run_from_args, cache=True, jobs=1)

    experiments = sub.add_parser(
        "experiments",
        help="run the paper-reproduction experiments (serial shortcut; "
             "see `run` for --jobs/--cache)",
    )
    experiments.add_argument("ids", nargs="*")
    experiments.add_argument("--markdown", default=None)
    experiments.add_argument("--quiet", action="store_true")
    experiments.set_defaults(func=_cmd_experiments)

    lint = sub.add_parser(
        "lint",
        help="run the reproducibility/units/RNG static analysis "
             "(per-file rules RPX001-RPX008; --semantic adds the "
             "whole-project rules RPX101-RPX103)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src if present, "
                           "else .)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule ids to run (default: all); "
                           "unknown ids are an error")
    lint.add_argument("--ignore", default=None,
                      help="comma-separated rule ids to skip; unknown ids "
                           "are an error")
    lint.add_argument("--jobs", type=int, default=None,
                      help="worker threads for the parallel scan")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the findings/summary cache")
    lint.add_argument("--cache-file", default=".repro_lint_cache.json",
                      help="cache location (default: %(default)s)")
    lint.add_argument("--semantic", action="store_true",
                      help="also run the cross-module semantic rules "
                           "(purity, seed provenance, unit dimensions)")
    lint.add_argument("--sarif", default=None, metavar="PATH",
                      help="write a SARIF 2.1.0 report to PATH")
    lint.add_argument("--baseline", default=".repro-lint-baseline.json",
                      metavar="PATH",
                      help="accepted-findings baseline consulted by "
                           "--semantic (default: %(default)s)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore the baseline and report every finding")
    lint.add_argument("--write-baseline", action="store_true",
                      help="accept all current findings into the baseline "
                           "file and exit")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end streaming sessions: replay → estimate → monitor → stop.

:class:`LiveStreamState` is the incremental session core: one
:class:`~repro.stream.monitor.ComplianceMonitor`, the per-node fold
every route shares, fed one :class:`~repro.stream.ingest.SampleBatch`
at a time; its fleet moments are the fold's per-node moments pooled,
and its stopping decision is Eq. 1–5 over the fold's node means
(:meth:`~repro.stream.stopping.SequentialStopper.decide`), evaluated
when read.  Two drivers share it:

* :func:`stream_session` — the batch driver the ``repro stream`` CLI
  subcommand runs: replay a :class:`~repro.traces.synth.SimulatedRun`
  batch by batch into one state.
* :mod:`repro.serve` — the multi-tenant telemetry service, which hosts
  one state per tenant session and feeds it batches POSTed over HTTP.

Because both paths push identical batches through the *same* update
code, a verdict served over the wire is bit-identical to the verdict a
direct :func:`stream_session` call computes.  Every route — these two
and :func:`~repro.shard.engine.sharded_session` — returns one
:class:`SessionResult`, and the route-equivalence property in
``tests/test_route_equivalence.py`` holds every route (stream, shard,
served JSON and RPWR, wire chaos) to the same result outside the
provenance each route declares.

The session is deterministic: the simulated tick clock is the only
time source, and all estimator state is a pure function of the replayed
samples.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.stream.estimators import QUANTILE_REL_ERROR, RunningMoments
from repro.stream.ingest import SampleBatch, replay_run
from repro.stream.monitor import ComplianceMonitor, MonitorReport
from repro.stream.stopping import SequentialStopper, StoppingDecision
from repro.traces.synth import SimulatedRun

__all__ = [
    "StreamSnapshot",
    "StreamVerdict",
    "SessionResult",
    "LiveStreamState",
    "stream_session",
]


@dataclass(frozen=True)
class StreamSnapshot:
    """One periodic observation of the live stream state."""

    t_s: float
    samples_seen: int
    fleet_mean_w: float
    fleet_std_w: float
    node_cv: float
    quantiles_w: dict[float, float]
    rolling_mean_w: float
    coverage: float
    interval_ok: bool
    legal_level1_window: bool
    n_outliers: int
    achieved_lambda: float
    should_stop: bool

    @classmethod
    def of(
        cls,
        t_s: float,
        node_moments: RunningMoments,
        samples_seen: int,
        quantiles_w: dict[float, float],
        report: MonitorReport,
        decision: StoppingDecision,
    ) -> StreamSnapshot:
        """The snapshot, stamped ``t_s``, of a fold's per-node moments,
        sample count and quantiles, its ``report`` and its stopping
        ``decision``."""
        fleet = node_moments.pooled()
        node_means = np.asarray(node_moments.mean)
        mu = float(node_means.mean())
        sd_nodes = (
            float(node_means.std(ddof=1)) if node_means.size > 1 else 0.0
        )
        return cls(
            t_s=float(t_s),
            samples_seen=samples_seen,
            fleet_mean_w=float(np.asarray(fleet.mean)),
            fleet_std_w=(
                float(np.asarray(fleet.std())) if fleet.count >= 2 else 0.0
            ),
            node_cv=(sd_nodes / mu if mu > 0 else 0.0),
            quantiles_w=quantiles_w,
            rolling_mean_w=report.rolling_mean_w,
            coverage=report.window_fraction_covered,
            interval_ok=report.interval_ok,
            legal_level1_window=report.legal_level1_window,
            n_outliers=len(report.outlier_nodes),
            achieved_lambda=decision.achieved_lambda,
            should_stop=decision.should_stop,
        )

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "t_s": self.t_s,
            "samples_seen": self.samples_seen,
            "fleet_mean_w": self.fleet_mean_w,
            "fleet_std_w": self.fleet_std_w,
            "node_cv": self.node_cv,
            "quantiles_w": {f"{q:g}": v for q, v in self.quantiles_w.items()},
            "rolling_mean_w": self.rolling_mean_w,
            "coverage": self.coverage,
            "interval_ok": self.interval_ok,
            "legal_level1_window": self.legal_level1_window,
            "n_outliers": self.n_outliers,
            "achieved_lambda": self.achieved_lambda,
            "should_stop": self.should_stop,
        }

    def line(self) -> str:
        """One live status line."""
        qtext = " ".join(
            f"p{int(round(q * 100))}={v:.1f}" for q, v in self.quantiles_w.items()
        )
        lam = (
            "inf"
            if not np.isfinite(self.achieved_lambda)
            else f"{self.achieved_lambda:.2%}"
        )
        flags = []
        if not self.interval_ok:
            flags.append("INTERVAL!")
        if self.n_outliers:
            flags.append(f"outliers={self.n_outliers}")
        if self.should_stop:
            flags.append("STOP")
        return (
            f"t={self.t_s:8.0f}s n={self.samples_seen:9d} "
            f"mean={self.fleet_mean_w:8.1f}W sd={self.fleet_std_w:6.1f}W "
            f"{qtext} cov={self.coverage:6.1%} lambda={lam}"
            + (" [" + " ".join(flags) + "]" if flags else "")
        )


@dataclass(frozen=True)
class StreamVerdict:
    """What the stream says now: snapshot, monitor report, stopping.

    Built by :meth:`LiveStreamState.verdict` from one monitor report,
    so the three parts always describe the same state.
    """

    snapshot: StreamSnapshot | None
    monitor: MonitorReport
    stopping: StoppingDecision

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "snapshot": (
                None if self.snapshot is None else self.snapshot.to_dict()
            ),
            "monitor": self.monitor.to_dict(),
            "stopping": self.stopping.to_dict(),
        }


@dataclass(frozen=True)
class SessionResult:
    """A finished session: one folded monitor, rendered the same way for
    every route, then the provenance the route declares.

    Every route builds its result with :meth:`of`, from the folded
    :class:`~repro.stream.monitor.ComplianceMonitor`, the stopping
    ``rule`` (``accuracy``, ``population``, ``confidence``) and the
    route's ``periodic`` snapshots: :meth:`LiveStreamState.result` (the
    replay and the service), :func:`~repro.shard.engine.sharded_session`
    and a reduce over :func:`~repro.shard.engine.run_shard` folds.  The
    result keeps what it reads from the fold, not the fold; the first
    stopping prefix and the closing snapshot are computed when first
    read.

    ``provenance`` holds the keys a route adds after the fold part, in
    order: how the samples were carried, not what they say.  A value
    with ``to_dict``/``lines`` (a quality label) renders through them.
    Two routes over the same samples differ only in their provenance,
    and in ``monitor`` and the periodic snapshots, which depend on
    batching.
    """

    node_moments: RunningMoments
    samples_ingested: int
    quantiles_w: dict[float, float]
    node_fleet_correlation: float
    monitor_report: MonitorReport
    stopping: StoppingDecision
    rule: Mapping[str, float]
    periodic: tuple[StreamSnapshot, ...] = ()
    provenance: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def of(
        cls,
        fold: ComplianceMonitor,
        rule: Mapping[str, float],
        periodic: tuple[StreamSnapshot, ...] = (),
        provenance: Mapping[str, object] | None = None,
    ) -> SessionResult:
        """The result of the folded ``fold``, with the Eq. 1–5 decision
        over its node means under ``rule``."""
        if not fold.samples_seen:
            raise ValueError("cannot summarise an empty stream")
        return cls(
            node_moments=fold.node_moments,
            samples_ingested=fold.samples_seen,
            quantiles_w=fold.quantiles_w(),
            node_fleet_correlation=fold.mean_correlation(),
            monitor_report=fold.report(),
            stopping=SequentialStopper.decide(fold.node_moments.mean, **rule),
            rule=dict(rule),
            periodic=tuple(periodic),
            provenance=dict(provenance or {}),
        )

    @property
    def fleet_moments(self) -> RunningMoments:
        """Pooled moments over every node's every sample."""
        return self.node_moments.pooled()

    @functools.cached_property
    def stopped_at_nodes(self) -> int | None:
        """The first node-order prefix of the node means that meets the
        target (``None`` if none does)."""
        prefixes = SequentialStopper(**self.rule)
        prefixes.update_many(self.node_moments.mean)
        return prefixes.stopped_at

    @functools.cached_property
    def snapshots(self) -> tuple[StreamSnapshot, ...]:
        """The periodic snapshots, or the closing one if there are none."""
        report = self.monitor_report
        return self.periodic or (StreamSnapshot.of(
            report.t_now_s, self.node_moments, self.samples_ingested,
            self.quantiles_w, report, self.stopping,
        ),)

    def to_dict(self) -> dict:
        """JSON-friendly rendering: the fold part, then the provenance."""
        pooled = self.fleet_moments
        out = {
            "samples_ingested": self.samples_ingested,
            "fleet_mean_w": float(np.asarray(pooled.mean)),
            "fleet_std_w": float(np.asarray(pooled.std())),
            "fleet_min_w": float(np.asarray(pooled.minimum)),
            "fleet_max_w": float(np.asarray(pooled.maximum)),
            "quantiles_w": {f"{q:g}": v for q, v in self.quantiles_w.items()},
            "quantile_rel_error": QUANTILE_REL_ERROR,
            "node_fleet_correlation": self.node_fleet_correlation,
            "stopped_at_nodes": self.stopped_at_nodes,
            "stopping": self.stopping.to_dict(),
            "monitor": self.monitor_report.to_dict(),
            "snapshots": [s.to_dict() for s in self.snapshots],
        }
        for key, value in self.provenance.items():
            out[key] = value.to_dict() if hasattr(value, "to_dict") else value
        return out

    def render_text(self) -> str:
        """Plain-text report: the fold part, then the provenance."""
        pooled = self.fleet_moments
        lines = [s.line() for s in self.snapshots]
        lines.append("")
        lines.append("== final stream state ==")
        lines.append(f"samples ingested: {self.samples_ingested}")
        lines.append(
            f"fleet per-node power: mean "
            f"{float(np.asarray(pooled.mean)):.1f} W, "
            f"sd {float(np.asarray(pooled.std())):.1f} W, "
            f"range [{float(np.asarray(pooled.minimum)):.1f}, "
            f"{float(np.asarray(pooled.maximum)):.1f}] W"
        )
        for q, v in self.quantiles_w.items():
            lines.append(
                f"  p{int(round(q * 100))}: {v:.1f} W "
                f"(+/-{QUANTILE_REL_ERROR:.1%})"
            )
        lines.append(
            f"node-vs-fleet correlation: {self.node_fleet_correlation:.3f}"
        )
        lines.extend(self.monitor_report.lines())
        d = self.stopping
        verdict = "met" if d.should_stop else "NOT met"
        lines.append(
            f"sequential stopping: target {verdict} at n={d.n_observed} "
            f"nodes (achieved lambda "
            + (
                f"{d.achieved_lambda:.2%}"
                if np.isfinite(d.achieved_lambda)
                else "inf"
            )
            + f", Eq. 5 projection {d.projected_n} nodes)"
        )
        if self.stopped_at_nodes is not None:
            lines.append(
                f"stop signal first fired with {self.stopped_at_nodes} nodes"
            )
        for key, value in self.provenance.items():
            if hasattr(value, "lines"):
                lines.extend(value.lines())
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines)


class LiveStreamState:
    """Incremental estimator/monitor state, pushed one batch at a time.

    The single source of truth for "what does the stream look like so
    far": every driver — the batch replay in :func:`stream_session`,
    the per-tenant sessions in :mod:`repro.serve` — pushes its batches
    through :meth:`push` and reads verdicts with :meth:`verdict` (the
    live snapshot, monitor report and stopping decision, from one
    monitor report) / :meth:`result`, so identical batch streams always
    produce identical verdicts regardless of how the bytes arrived.
    A push hands the batch to the fold's one entry,
    :meth:`~repro.stream.monitor.ComplianceMonitor.observe`; a read — a verdict, a snapshot, the
    stopping decision, the result — folds what is pending first, so
    what it reads has the bits of a fold batch by batch.

    The stopping decision is a function of the fold: Eq. 1–5 over the
    node means in node order, computed when first read at a fold state.
    Once the core phase is folded those are the full-window node means
    the paper's rule sizes the sample from, so the final decision does
    not depend on batching; a read before then is the "if you stopped
    now" decision on the running means.

    Parameters
    ----------
    population:
        Fleet size ``N`` for the finite-population correction.
    core_window:
        ``(t0_s, t1_s)`` of the core phase the compliance monitor
        judges coverage against.
    required_interval_s:
        Maximum legal sample spacing (the Level 1/2 cadence rule).
    quantiles:
        Fleet power quantiles read from the fold's quantile sketch.
    accuracy / confidence:
        Stopping target (λ, 1 − α).
    report_every_s:
        Snapshot cadence in simulated seconds.
    """

    def __init__(
        self,
        *,
        population: int,
        core_window: tuple[float, float],
        required_interval_s: float,
        quantiles: tuple[float, ...] = (0.5, 0.95),
        accuracy: float = 0.01,
        confidence: float = 0.95,
        report_every_s: float = 600.0,
    ) -> None:
        if not report_every_s > 0:
            raise ValueError("report_every_s must be positive")
        self.fold = ComplianceMonitor(
            core_window,
            required_interval_s=required_interval_s,
            quantiles=quantiles,
        )
        self._rule = dict(
            accuracy=accuracy, population=population, confidence=confidence
        )
        # (batches_ingested, decision) at the last read; deciding on no
        # means also validates the rule.
        self._decided = (0, SequentialStopper.decide((), **self._rule))
        self.snapshots: list[StreamSnapshot] = []
        self.report_every_s = float(report_every_s)
        self.batches_ingested = 0
        self._next_report_s: float | None = None
        self._finalized = False

    # ------------------------------------------------------------------
    @property
    def decision(self) -> StoppingDecision:
        """Eq. 1–5 over the node means at the current fold state."""
        if self._decided[0] != self.batches_ingested:
            self._decided = (
                self.batches_ingested,
                SequentialStopper.decide(self._node_means(), **self._rule),
            )
        return self._decided[1]

    @property
    def samples_ingested(self) -> int:
        """Samples folded so far."""
        return self.fold.samples_seen

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has run (no more pushes allowed)."""
        return self._finalized

    def push(self, batch: SampleBatch) -> None:
        """Ingest one batch: estimators and compliance.

        A batch with more nodes than the population is refused, like
        any batch the fold refuses, before any state changes.
        """
        if self._finalized:
            raise ValueError("cannot push into a finalized stream state")
        if batch.n_nodes > self._rule["population"]:
            raise ValueError("more node measurements than the population")
        self.fold.observe(batch)
        self.batches_ingested += 1

        t_now = batch.t1_s
        if self._next_report_s is None:
            self._next_report_s = batch.t0_s + self.report_every_s
        while t_now >= self._next_report_s - 1e-9:
            self.snapshots.append(
                self.snapshot_at(t_now, self.fold.report())
            )
            self._next_report_s += self.report_every_s

    def snapshot_at(self, t_s: float, report: MonitorReport) -> StreamSnapshot:
        """Build a snapshot of the current state, stamped ``t_s``, from
        the monitor's current ``report``."""
        return StreamSnapshot.of(
            t_s, self.fold.node_moments, self.fold.samples_seen,
            self.fold.quantiles_w(), report, self.decision,
        )

    def verdict(self) -> StreamVerdict:
        """The live verdict: snapshot, monitor report and stopping.

        All three come from one monitor report; the snapshot is stamped
        with the monitor's current stream time, and is ``None`` while
        nothing has been ingested (an empty stream has no moments).
        """
        report = self.fold.report()
        snapshot = (
            self.snapshot_at(report.t_now_s, report)
            if self.samples_ingested else None
        )
        return StreamVerdict(
            snapshot=snapshot, monitor=report, stopping=self.decision
        )

    def finalize(self) -> StoppingDecision:
        """Close the stream and return the stopping decision.

        Idempotent; after this :meth:`push` refuses further batches, so
        the decision is the final one.
        """
        self._finalized = True
        return self.decision

    def result(self, *, queue_high_watermark: int = 0) -> SessionResult:
        """The final :class:`SessionResult`.

        Must run after :meth:`finalize`.  The stream driver declares its
        ingest queue as provenance: ``queue_stalls`` (always 0 — no
        driver stalls its producer; a full serve queue answers 429
        instead) and ``queue_high_watermark``, the driver's to report
        (a service session's; a replay has no queue).
        """
        if not self._finalized:
            raise ValueError("finalize() the state before result()")
        return SessionResult.of(
            self.fold,
            self._rule,
            self.snapshots,
            {"queue_stalls": 0, "queue_high_watermark": queue_high_watermark},
        )

    def _node_means(self) -> np.ndarray:
        """Each node's mean so far, in node order (none before data)."""
        if not self.samples_ingested:
            return np.empty(0)
        return np.asarray(self.fold.node_moments.mean)


def stream_session(
    run: SimulatedRun,
    *,
    node_indices: np.ndarray | None = None,
    ticks_per_batch: int = 60,
    quantiles: tuple[float, ...] = (0.5, 0.95),
    accuracy: float = 0.01,
    confidence: float = 0.95,
    report_every_s: float = 600.0,
    core_only: bool = True,
) -> SessionResult:
    """Replay a run through the full streaming pipeline.

    Parameters
    ----------
    run:
        The simulated run to stream.
    node_indices:
        Optional measured subset (default: the whole fleet).
    ticks_per_batch:
        Collector flush interval in ticks.
    quantiles:
        Fleet power quantiles read from the fold's quantile sketch.
    accuracy / confidence:
        Sequential stopping target (λ, 1 − α).
    report_every_s:
        Snapshot cadence in simulated seconds.
    core_only:
        Stream only the core phase (the methodology's view).
    """
    state = LiveStreamState(
        population=run.system.n_nodes,
        core_window=run.core_window,
        required_interval_s=max(run.dt, 1.0),
        quantiles=quantiles,
        accuracy=accuracy,
        confidence=confidence,
        report_every_s=report_every_s,
    )
    for batch in replay_run(
        run,
        node_indices=node_indices,
        ticks_per_batch=ticks_per_batch,
        core_only=core_only,
    ):
        state.push(batch)
    state.finalize()
    return state.result()

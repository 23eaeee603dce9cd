"""End-to-end streaming sessions: replay → estimate → monitor → stop.

:class:`FleetFold` is the per-node fold every route shares — the
compliance monitor, the node-vs-fleet covariance and the fleet power
quantile sketch, advanced one batch at a time against a per-tick fleet
series, with an exact :meth:`FleetFold.concat` for shards.

:class:`LiveStreamState` is the incremental session core: one fold,
advanced one :class:`~repro.stream.ingest.SampleBatch` at a time; its
fleet moments are the fold's per-node moments pooled, and its stopping
decision is Eq. 1–5 over the fold's node means
(:meth:`~repro.stream.stopping.SequentialStopper.decide`), evaluated
when read.  Two drivers share it:

* :func:`stream_session` — the batch driver the ``repro stream`` CLI
  subcommand runs: replay a :class:`~repro.traces.synth.SimulatedRun`
  batch by batch into one state.
* :mod:`repro.serve` — the multi-tenant telemetry service, which hosts
  one state per tenant session and feeds it batches POSTed over HTTP.

Because both paths push identical batches through the *same* update
code, a verdict served over the wire is bit-identical to the verdict a
direct :func:`stream_session` call computes — the route-equivalence
property in ``tests/test_route_equivalence.py`` holds every route
(stream, shard, served JSON and RPWR, wire chaos) to the same fold
state.

The session is deterministic: the simulated tick clock is the only
time source, and all estimator state is a pure function of the replayed
samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.stream.estimators import (
    QUANTILE_REL_ERROR,
    QuantileSketch,
    RunningCovariance,
    RunningMoments,
)
from repro.stream.ingest import SampleBatch, replay_run
from repro.stream.monitor import ComplianceMonitor, MonitorReport
from repro.stream.stopping import SequentialStopper, StoppingDecision
from repro.traces.synth import SimulatedRun

__all__ = [
    "FleetFold",
    "StreamSnapshot",
    "StreamVerdict",
    "StreamSessionResult",
    "LiveStreamState",
    "stream_session",
]


class FleetFold:
    """Monitor, covariance and quantiles over one node set, per batch.

    :meth:`push` judges a batch against ``fleet_w``, the per-tick fleet
    mean series: the batch's own :meth:`SampleBatch.fleet_means` for a
    whole-fleet stream, or the global reference slice for a shard, so a
    shard's fold is the exact column slice of the full-fleet fold.
    ``fleet_series`` holds that series' moments, the ``y`` side of the
    node-vs-fleet covariance whose ``x`` side is the monitor's
    ``node_moments``.  Recovery is not part of the fold; drivers that
    repair gaps run their own
    :class:`~repro.faults.recovery.RecoveryPipeline` beside it.

    Each batch is checked once, by the monitor's ``_admit``, then
    folded by the estimators' private, trusted folds; their public
    ``push_batch`` and :meth:`ComplianceMonitor.observe` are not
    called.
    """

    __slots__ = ("monitor", "fleet_series", "covar", "quantiles", "sketch")

    def __init__(
        self,
        core_window: tuple[float, float],
        *,
        required_interval_s: float,
        quantiles: tuple[float, ...] = (0.5, 0.95),
    ) -> None:
        for q in quantiles:
            if not (0.0 < q < 1.0):
                raise ValueError(f"quantiles must be in (0, 1), got {q}")
        self.monitor = ComplianceMonitor(
            core_window, required_interval_s=required_interval_s
        )
        self.fleet_series = RunningMoments()
        self.covar = RunningCovariance()
        self.quantiles = tuple(quantiles)
        self.sketch = QuantileSketch()

    def push(self, batch: SampleBatch, fleet_w: np.ndarray) -> None:
        """Fold one batch, judged against its per-tick fleet series.

        The batch is checked once, by the monitor's
        :meth:`~repro.stream.monitor.ComplianceMonitor._admit`, before
        anything changes: a non-finite or negative reading, a
        ``fleet_w`` that is not one finite mean per tick, another node
        set than the first batch, a timestamp more than 1e-12 s before
        the one it follows, or a reading whose ratio to ``fleet_w``
        overflows is refused, and the fold stays as it was.
        """
        monitor, moments = self.monitor, self.monitor.node_moments
        fleet_w, lo = monitor._admit(batch, fleet_w)
        if batch.n_ticks == 0:
            return
        w = batch.watts
        # The covariance's x shift is the node moments' shift, so the
        # node deviations serve both, read before the monitor's fold
        # seeds them in place.
        d = moments._deviations(w)
        self.covar._fold(d, fleet_w, moments._shift)
        monitor._fold(batch, fleet_w, d)
        self.fleet_series._fold(
            fleet_w, self.fleet_series._deviations(fleet_w)
        )
        if w.size:
            self.sketch._fold(w, lo)

    def quantiles_w(self) -> dict[float, float]:
        """Current estimate of every tracked quantile."""
        return {q: self.sketch.quantile(q) for q in self.quantiles}

    def correlation(self) -> np.ndarray:
        """Each node's Pearson correlation with the fleet series."""
        return self.covar.correlation(
            self.monitor.node_moments, self.fleet_series
        )

    @classmethod
    def concat(cls, parts: list["FleetFold"]) -> "FleetFold":
        """Reassemble node-ordered, node-partitioned folds (exact).

        Monitor and covariance state is column-independent, so they
        concatenate; every shard pushed the same fleet series, so its
        moments are taken from the first; the quantile sketches add
        their counts.  Every piece is exact, so the result is
        independent of the partition.
        """
        if not parts:
            raise ValueError("concat needs at least one part")
        for i, part in enumerate(parts):
            if part.quantiles != parts[0].quantiles:
                raise ValueError(f"shard {i} tracked different quantiles")
        out = cls.__new__(cls)
        out.monitor = ComplianceMonitor.merge_shards(
            [p.monitor for p in parts]
        )
        out.fleet_series = parts[0].fleet_series
        out.covar = RunningCovariance.concat([p.covar for p in parts])
        out.quantiles = parts[0].quantiles
        out.sketch = QuantileSketch()
        for part in parts:
            out.sketch.merge(part.sketch)
        return out


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


@dataclass
class StreamSessionResult:
    """Everything a finished streaming session produced."""

    snapshots: list[StreamSnapshot]
    monitor_report: MonitorReport
    stopping: StoppingDecision
    node_moments: RunningMoments
    node_fleet_correlation: float
    quantiles_w: dict[float, float]
    queue_high_watermark: int
    samples_ingested: int
    stopped_at_nodes: int | None = field(default=None)

    @property
    def fleet_moments(self) -> RunningMoments:
        """Pooled moments over every node's every sample."""
        return self.node_moments.pooled()

    def to_dict(self) -> dict:
        """JSON-friendly rendering of the final state."""
        pooled = self.fleet_moments
        return {
            "samples_ingested": self.samples_ingested,
            "fleet_mean_w": float(np.asarray(pooled.mean)),
            "fleet_std_w": float(np.asarray(pooled.std())),
            "fleet_min_w": float(np.asarray(pooled.minimum)),
            "fleet_max_w": float(np.asarray(pooled.maximum)),
            "quantiles_w": {f"{q:g}": v for q, v in self.quantiles_w.items()},
            "quantile_rel_error": QUANTILE_REL_ERROR,
            "node_fleet_correlation": self.node_fleet_correlation,
            # No driver stalls its producer (a full serve queue answers
            # 429 instead); the always-0 key stays for its readers.
            "queue_stalls": 0,
            "queue_high_watermark": self.queue_high_watermark,
            "stopped_at_nodes": self.stopped_at_nodes,
            "stopping": self.stopping.to_dict(),
            "monitor": self.monitor_report.to_dict(),
            "snapshots": [s.to_dict() for s in self.snapshots],
        }

    def render_text(self) -> str:
        """Full plain-text session report."""
        lines = [s.line() for s in self.snapshots]
        lines.append("")
        lines.append("== final stream state ==")
        lines.append(
            f"samples ingested: {self.samples_ingested} "
            f"(queue high-water {self.queue_high_watermark})"
        )
        lines.append(
            f"fleet per-node power: mean "
            f"{float(np.asarray(self.fleet_moments.mean)):.1f} W, "
            f"sd {float(np.asarray(self.fleet_moments.std())):.1f} W, "
            f"range [{float(np.asarray(self.fleet_moments.minimum)):.1f}, "
            f"{float(np.asarray(self.fleet_moments.maximum)):.1f}] W"
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
        return "\n".join(lines)


class LiveStreamState:
    """Incremental estimator/monitor state, one batch at a time.

    The single source of truth for "what does the stream look like so
    far": every driver — the batch replay in :func:`stream_session`,
    the per-tenant sessions in :mod:`repro.serve` — pushes its batches
    through :meth:`push` and reads verdicts with :meth:`verdict` (the
    live snapshot, monitor report and stopping decision, from one
    monitor report) / :meth:`result`, so identical batch streams always
    produce identical verdicts regardless of how the bytes arrived.

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
        self.fold = FleetFold(
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
        self.samples_ingested = 0
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
        self.fold.push(batch, batch.fleet_means())
        self.samples_ingested += batch.n_samples
        self.batches_ingested += 1

        t_now = batch.t1_s
        if self._next_report_s is None:
            self._next_report_s = batch.t0_s + self.report_every_s
        while t_now >= self._next_report_s - 1e-9:
            self.snapshots.append(
                self.snapshot_at(t_now, self.fold.monitor.report())
            )
            self._next_report_s += self.report_every_s

    def snapshot_at(self, t_s: float, report: MonitorReport) -> StreamSnapshot:
        """Build a snapshot of the current state, stamped ``t_s``, from
        the monitor's current ``report``."""
        decision = self.decision
        fleet = self.fold.monitor.node_moments.pooled()
        have_sd = fleet.count >= 2
        node_means = np.asarray(self.fold.monitor.node_moments.mean)
        mu = float(node_means.mean())
        sd_nodes = (
            float(node_means.std(ddof=1)) if node_means.size > 1 else 0.0
        )
        return StreamSnapshot(
            t_s=float(t_s),
            samples_seen=self.fold.monitor.samples_seen,
            fleet_mean_w=float(np.asarray(fleet.mean)),
            fleet_std_w=(float(np.asarray(fleet.std())) if have_sd else 0.0),
            node_cv=(sd_nodes / mu if mu > 0 else 0.0),
            quantiles_w=self.fold.quantiles_w(),
            rolling_mean_w=report.rolling_mean_w,
            coverage=report.window_fraction_covered,
            interval_ok=report.interval_ok,
            legal_level1_window=report.legal_level1_window,
            n_outliers=len(report.outlier_nodes),
            achieved_lambda=decision.achieved_lambda,
            should_stop=decision.should_stop,
        )

    def verdict(self) -> StreamVerdict:
        """The live verdict: snapshot, monitor report and stopping.

        All three come from one monitor report; the snapshot is stamped
        with the monitor's current stream time, and is ``None`` while
        nothing has been ingested (an empty stream has no moments).
        """
        report = self.fold.monitor.report()
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

    def result(self, *, queue_high_watermark: int = 0) -> StreamSessionResult:
        """Assemble the final :class:`StreamSessionResult`.

        Must run after :meth:`finalize`; the queue high-water mark is
        the driver's to report (a service session's; a replay has no
        queue).  ``stopped_at_nodes`` is the first node-order prefix of
        the final node means that meets the target.
        """
        if not self._finalized:
            raise ValueError("finalize() the state before result()")
        if self.samples_ingested == 0:
            raise ValueError("cannot summarise an empty stream")
        prefixes = SequentialStopper(**self._rule)
        prefixes.update_many(self._node_means())
        final_monitor = self.fold.monitor.report()
        snapshots = list(self.snapshots)
        if not snapshots:
            snapshots.append(
                self.snapshot_at(final_monitor.t_now_s, final_monitor)
            )
        try:
            correlation = float(np.mean(self.fold.correlation()))
        except ValueError:
            # Degenerate stream (a single tick, or constant readings):
            # the correlation is undefined, not zero — surface as NaN.
            correlation = float("nan")
        return StreamSessionResult(
            snapshots=snapshots,
            monitor_report=final_monitor,
            stopping=self.decision,
            node_moments=self.fold.monitor.node_moments,
            node_fleet_correlation=correlation,
            quantiles_w=self.fold.quantiles_w(),
            queue_high_watermark=queue_high_watermark,
            samples_ingested=self.samples_ingested,
            stopped_at_nodes=prefixes.stopped_at,
        )

    def _node_means(self) -> np.ndarray:
        """Each node's mean so far, in node order (none before data)."""
        if not self.samples_ingested:
            return np.empty(0)
        return np.asarray(self.fold.monitor.node_moments.mean)


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
) -> StreamSessionResult:
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

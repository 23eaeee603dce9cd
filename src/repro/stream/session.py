"""End-to-end streaming sessions: replay → estimate → monitor → stop.

:class:`FleetFold` is the per-node fold every route shares — the
compliance monitor, the node-vs-fleet covariance and the fleet power
quantiles, advanced one batch at a time against a per-tick fleet
series, with an exact node-order :meth:`FleetFold.concat` for shards.

:class:`LiveStreamState` is the incremental session core: one fold plus
the pooled fleet moments and the sequential stopping boundary, advanced
one :class:`~repro.stream.ingest.SampleBatch` at a time.  Two drivers
share it:

* :func:`stream_session` — the batch driver the ``repro stream`` CLI
  subcommand runs: replay a :class:`~repro.traces.synth.SimulatedRun`
  through the bounded-queue ingestion loop into one state.
* :mod:`repro.serve` — the multi-tenant telemetry service, which hosts
  one state per tenant session and feeds it batches POSTed over HTTP.

Because both paths push identical batches through the *same* update
code, a verdict served over the wire is bit-identical to the verdict a
direct :func:`stream_session` call computes — the property the
``tests/serve`` load suite locks.

The session is deterministic: the simulated tick clock is the only
time source, and all estimator state is a pure function of the replayed
samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.stream.estimators import P2Quantile, RunningCovariance, RunningMoments
from repro.stream.ingest import IngestLoop, SampleBatch, replay_run
from repro.stream.monitor import ComplianceMonitor, MonitorReport
from repro.stream.stopping import SequentialStopper, StoppingDecision
from repro.traces.synth import SimulatedRun

__all__ = [
    "FleetFold",
    "StreamSnapshot",
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
    Recovery is not part of the fold; drivers that repair gaps run their
    own :class:`~repro.faults.recovery.RecoveryPipeline` beside it.
    """

    __slots__ = ("monitor", "covar", "quantiles")

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
        self.covar = RunningCovariance()
        self.quantiles = {q: P2Quantile(q) for q in quantiles}

    def push(self, batch: SampleBatch, fleet_w: np.ndarray) -> None:
        """Fold one batch, judged against its per-tick fleet series."""
        self.monitor.observe(batch, fleet_w=fleet_w)
        for est in self.quantiles.values():
            est.push_batch(batch.watts)
        self.covar.push_batch(
            batch.watts, np.broadcast_to(fleet_w[:, None], batch.watts.shape)
        )

    def quantiles_w(self) -> dict[float, float]:
        """Current estimate of every tracked quantile."""
        return {q: est.value for q, est in self.quantiles.items()}

    @classmethod
    def concat(cls, parts: list["FleetFold"]) -> "FleetFold":
        """Reassemble node-ordered, node-partitioned folds.

        Monitor and covariance state is column-independent, so they
        concatenate exactly.  P² summaries cannot be sliced and their
        merge is approximate and not associative, so they always merge
        flat: a fresh estimator per quantile, then every part in order.
        """
        if not parts:
            raise ValueError("concat needs at least one part")
        qs = sorted(parts[0].quantiles)
        for i, part in enumerate(parts):
            if sorted(part.quantiles) != qs:
                raise ValueError(f"shard {i} tracked different quantiles")
        out = cls.__new__(cls)
        out.monitor = ComplianceMonitor.merge_shards(
            [p.monitor for p in parts]
        )
        out.covar = RunningCovariance.concat([p.covar for p in parts])
        out.quantiles = {}
        for q in qs:
            est = P2Quantile(q)
            for part in parts:
                est.merge(part.quantiles[q])
            out.quantiles[q] = est
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


@dataclass
class StreamSessionResult:
    """Everything a finished streaming session produced."""

    snapshots: list[StreamSnapshot]
    monitor_report: MonitorReport
    stopping: StoppingDecision
    fleet_moments: RunningMoments
    node_moments: RunningMoments
    node_fleet_correlation: float
    quantiles_w: dict[float, float]
    queue_stalls: int
    queue_high_watermark: int
    samples_ingested: int
    stopped_at_nodes: int | None = field(default=None)

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
            "node_fleet_correlation": self.node_fleet_correlation,
            "queue_stalls": self.queue_stalls,
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
            f"(queue stalls {self.queue_stalls}, "
            f"high-water {self.queue_high_watermark})"
        )
        lines.append(
            f"fleet per-node power: mean "
            f"{float(np.asarray(self.fleet_moments.mean)):.1f} W, "
            f"sd {float(np.asarray(self.fleet_moments.std())):.1f} W, "
            f"range [{float(np.asarray(self.fleet_moments.minimum)):.1f}, "
            f"{float(np.asarray(self.fleet_moments.maximum)):.1f}] W"
        )
        for q, v in self.quantiles_w.items():
            lines.append(f"  p{int(round(q * 100))}: {v:.1f} W")
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
    """Incremental estimator/monitor/stopper state, one batch at a time.

    The single source of truth for "what does the stream look like so
    far": every driver — the batch replay in :func:`stream_session`,
    the per-tenant sessions in :mod:`repro.serve` — pushes its batches
    through :meth:`push` and reads verdicts with :meth:`live_snapshot`
    / :meth:`result`, so identical batch streams always produce
    identical verdicts regardless of how the bytes arrived.

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
        Fleet power quantiles tracked by the fold's P² estimators.
    accuracy / confidence:
        Sequential stopping target (λ, 1 − α).
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
        if report_every_s <= 0:
            raise ValueError("report_every_s must be positive")
        self.fold = FleetFold(
            core_window,
            required_interval_s=required_interval_s,
            quantiles=quantiles,
        )
        self.fleet = RunningMoments()
        self.stopper = SequentialStopper(
            accuracy=accuracy,
            population=population,
            confidence=confidence,
            method="t",
        )
        self.snapshots: list[StreamSnapshot] = []
        self.report_every_s = float(report_every_s)
        self.samples_ingested = 0
        self.batches_ingested = 0
        self._next_report_s: float | None = None
        self._decision = self.stopper.evaluate()
        self._nodes_fed = 0
        self._finalized = False

    # ------------------------------------------------------------------
    @property
    def decision(self) -> StoppingDecision:
        """The latest sequential stopping decision."""
        return self._decision

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has run (no more pushes allowed)."""
        return self._finalized

    def push(self, batch: SampleBatch) -> None:
        """Ingest one batch: estimators, compliance, stopping."""
        if self._finalized:
            raise ValueError("cannot push into a finalized stream state")
        self.fold.push(batch, batch.fleet_means())
        self.fleet.push_batch(batch.watts.ravel())
        self.samples_ingested += batch.n_samples
        self.batches_ingested += 1

        # Sequential stopping: nodes "report in" one at a time as the
        # stream progresses — node k's running mean is admitted once
        # the stream has warmed up past k batches, modelling staggered
        # instrumentation roll-out across the fleet.
        node_means = np.asarray(self.fold.monitor.node_moments.mean)
        admitted = min(
            self._nodes_fed + max(1, batch.n_nodes // 8),
            node_means.size,
        )
        if admitted > self._nodes_fed:
            fresh = node_means[self._nodes_fed:admitted]
            self._decision = self.stopper.update_many(fresh)
            self._nodes_fed = admitted

        t_now = batch.t1_s
        if self._next_report_s is None:
            self._next_report_s = batch.t0_s + self.report_every_s
        while t_now >= self._next_report_s - 1e-9:
            self.snapshots.append(self.snapshot_at(t_now))
            self._next_report_s += self.report_every_s

    def snapshot_at(self, t_s: float) -> StreamSnapshot:
        """Build a snapshot of the current state, stamped ``t_s``."""
        report = self.fold.monitor.report()
        decision = self._decision
        have_sd = self.fleet.count >= 2
        node_means = np.asarray(self.fold.monitor.node_moments.mean)
        mu = float(node_means.mean())
        sd_nodes = (
            float(node_means.std(ddof=1)) if node_means.size > 1 else 0.0
        )
        return StreamSnapshot(
            t_s=float(t_s),
            samples_seen=self.fleet.count,
            fleet_mean_w=float(np.asarray(self.fleet.mean)),
            fleet_std_w=(
                float(np.asarray(self.fleet.std())) if have_sd else 0.0
            ),
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

    def live_snapshot(self) -> StreamSnapshot:
        """A snapshot stamped with the monitor's current stream time.

        Requires at least one ingested batch (an empty stream has no
        moments to snapshot — callers serving live queries should check
        :attr:`samples_ingested` first).
        """
        if self.samples_ingested == 0:
            raise ValueError("cannot snapshot an empty stream")
        return self.snapshot_at(self.fold.monitor.report().t_now_s)

    def finalize(self) -> StoppingDecision:
        """Close the stream: admit any not-yet-reported node means.

        Idempotent; after this :meth:`push` refuses further batches.
        """
        if self._finalized:
            return self._decision
        self._finalized = True
        if self.fold.monitor.samples_seen > 0:
            node_means = np.asarray(self.fold.monitor.node_moments.mean)
            if self._nodes_fed < node_means.size:
                self._decision = self.stopper.update_many(
                    node_means[self._nodes_fed:]
                )
                self._nodes_fed = node_means.size
        return self._decision

    def result(
        self,
        *,
        queue_stalls: int = 0,
        queue_high_watermark: int = 0,
        samples_ingested: int | None = None,
    ) -> StreamSessionResult:
        """Assemble the final :class:`StreamSessionResult`.

        Must run after :meth:`finalize`; queue statistics are the
        driver's to report (the replay loop's stalls, or a service
        session's high-water mark).
        """
        if not self._finalized:
            raise ValueError("finalize() the state before result()")
        if self.samples_ingested == 0:
            raise ValueError("cannot summarise an empty stream")
        final_monitor = self.fold.monitor.report()
        snapshots = list(self.snapshots)
        if not snapshots:
            snapshots.append(self.snapshot_at(final_monitor.t_now_s))
        try:
            correlation = float(
                np.mean(np.asarray(self.fold.covar.correlation()))
            )
        except ValueError:
            # Degenerate stream (a single tick, or constant readings):
            # the correlation is undefined, not zero — surface as NaN.
            correlation = float("nan")
        return StreamSessionResult(
            snapshots=snapshots,
            monitor_report=final_monitor,
            stopping=self._decision,
            fleet_moments=self.fleet,
            node_moments=self.fold.monitor.node_moments,
            node_fleet_correlation=correlation,
            quantiles_w=self.fold.quantiles_w(),
            queue_stalls=queue_stalls,
            queue_high_watermark=queue_high_watermark,
            samples_ingested=(
                self.samples_ingested
                if samples_ingested is None
                else samples_ingested
            ),
            stopped_at_nodes=self.stopper.stopped_at,
        )


def stream_session(
    run: SimulatedRun,
    *,
    node_indices: np.ndarray | None = None,
    ticks_per_batch: int = 60,
    quantiles: tuple[float, ...] = (0.5, 0.95),
    accuracy: float = 0.01,
    confidence: float = 0.95,
    report_every_s: float = 600.0,
    queue_capacity: int = 8,
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
        Fleet power quantiles tracked by P² estimators.
    accuracy / confidence:
        Sequential stopping target (λ, 1 − α).
    report_every_s:
        Snapshot cadence in simulated seconds.
    queue_capacity:
        Bounded ingest-queue depth (backpressure threshold).
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
    source = replay_run(
        run,
        node_indices=node_indices,
        ticks_per_batch=ticks_per_batch,
        core_only=core_only,
    )
    loop = IngestLoop(
        source, state.push, queue_capacity=queue_capacity
    ).run()
    state.finalize()
    return state.result(
        queue_stalls=loop.stalls,
        queue_high_watermark=loop.queue.high_watermark,
        samples_ingested=loop.samples_ingested,
    )

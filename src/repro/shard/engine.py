"""Sharded multiprocess ingest over contiguous node ranges.

The driver for the million-node hot path:

* :func:`fleet_reference` — tabulate the fleet's core-phase power rows
  once, then one vectorised streaming pass over them computing the
  global per-tick fleet mean.  Every shard judges covariance and
  excursion ratios against this *same* series, which is what makes the
  per-shard state the exact column slice of a full-fleet run's.
* :func:`run_shard` — the per-shard kernel: interpolate the shard's
  node columns from its slice of the fleet table (:func:`shard_rows`),
  feed each batch to the shared fold's one entry,
  :meth:`~repro.stream.monitor.ComplianceMonitor.observe`, and return
  the monitor, folded and picklable.
  The simulator's stream holds no NaN, dropped frame or quarantined
  node, so no recovery pipeline runs beside the fold.
* :func:`run_sharded` — fan the plan's shards over a ``fork`` worker
  pool (or run them inline when ``processes`` is 0, the deterministic
  default), then reduce by exact node-order concatenation.
* :func:`sharded_session` — the full-session entry point: the Eq. 1–5
  stopping decision every route shares
  (:meth:`~repro.stream.stopping.SequentialStopper.decide`), the merged
  :class:`MonitorReport` and the
  :class:`~repro.faults.quality.QualityReport`
  (:func:`~repro.faults.recovery.fold_quality_report` over the merged
  node moments) all rendered from merged shard state, bit-identical
  for any shard count.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.faults.quality import QualityReport
from repro.faults.recovery import fold_quality_report
from repro.shard.plan import ShardPlan, ShardSpec, plan_shards
from repro.shard.reduce import reduce_states
from repro.stream.estimators import QUANTILE_REL_ERROR, RunningMoments
from repro.stream.monitor import ComplianceMonitor, MonitorReport
from repro.stream.stopping import SequentialStopper, StoppingDecision
from repro.traces.synth import SimulatedRun

__all__ = [
    "RowTable",
    "fleet_reference",
    "run_shard",
    "run_sharded",
    "shard_rows",
    "ShardSessionResult",
    "sharded_session",
]


@dataclass(frozen=True)
class RowTable:
    """Core-phase power rows for the nodes ``[node_lo, node_hi)``.

    ``(grid, pos, w)`` is a
    :meth:`~repro.traces.synth.SimulatedRun._level_grids` table
    tabulated over the ``in_span`` tick mask: ``grid`` is R × the node
    count, column ``j`` being node ``node_lo + j``, and ``pos``/``w``
    hold one entry per tick of the span.
    """

    node_lo: int
    node_hi: int
    in_span: np.ndarray
    grid: np.ndarray
    pos: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.shape[1] != self.node_hi - self.node_lo:
            raise ValueError(
                f"grid has {self.grid.shape[1]} columns for nodes "
                f"[{self.node_lo}, {self.node_hi})"
            )
        n_ticks = np.count_nonzero(self.in_span)
        if not self.pos.size == self.w.size == n_ticks:
            raise ValueError("pos and w must hold one entry per span tick")


def fleet_reference(
    run: SimulatedRun, *, ticks_per_batch: int = 60
) -> tuple[np.ndarray, RowTable]:
    """Tabulate the fleet once; return its per-tick mean and the table.

    Tabulates the core phase's bracketing power rows for every node, a
    :class:`RowTable` whose ``grid`` is R × ``n_nodes`` (a handful of
    rows per frequency level at 1 Hz; see
    :meth:`~repro.traces.synth.SimulatedRun.stream_run`), then streams
    the whole fleet from it and keeps only the across-node mean of each
    tick.  Returns ``(reference_w, table)``:
    :func:`run_sharded` hands each shard its column slice of ``table``
    (:func:`shard_rows`), so the fleet is tabulated once per session,
    and the table lives until the last shard has run.  The means are
    bit-identical to the ``batch.fleet_means()`` a serial session
    computes, so a shard pushing ratios or covariance against this
    series reproduces the serial arithmetic exactly.
    """
    n_nodes = run.system.n_nodes
    ids = np.arange(n_nodes, dtype=np.int64)
    in_core = run._in_span(*run.core_window)
    table = RowTable(0, n_nodes, in_core, *run._level_grids(ids, in_core))
    chunks = [
        batch.fleet_means()
        for batch in run._stream_rows(
            (table.grid, table.pos, table.w), ids, in_core,
            ticks_per_batch=ticks_per_batch,
        )
    ]
    return np.concatenate(chunks), table


def shard_rows(table: RowTable, spec: ShardSpec) -> RowTable:
    """A shard's column slice of a :func:`fleet_reference` table."""
    if not table.node_lo <= spec.node_lo < spec.node_hi <= table.node_hi:
        raise ValueError(
            f"shard nodes [{spec.node_lo}, {spec.node_hi}) are outside "
            f"the table's [{table.node_lo}, {table.node_hi})"
        )
    lo, hi = spec.node_lo - table.node_lo, spec.node_hi - table.node_lo
    return RowTable(
        spec.node_lo, spec.node_hi, table.in_span,
        table.grid[:, lo:hi], table.pos, table.w,
    )


def run_shard(
    run: SimulatedRun,
    spec: ShardSpec,
    rows: RowTable,
    *,
    ticks_per_batch: int,
    reference_w: np.ndarray,
) -> ComplianceMonitor:
    """Run the full per-shard kernel over one contiguous node range.

    This is the unit of work a pool worker executes — and the unit the
    shard benchmark times.  ``rows`` is the shard's column slice of the
    :func:`fleet_reference` table (:func:`shard_rows`); the kernel
    interpolates from it and tabulates nothing.  ``reference_w`` is the
    :func:`fleet_reference` series; its length must match the shard's
    tick count.
    """
    if (rows.node_lo, rows.node_hi) != (spec.node_lo, spec.node_hi):
        raise ValueError(
            f"row table covers nodes [{rows.node_lo}, {rows.node_hi}) "
            f"but the shard covers [{spec.node_lo}, {spec.node_hi})"
        )
    fold = ComplianceMonitor(
        run.core_window, required_interval_s=max(run.dt, 1.0)
    )
    ticks_seen = 0
    for batch in run._stream_rows(
        (rows.grid, rows.pos, rows.w), spec.node_indices, rows.in_span,
        ticks_per_batch=ticks_per_batch,
    ):
        n_t = batch.n_ticks
        if ticks_seen + n_t > reference_w.size:
            raise ValueError(
                "reference series shorter than the shard's tick stream"
            )
        fold.observe(batch, reference_w[ticks_seen : ticks_seen + n_t])
        ticks_seen += n_t
    if ticks_seen != reference_w.size:
        raise ValueError(
            f"shard saw {ticks_seen} ticks but the reference series has "
            f"{reference_w.size}"
        )
    # The shard's work ends here: its rows are folded before the fold
    # leaves, not by whoever reads it (a pool worker's parent, say).
    fold.flush()
    return fold


def run_sharded(
    run: SimulatedRun,
    plan: ShardPlan,
    *,
    processes: int = 0,
) -> ComplianceMonitor:
    """Execute every shard of a plan and reduce to the fleet fold.

    ``processes`` is the worker-pool width: 0 (the default) runs every
    shard inline in this process — still through the identical kernel,
    so results are bit-identical either way; ``>= 2`` fans shards over
    a ``fork`` multiprocessing pool (falling back to inline where fork
    is unavailable).  The fleet is tabulated once, by
    :func:`fleet_reference`; each task carries only its shard's column
    slice of that table.
    """
    if plan.n_nodes != run.system.n_nodes:
        raise ValueError(
            f"plan covers {plan.n_nodes} nodes but the run has "
            f"{run.system.n_nodes}"
        )
    if processes < 0:
        raise ValueError("processes must be >= 0")
    use_pool = (
        processes >= 2
        and plan.n_shards >= 2
        and "fork" in multiprocessing.get_all_start_methods()
    )
    reference_w, table = fleet_reference(
        run, ticks_per_batch=plan.ticks_per_batch
    )
    work = functools.partial(
        run_shard,
        run,
        ticks_per_batch=plan.ticks_per_batch,
        reference_w=reference_w,
    )
    tasks = [(spec, shard_rows(table, spec)) for spec in plan]
    if use_pool:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(processes, plan.n_shards)) as pool:
            folds = pool.starmap(work, tasks)
    else:
        folds = [work(*task) for task in tasks]
    return reduce_states(folds, plan)


@dataclass
class ShardSessionResult:
    """A finished sharded session: fleet statistics plus provenance."""

    plan: ShardPlan
    monitor_report: MonitorReport
    stopping: StoppingDecision
    quality: QualityReport
    node_moments: RunningMoments
    node_fleet_correlation: float
    quantiles_w: dict[float, float]
    samples_ingested: int

    @property
    def fleet_moments(self) -> RunningMoments:
        """Pooled moments over every node's every sample."""
        return self.node_moments.pooled()

    def to_dict(self) -> dict:
        """JSON-friendly rendering of the final state."""
        pooled = self.fleet_moments
        return {
            "n_shards": self.plan.n_shards,
            "samples_ingested": self.samples_ingested,
            "fleet_mean_w": float(np.asarray(pooled.mean)),
            "fleet_std_w": float(np.asarray(pooled.std())),
            "quantiles_w": {
                f"{q:g}": v for q, v in self.quantiles_w.items()
            },
            "quantile_rel_error": QUANTILE_REL_ERROR,
            "node_fleet_correlation": self.node_fleet_correlation,
            "stopping": self.stopping.to_dict(),
            "monitor": self.monitor_report.to_dict(),
            "quality": self.quality.to_dict(),
        }

    def render_text(self) -> str:
        """Plain-text session summary."""
        lines = [
            f"== sharded session ({self.plan.n_shards} shards, "
            f"{self.plan.n_nodes} nodes) ==",
            f"samples ingested: {self.samples_ingested}",
            f"fleet per-node power: mean "
            f"{float(np.asarray(self.fleet_moments.mean)):.1f} W, "
            f"sd {float(np.asarray(self.fleet_moments.std())):.1f} W",
        ]
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
        lam = (
            f"{d.achieved_lambda:.2%}"
            if np.isfinite(d.achieved_lambda)
            else "inf"
        )
        lines.append(
            f"sequential stopping: target {verdict} at n={d.n_observed} "
            f"nodes (achieved lambda {lam})"
        )
        lines.append(
            f"quality: coverage {self.quality.effective_coverage:.1%}, "
            f"effective level L{self.quality.effective_level}"
        )
        return "\n".join(lines)


def sharded_session(
    run: SimulatedRun,
    *,
    n_shards: int = 1,
    ticks_per_batch: int = 60,
    accuracy: float = 0.01,
    confidence: float = 0.95,
    processes: int = 0,
) -> ShardSessionResult:
    """Run a full streaming session through the shard engine.

    The sharded counterpart of
    :func:`~repro.stream.session.stream_session`: the same Eq. 1–5
    stopping decision
    (:meth:`~repro.stream.stopping.SequentialStopper.decide` over the
    merged node means), compliance monitoring and quality labelling,
    evaluated over merged shard state, so its verdict equals a stream
    session's over the same run.  The result is **bit-identical
    for any ``n_shards``** — the per-node reductions are exact
    concatenations, the quantile sketches merge by integer count
    addition, and every fleet scalar derives from the merged vectors by
    the same deterministic expressions.
    """
    plan = plan_shards(
        run.system.n_nodes, n_shards, ticks_per_batch=ticks_per_batch
    )
    fleet = run_sharded(run, plan, processes=processes)
    return ShardSessionResult(
        plan=plan,
        monitor_report=fleet.report(),
        stopping=SequentialStopper.decide(
            fleet.node_moments.mean,
            accuracy=accuracy,
            population=run.system.n_nodes,
            confidence=confidence,
        ),
        quality=fold_quality_report(
            fleet.node_moments,
            cells_folded=fleet.samples_seen,
            cells_written_off=0,
            original_level=2,
        ),
        node_moments=fleet.node_moments,
        node_fleet_correlation=fleet.mean_correlation(),
        quantiles_w=fleet.quantiles_w(),
        samples_ingested=fleet.samples_seen,
    )

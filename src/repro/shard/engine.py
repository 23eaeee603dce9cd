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
* :func:`sharded_session` — the full-session entry point: the merged
  fold as the :class:`~repro.stream.session.SessionResult` every route
  returns, with the shard count and the
  :class:`~repro.faults.quality.QualityReport`
  (:func:`~repro.faults.recovery.fold_quality_report` over the merged
  node moments) as its provenance, bit-identical for any shard count.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.faults.recovery import fold_quality_report
from repro.shard.plan import ShardPlan, ShardSpec, plan_shards
from repro.shard.reduce import reduce_states
from repro.stream.monitor import ComplianceMonitor
from repro.stream.session import SessionResult
from repro.traces.synth import SimulatedRun

__all__ = [
    "RowTable",
    "fleet_reference",
    "run_shard",
    "run_sharded",
    "shard_rows",
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


def sharded_session(
    run: SimulatedRun,
    *,
    n_shards: int = 1,
    ticks_per_batch: int = 60,
    accuracy: float = 0.01,
    confidence: float = 0.95,
    processes: int = 0,
) -> SessionResult:
    """Run a full streaming session through the shard engine.

    The sharded counterpart of
    :func:`~repro.stream.session.stream_session`: the merged fold is
    rendered by the same :class:`~repro.stream.session.SessionResult`,
    with the same Eq. 1–5 stopping rule, so its verdict equals a stream
    session's over the same run.  It declares ``n_shards`` and its
    ``quality`` label as provenance.  The result is **bit-identical
    for any ``n_shards``** — the per-node reductions are exact
    concatenations, the quantile sketches merge by integer count
    addition, and every fleet scalar derives from the merged vectors by
    the same deterministic expressions.
    """
    plan = plan_shards(
        run.system.n_nodes, n_shards, ticks_per_batch=ticks_per_batch
    )
    fleet = run_sharded(run, plan, processes=processes)
    rule = dict(
        accuracy=accuracy, population=run.system.n_nodes,
        confidence=confidence,
    )
    return SessionResult.of(fleet, rule, provenance={
        "n_shards": plan.n_shards,
        "quality": fold_quality_report(
            fleet.node_moments,
            cells_folded=fleet.samples_seen,
            cells_written_off=0,
            original_level=2,
        ),
    })

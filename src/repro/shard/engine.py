"""Sharded multiprocess ingest over contiguous node ranges.

The driver for the million-node hot path:

* :func:`fleet_reference` — one vectorised streaming pass computing the
  global per-tick fleet mean.  Every shard judges covariance and
  excursion ratios against this *same* series, which is what makes the
  per-shard state the exact column slice of a full-fleet run's.
* :func:`run_shard` — the per-shard kernel: synthesize the shard's node
  columns straight into a :class:`~repro.shard.slab.SlabRing` (zero
  copies, no per-batch allocation), feed the shared
  :class:`~repro.stream.session.FleetFold`, and return it as a
  picklable :class:`~repro.shard.reduce.ShardState`.  The simulator's
  stream holds no NaN, dropped frame or quarantined node, so no
  recovery pipeline runs beside the fold.
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
from repro.shard.reduce import FleetState, ShardState, reduce_states
from repro.shard.slab import SlabRing
from repro.stream.estimators import QUANTILE_REL_ERROR, RunningMoments
from repro.stream.monitor import MonitorReport
from repro.stream.session import FleetFold
from repro.stream.stopping import SequentialStopper, StoppingDecision
from repro.traces.synth import SimulatedRun

__all__ = [
    "fleet_reference",
    "run_shard",
    "run_sharded",
    "ShardSessionResult",
    "sharded_session",
]


def fleet_reference(
    run: SimulatedRun, *, ticks_per_batch: int = 60
) -> np.ndarray:
    """The global per-tick fleet mean power, computed in one pass.

    Streams the whole fleet's core phase through
    :meth:`~repro.traces.synth.SimulatedRun.stream_run` (slab-backed,
    never materialising the run) and keeps only the across-node mean of
    each tick — O(n_ticks) memory.  The values are bit-identical to the
    ``batch.fleet_means()`` a serial session computes, so a shard
    pushing ratios or covariance against this series reproduces the
    serial arithmetic exactly.
    """
    ring = SlabRing(ticks_per_batch, run.system.n_nodes)
    chunks = [
        batch.fleet_means()
        for batch in run.stream_run(ticks_per_batch=ticks_per_batch, ring=ring)
    ]
    return np.concatenate(chunks)


def run_shard(
    run: SimulatedRun,
    spec: ShardSpec,
    *,
    ticks_per_batch: int,
    reference_w: np.ndarray,
) -> ShardState:
    """Run the full per-shard kernel over one contiguous node range.

    This is the unit of work a pool worker executes — and the unit the
    shard benchmark times.  ``reference_w`` is the
    :func:`fleet_reference` series; its length must match the shard's
    tick count.
    """
    ring = SlabRing(ticks_per_batch, spec.n_nodes)
    fold = FleetFold(run.core_window, required_interval_s=max(run.dt, 1.0))
    ticks_seen = 0
    for batch in run.stream_run(
        node_indices=spec.node_indices,
        ticks_per_batch=ticks_per_batch,
        ring=ring,
    ):
        n_t = batch.n_ticks
        if ticks_seen + n_t > reference_w.size:
            raise ValueError(
                "reference series shorter than the shard's tick stream"
            )
        fold.push(batch, reference_w[ticks_seen : ticks_seen + n_t])
        ticks_seen += n_t
    if ticks_seen != reference_w.size:
        raise ValueError(
            f"shard saw {ticks_seen} ticks but the reference series has "
            f"{reference_w.size}"
        )
    return ShardState(spec=spec, fold=fold)


def run_sharded(
    run: SimulatedRun,
    plan: ShardPlan,
    *,
    processes: int = 0,
) -> FleetState:
    """Execute every shard of a plan and reduce to the fleet state.

    ``processes`` is the worker-pool width: 0 (the default) runs every
    shard inline in this process — still through the identical kernel,
    so results are bit-identical either way; ``>= 2`` fans shards over
    a ``fork`` multiprocessing pool (falling back to inline where fork
    is unavailable).
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
    work = functools.partial(
        run_shard,
        run,
        ticks_per_batch=plan.ticks_per_batch,
        reference_w=fleet_reference(run, ticks_per_batch=plan.ticks_per_batch),
    )
    if use_pool:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(processes, plan.n_shards)) as pool:
            states = pool.map(work, plan.shards)
    else:
        states = [work(spec) for spec in plan]
    return reduce_states(states, plan)


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
        monitor_report=fleet.fold.monitor.report(),
        stopping=SequentialStopper.decide(
            fleet.node_moments.mean,
            accuracy=accuracy,
            population=run.system.n_nodes,
            confidence=confidence,
        ),
        quality=fold_quality_report(
            fleet.node_moments,
            cells_folded=fleet.samples_ingested,
            cells_written_off=0,
            original_level=2,
        ),
        node_moments=fleet.node_moments,
        node_fleet_correlation=float(np.mean(fleet.fold.correlation())),
        quantiles_w=fleet.fold.quantiles_w(),
        samples_ingested=fleet.samples_ingested,
    )

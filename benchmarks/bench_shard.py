"""Shard engine benchmark — zero-copy streaming and shard scaling.

Two questions the million-node hot path must answer with numbers:

* what does the zero-copy slab path (:meth:`SimulatedRun.stream_run`
  into a :class:`SlabRing`) save over the materialise-then-slice
  replay of the same kernel?
* how does the per-shard critical path shrink as the fleet is split —
  i.e. what aggregate throughput would ``k`` cores reach?

This VM has a single core, so shards execute sequentially and the
*elapsed* time cannot show a speedup; the scaling evidence is the
**critical path** (the slowest single shard), which is what bounds
wall-clock on a ``k``-core machine.  ``extra_info`` records the
machine's core count and the per-shard times so a multi-core rerun can
be compared honestly (see docs/sharding.md).

Like the fault bench, no timing is reported unless the sharded states
reduce to bit-identical fleet statistics — the exactness audit rides
inside the benchmark.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.report import Table
from repro.cluster.components import CpuModel, DramModel, FanModel
from repro.cluster.node import NodeConfig
from repro.cluster.system import SystemModel
from repro.cluster.thermal import FanController
from repro.cluster.variability import ManufacturingVariation
from repro.shard.engine import fleet_reference, run_shard
from repro.shard.plan import plan_shards
from repro.shard.reduce import reduce_states
from repro.stream.ingest import SampleBatch
from repro.stream.session import FleetFold
from repro.traces.synth import SimulatedRun, simulate_run
from repro.workloads.hpl import HplWorkload

_N_NODES = 1024
_DT_S = 1.0
_CORE_S = 600.0
_TICKS_PER_BATCH = 60
_SHARD_COUNTS = (1, 2, 4, 8)


def _make_run() -> SimulatedRun:
    config = NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        dram=DramModel.for_capacity(64.0),
        fan=FanModel(max_watts=60.0),
        other_watts=25.0,
    )
    system = SystemModel(
        "bench-shard",
        _N_NODES,
        config,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(
            fan_model=config.fan, reference_watts=400.0
        ),
        seed=41,
    )
    workload = HplWorkload.cpu_out_of_core(
        _CORE_S, setup_s=30.0, teardown_s=15.0
    )
    return simulate_run(system, workload, dt=_DT_S, seed=2015)


def _materialised_pass(run: SimulatedRun) -> tuple[float, int]:
    """The old path: materialise the full matrix, slice, copy, feed."""
    t0 = time.perf_counter()
    lo_s, hi_s = run.core_window
    times, watts = run.node_power_matrix(lo_s, hi_s)
    ids = np.arange(run.system.n_nodes, dtype=np.int64)
    fold = FleetFold(run.core_window, required_interval_s=max(run.dt, 1.0))
    for lo in range(0, times.size, _TICKS_PER_BATCH):
        hi = min(lo + _TICKS_PER_BATCH, times.size)
        batch = SampleBatch(
            times=times[lo:hi].copy(),
            watts=watts[lo:hi].copy(),
            node_ids=ids,
        )
        fold.push(batch, batch.fleet_means())
    elapsed = time.perf_counter() - t0
    return elapsed, times.size * run.system.n_nodes


def _sharded_pass(run: SimulatedRun, n_shards: int, reference_w):
    """Time every shard kernel; return (states, per-shard seconds)."""
    plan = plan_shards(
        run.system.n_nodes, n_shards, ticks_per_batch=_TICKS_PER_BATCH
    )
    states, shard_s = [], []
    for spec in plan:
        t0 = time.perf_counter()
        states.append(
            run_shard(
                run,
                spec,
                ticks_per_batch=_TICKS_PER_BATCH,
                reference_w=reference_w,
            )
        )
        shard_s.append(time.perf_counter() - t0)
    return plan, states, shard_s


def _sweep():
    run = _make_run()
    mat_s, n_samples = _materialised_pass(run)

    t0 = time.perf_counter()
    reference_w = fleet_reference(
        run, ticks_per_batch=_TICKS_PER_BATCH
    )
    reference_s = time.perf_counter() - t0

    rows = []
    node_means = None
    for k in _SHARD_COUNTS:
        plan, states, shard_s = _sharded_pass(run, k, reference_w)
        fleet = reduce_states(states, plan)
        means = np.asarray(fleet.node_moments.mean)
        if node_means is None:
            node_means = means
        elif not np.array_equal(means, node_means):
            raise AssertionError(
                f"{k}-shard reduction diverged from serial — refusing "
                "to report a timing for a broken kernel"
            )
        rows.append((k, sum(shard_s), max(shard_s), shard_s))
    return mat_s, reference_s, n_samples, rows


def bench_shard_scaling(benchmark, report_sink):
    mat_s, reference_s, n_samples, rows = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )
    serial_s = rows[0][1]

    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["n_nodes"] = _N_NODES
    benchmark.extra_info["n_samples"] = n_samples
    benchmark.extra_info["shard_counts"] = list(_SHARD_COUNTS)
    benchmark.extra_info["materialised_s"] = mat_s
    benchmark.extra_info["fleet_reference_s"] = reference_s
    benchmark.extra_info["per_shard_s"] = {
        str(k): shard_s for k, _, _, shard_s in rows
    }
    benchmark.extra_info["critical_path_s"] = {
        str(k): max_s for k, _, max_s, _ in rows
    }
    benchmark.extra_info["note"] = (
        "single-core host: scaling evidence is the per-shard critical "
        "path, which bounds wall-clock at k workers"
    )

    t = Table(
        ["shards", "sum (s)", "critical path (s)",
         "projected samples/s", "speedup bound"],
        title=(
            f"shard scaling — {_N_NODES} nodes, "
            f"{n_samples:,} samples, cpu_count={os.cpu_count()}"
        ),
    )
    for k, total_s, max_s, _ in rows:
        t.add_row(
            [
                f"{k}",
                f"{total_s:.3f}",
                f"{max_s:.3f}",
                f"{n_samples / max_s:,.0f}",
                f"{serial_s / max_s:.2f}x",
            ]
        )
    t.add_row(
        ["materialised", f"{mat_s:.3f}", f"{mat_s:.3f}",
         f"{n_samples / mat_s:,.0f}", "baseline"]
    )
    report_sink("shard scaling", t.render())

    # Linear-scaling gate: at 8 shards the critical path must be well
    # over 4x shorter than the serial pass (measured 5.5x on the
    # committed run; the gate leaves headroom for timer noise on a
    # loaded box while still catching any real scaling regression).
    max_8 = next(max_s for k, _, max_s, _ in rows if k == 8)
    assert serial_s / max_8 >= 4.0, (
        f"8-way critical path only {serial_s / max_8:.2f}x shorter "
        "than serial"
    )

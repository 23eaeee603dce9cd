"""One fleet power table per sharded session.

``fleet_reference`` tabulates the core phase's bracketing rows for every
node once; each shard interpolates from its column slice of that table.
These tests count the tabulation and hold every shard's folded state to
the kernel that tabulated its own columns, byte for byte.
"""

from __future__ import annotations

import functools
import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.components import CpuModel, DramModel, FanModel, GpuModel
from repro.cluster.dvfs import DvfsGovernor
from repro.cluster.node import NodeConfig
from repro.cluster.system import SystemModel
from repro.cluster.thermal import FanController
from repro.cluster.variability import ManufacturingVariation
from repro.shard.engine import (
    fleet_reference,
    run_shard,
    shard_rows,
    sharded_session,
)
from repro.shard.plan import ShardPlan, ShardSpec
from repro.stream.ingest import SampleBatch
from repro.stream.monitor import ComplianceMonitor
from repro.traces import synth
from repro.workloads.hpl import HplWorkload

_G = 129  # the utilisation grid of repro.traces.synth


def _bracketing_rows(run) -> int:
    """How many grid rows the core phase's ticks bracket, over all
    frequency levels: the rows one fleet tabulation takes."""
    in_core = run._in_span(*run.core_window)
    u_grid = np.linspace(0.0, 1.0, _G)
    cell = np.clip(np.searchsorted(u_grid, run._util[in_core]) - 1, 0, _G - 2)
    mult = (
        np.ones(cell.size) if run._freq_mult is None
        else run._freq_mult[in_core]
    )
    return sum(
        np.union1d(cell[mult == m], cell[mult == m] + 1).size
        for m in np.unique(mult)
    )


class TestOneTabulation:
    @pytest.mark.parametrize("processes", [0, 2])
    @pytest.mark.parametrize("n_shards", [1, 3, 8])
    def test_session_tabulates_the_fleet_once(
        self, tiny_run, monkeypatch, n_shards, processes
    ):
        # Shared memory, so rows tabulated in a fork worker count too.
        ctx = multiprocessing.get_context("fork")
        rows = ctx.Value("q", 0)
        cells = ctx.Value("q", 0)
        real = SystemModel.node_total_power_grid

        def spy(self, utilisation, **kwargs):
            block = real(self, utilisation, **kwargs)
            with rows.get_lock():
                rows.value += block.shape[0]
                cells.value += block.size
            return block

        monkeypatch.setattr(SystemModel, "node_total_power_grid", spy)
        sharded_session(
            tiny_run, n_shards=n_shards, ticks_per_batch=16,
            processes=processes,
        )
        want = _bracketing_rows(tiny_run)
        assert rows.value == want
        assert cells.value == want * tiny_run.system.n_nodes


def _tiny_system(seed: int, *, gpu: bool) -> SystemModel:
    config = NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=1,
        gpu=GpuModel(idle_watts=18.0, peak_watts=220.0) if gpu else None,
        n_gpus=2 if gpu else 0,
        dram=DramModel.for_capacity(16.0),
        fan=FanModel(max_watts=60.0 if gpu else 30.0),
        other_watts=10.0,
    )
    return SystemModel(
        f"table-{'gpu' if gpu else 'cpu'}",
        9,
        config,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(
            fan_model=config.fan, reference_watts=600.0 if gpu else 200.0
        ),
        seed=seed,
    )


@functools.lru_cache(maxsize=None)
def _run(kind: str):
    """Ungoverned CPU, DVFS-governed CPU (three frequency levels) and
    in-core GPU (a tail-off that brackets many rows)."""
    if kind == "gpu":
        workload = HplWorkload.gpu_in_core(
            300.0, setup_s=20.0, teardown_s=10.0
        )
        return synth.simulate_run(
            _tiny_system(31, gpu=True), workload, dt=2.0, seed=3
        )
    workload = HplWorkload.cpu_out_of_core(
        120.0, setup_s=20.0, teardown_s=10.0
    )
    governor = (
        DvfsGovernor.stepped([0.3, 0.6], [1.0, 0.8, 0.9])
        if kind == "governed" else None
    )
    return synth.simulate_run(
        _tiny_system(32, gpu=False), workload, dt=2.0, seed=4,
        governor=governor,
    )


def _parent_reference(run, ticks_per_batch: int) -> np.ndarray:
    """The fleet mean series as the whole-fleet stream yields it."""
    return np.concatenate([
        batch.fleet_means()
        for batch in run.stream_run(ticks_per_batch=ticks_per_batch)
    ])


def _parent_run_shard(run, spec, *, ticks_per_batch, reference_w):
    """The shard kernel that tabulated its own node columns: the shard
    kernel and the stream it drove, before the fleet table."""
    idx = spec.node_indices
    in_core = run._in_span(*run.core_window)
    grid, pos, w = run._level_grids(idx, in_core)
    times, noise = run._times[in_core], run._noise[in_core]
    fold = ComplianceMonitor(
        run.core_window, required_interval_s=max(run.dt, 1.0)
    )
    scratch = np.empty((min(ticks_per_batch, times.size), idx.size))
    for lo in range(0, times.size, ticks_per_batch):
        hi = min(lo + ticks_per_batch, times.size)
        n_t = hi - lo
        out = np.empty((n_t, idx.size))
        synth._interpolate(grid, pos[lo:hi], w[lo:hi], out, scratch[:n_t])
        out *= noise[lo:hi, None]
        batch = SampleBatch(times=times[lo:hi], watts=out, node_ids=idx)
        fold.observe(batch, reference_w[lo:hi])
    fold.flush()
    return fold


def _state(obj):
    """Every field of an object, nested estimators included, as exact
    bytes (arrays, numpy scalars) or reprs."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, np.generic):
        return (type(obj).__name__, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return tuple(_state(item) for item in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return repr(obj)
    names = getattr(type(obj), "__slots__", None) or sorted(vars(obj))
    return (
        type(obj).__name__,
        tuple((name, _state(getattr(obj, name))) for name in names),
    )


def _plan(cuts, n_nodes: int, ticks_per_batch: int) -> ShardPlan:
    bounds = [0, *sorted(cuts), n_nodes]
    k = len(bounds) - 1
    return ShardPlan(
        n_nodes=n_nodes,
        ticks_per_batch=ticks_per_batch,
        shards=tuple(
            ShardSpec(i, k, bounds[i], bounds[i + 1]) for i in range(k)
        ),
    )


class TestShardFromTheFleetTable:
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @example(kind="governed", cuts=set(range(1, 9)), ticks=1)
    @example(kind="gpu", cuts={4}, ticks="over")
    @example(kind="cpu", cuts=set(), ticks=1)
    @given(
        kind=st.sampled_from(["cpu", "governed", "gpu"]),
        cuts=st.sets(st.integers(1, 8), max_size=8),
        ticks=st.one_of(st.sampled_from([1, "over"]), st.integers(2, 40)),
    )
    def test_every_shard_folds_the_bits_of_its_own_tabulation(
        self, kind, cuts, ticks
    ):
        run = _run(kind)
        n_ticks = int(run._in_span(*run.core_window).sum())
        tpb = n_ticks + 3 if ticks == "over" else ticks
        plan = _plan(cuts, run.system.n_nodes, tpb)
        reference_w, rows = fleet_reference(run, ticks_per_batch=tpb)
        parent_w = _parent_reference(run, tpb)
        assert reference_w.tobytes() == parent_w.tobytes()
        for spec in plan:
            got = run_shard(
                run, spec, shard_rows(rows, spec),
                ticks_per_batch=tpb, reference_w=reference_w,
            )
            want = _parent_run_shard(
                run, spec, ticks_per_batch=tpb, reference_w=parent_w
            )
            assert _state(got) == _state(want), spec

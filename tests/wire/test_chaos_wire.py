"""Wire chaos harness tests: inject, recover, reconcile, bound, label."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.recovery import GAP_POLICIES
from repro.wire.chaos import WireScenario, run_wire_chaos
from repro.wire.codecs import available_codecs
from repro.wire.frontier import frontier_cell, wire_frontier

LOSSY = WireScenario(
    name="lossy", codec="delta-varint", drop_rate=0.15, corrupt_rate=0.15
)


@pytest.fixture(scope="module")
def run():
    # Module-scoped (the conftest fixtures are function-scoped) so one
    # simulated run feeds every wire chaos trial here.
    from repro.cluster.components import CpuModel, DramModel, FanModel, GpuModel
    from repro.cluster.node import NodeConfig
    from repro.cluster.system import SystemModel
    from repro.cluster.thermal import FanController
    from repro.cluster.variability import ManufacturingVariation
    from repro.traces.synth import simulate_run
    from repro.workloads.base import ConstantWorkload

    config = NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        gpu=GpuModel(idle_watts=18.0, peak_watts=220.0),
        n_gpus=4,
        dram=DramModel.for_capacity(128.0),
        fan=FanModel(max_watts=150.0),
        other_watts=30.0,
    )
    system = SystemModel(
        "test-gpu",
        16,
        config,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(
            fan_model=config.fan, reference_watts=1000.0
        ),
        seed=78,
    )
    workload = ConstantWorkload(utilisation=0.95, core_s=400.0)
    return simulate_run(system, workload, dt=2.0, seed=5)


@pytest.fixture(scope="module")
def lossy_outcome(run):
    return run_wire_chaos(
        run,
        LOSSY,
        seed=17,
        node_indices=np.arange(8),
        ticks_per_batch=10,
    )


class TestLossyScenario:
    def test_reconciles_exactly_and_stays_in_bounds(self, lossy_outcome):
        out = lossy_outcome
        assert out.reconciled, out.reconciliation
        assert out.mean_within_bound
        assert out.cv_within_bound
        assert out.ok()

    def test_injects_real_loss(self, lossy_outcome):
        assert lossy_outcome.ledger.frames_lost > 0
        assert lossy_outcome.report.downgraded()

    def test_report_carries_the_wire_provenance(self, lossy_outcome):
        rep = lossy_outcome.report
        assert rep.codec == "delta-varint"
        assert rep.codec_error_bound_w == pytest.approx(0.0005)
        assert rep.frames_dropped == lossy_outcome.ledger.frames_dropped
        assert rep.frames_corrupt == lossy_outcome.ledger.frames_corrupted

    def test_is_bit_deterministic(self, run, lossy_outcome):
        again = run_wire_chaos(
            run,
            LOSSY,
            seed=17,
            node_indices=np.arange(8),
            ticks_per_batch=10,
        )
        assert again.to_dict() == lossy_outcome.to_dict()

    def test_every_gap_policy_reconciles(self, run):
        for policy in GAP_POLICIES:
            out = run_wire_chaos(
                run,
                LOSSY,
                seed=17,
                gap_policy=policy,
                node_indices=np.arange(8),
                ticks_per_batch=10,
            )
            assert out.ok(), (policy, out.reconciliation)


class TestEveryCodec:
    @pytest.mark.parametrize("codec", available_codecs())
    def test_reconciles_under_loss(self, run, codec):
        scenario = WireScenario(
            name=f"{codec}-loss",
            codec=codec,
            drop_rate=0.1,
            corrupt_rate=0.1,
        )
        out = run_wire_chaos(
            run,
            scenario,
            seed=23,
            node_indices=np.arange(8),
            ticks_per_batch=10,
        )
        assert out.ok(), (codec, out.reconciliation)


class TestQuantileCaveat:
    def test_no_quantiles_no_note(self, lossy_outcome):
        # The harness tracks no quantiles, so it stamps no merge caveat.
        assert lossy_outcome.report.notes == ()


class TestFrontier:
    def test_cell_projection_is_consistent(self, run):
        cell = frontier_cell(
            run,
            LOSSY,
            seed=17,
            node_indices=np.arange(8),
            ticks_per_batch=10,
        )
        assert cell.codec == "delta-varint"
        assert cell.frames_lost <= cell.frames_sent
        assert cell.node_bps == pytest.approx(
            cell.bytes_per_sample / float(run.dt)
        )
        assert cell.reconciled and cell.within_bounds
        assert cell.verdict_flipped == (cell.frames_lost > 0)
        assert cell.required_n_drift == (
            cell.required_n_degraded - cell.required_n_clean
        )

    def test_sweep_covers_the_grid_in_codec_major_order(self, run):
        cells = wire_frontier(
            run,
            codecs=("raw64", "quant8"),
            rates=((0.0, 0.0), (0.2, 0.0)),
            seed=7,
            node_indices=np.arange(8),
            ticks_per_batch=10,
        )
        assert [(c.codec, c.drop_rate) for c in cells] == [
            ("raw64", 0.0),
            ("raw64", 0.2),
            ("quant8", 0.0),
            ("quant8", 0.2),
        ]
        assert all(c.reconciled and c.within_bounds for c in cells)
        # Lossy quantisation must actually be cheaper on the wire.
        assert (
            cells[2].bytes_per_sample < cells[0].bytes_per_sample
        )

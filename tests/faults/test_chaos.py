"""End-to-end chaos harness tests: inject, recover, reconcile, bound."""

import numpy as np
import pytest

from repro.faults.chaos import ChaosScenario, run_chaos
from repro.faults.recovery import GAP_POLICIES, RetryPolicy

ACCEPTANCE = ChaosScenario(
    name="acceptance", dropout_rate=0.05, node_loss=1
)


@pytest.fixture(scope="module")
def run():
    # Built from scratch (not the function-scoped conftest fixtures) so
    # one simulated run can be shared across this module's chaos trials.
    from repro.cluster.components import CpuModel, DramModel, FanModel, GpuModel
    from repro.cluster.node import NodeConfig
    from repro.cluster.system import SystemModel
    from repro.cluster.thermal import FanController
    from repro.cluster.variability import ManufacturingVariation
    from repro.traces.synth import simulate_run
    from repro.workloads.hpl import HplWorkload

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
        32,
        config,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(
            fan_model=config.fan, reference_watts=1000.0
        ),
        seed=78,
    )
    workload = HplWorkload.gpu_in_core(1800.0, setup_s=60.0, teardown_s=30.0)
    return simulate_run(system, workload, dt=2.0, seed=5)


@pytest.fixture(scope="module")
def acceptance_outcome(run):
    return run_chaos(run, ACCEPTANCE, gap_policy="hold", seed=17)


class TestAcceptanceScenario:
    def test_reconciles_exactly_and_stays_in_bounds(self, acceptance_outcome):
        out = acceptance_outcome
        assert out.reconciled, out.reconciliation
        assert out.mean_within_bound
        assert out.cv_within_bound
        assert out.ok()

    def test_lost_node_is_quarantined(self, acceptance_outcome):
        out = acceptance_outcome
        assert out.ledger.nodes_lost != ()
        assert set(out.ledger.nodes_lost) <= set(
            out.report.nodes_quarantined
        )

    def test_label_reflects_the_degradation(self, acceptance_outcome):
        rep = acceptance_outcome.report
        assert rep.samples_missing > 0
        assert rep.effective_coverage < 1.0
        assert rep.downgraded()

    def test_every_gap_policy_reconciles(self, run):
        for policy in GAP_POLICIES:
            out = run_chaos(run, ACCEPTANCE, gap_policy=policy, seed=17)
            assert out.ok(), (policy, out.reconciliation)


class TestDeterminismAndInvariance:
    def test_bit_identical_replay(self, run, acceptance_outcome):
        again = run_chaos(run, ACCEPTANCE, gap_policy="hold", seed=17)
        assert again.to_dict() == acceptance_outcome.to_dict()

    def test_batch_size_never_changes_the_report(self, run):
        a = run_chaos(
            run, ACCEPTANCE, gap_policy="hold", seed=17, ticks_per_batch=60
        )
        b = run_chaos(
            run, ACCEPTANCE, gap_policy="hold", seed=17, ticks_per_batch=17
        )
        assert a.report == b.report

    def test_seed_changes_the_faults(self, run, acceptance_outcome):
        other = run_chaos(run, ACCEPTANCE, gap_policy="hold", seed=18)
        assert (
            other.report.samples_missing
            != acceptance_outcome.report.samples_missing
            or other.ledger.nodes_lost != acceptance_outcome.ledger.nodes_lost
        )


class TestCleanAndFlaky:
    def test_clean_scenario_is_a_perfect_label(self, run):
        out = run_chaos(
            run,
            ChaosScenario(name="clean"),
            seed=17,
            original_level=3,
        )
        rep = out.report
        assert rep.effective_coverage == 1.0
        assert rep.effective_level == rep.original_level == 3
        assert rep.samples_unusable == 0
        # Shifted running sums vs direct numpy summation: last-bit
        # differences only.
        assert out.rel_err_fleet_mean == pytest.approx(0.0, abs=1e-12)
        assert out.rel_err_node_cv == pytest.approx(0.0, abs=1e-12)
        assert out.ok()

    def test_flaky_delivery_reconciles_through_abandonment(self, run):
        out = run_chaos(
            run,
            ChaosScenario(
                name="flaky",
                dropout_rate=0.05,
                delivery_failure_rate=0.55,
            ),
            gap_policy="exclude",
            seed=17,
            retry_policy=RetryPolicy(max_retries=2),
        )
        assert out.retries > 0
        assert out.batches_abandoned > 0
        assert out.report.samples_never_arrived > 0
        assert out.reconciled, out.reconciliation


class TestSweep:
    def test_escalation_degrades_monotonically(self, run):
        scenarios = [
            ChaosScenario(name=f"d{r:g}", dropout_rate=r)
            for r in (0.0, 0.10, 0.30)
        ]
        outs = [
            run_chaos(run, sc, gap_policy="hold", seed=17, original_level=3)
            for sc in scenarios
        ]
        coverages = [o.report.effective_coverage for o in outs]
        levels = [o.report.effective_level for o in outs]
        assert coverages == sorted(coverages, reverse=True)
        assert levels == sorted(levels, reverse=True)
        assert all(o.reconciled for o in outs)

    def test_everything_at_once_still_reconciles(self, run):
        out = run_chaos(
            run,
            ChaosScenario(
                name="everything",
                dropout_rate=0.03,
                burst_rate=0.002,
                stuck_rate=0.002,
                spike_rate=0.002,
                jitter_sd_s=0.05,
                drift_frac=1e-4,
                node_loss=2,
                truncate_frac=0.03,
            ),
            gap_policy="interpolate",
            seed=23,
        )
        led = out.ledger
        assert led.samples_stuck > 0
        assert led.samples_spiked > 0
        assert led.ticks_truncated > 0
        assert len(led.nodes_lost) == 2
        assert out.ok(), (out.reconciliation, out.lines())

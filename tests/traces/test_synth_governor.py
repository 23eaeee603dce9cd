"""Tests for DVFS-governed trace synthesis and scheduled sampling."""

import numpy as np
import pytest

from repro.cluster.dvfs import DvfsGovernor
from repro.traces.synth import simulate_run
from repro.workloads.base import ConstantWorkload
from repro.workloads.schedule import balanced, imbalanced


@pytest.fixture()
def flat_wl():
    return ConstantWorkload(utilisation=0.9, core_s=600.0, setup_s=30.0,
                            teardown_s=15.0)


class TestGovernedRuns:
    def test_performance_governor_matches_ungoverned(self, small_system,
                                                     flat_wl):
        plain = simulate_run(small_system, flat_wl, dt=1.0, noise_cv=0.0)
        governed = simulate_run(
            small_system, flat_wl, dt=1.0, noise_cv=0.0,
            governor=DvfsGovernor.performance(),
        )
        np.testing.assert_allclose(
            governed.trace.watts, plain.trace.watts, rtol=1e-9
        )

    def test_downclock_reduces_power_in_period(self, small_system, flat_wl):
        gov = DvfsGovernor.stepped([0.5], [1.0, 0.8])
        run = simulate_run(small_system, flat_wl, dt=1.0, noise_cv=0.0,
                           governor=gov)
        core = run.core_trace()
        first_half = core.fraction_window(0.05, 0.45).mean_power()
        second_half = core.fraction_window(0.55, 0.95).mean_power()
        assert second_half < first_half * 0.95

    def test_setup_teardown_at_nominal(self, small_system, flat_wl):
        gov = DvfsGovernor.stepped([0.01], [0.7, 0.7])  # whole core slow
        run = simulate_run(small_system, flat_wl, dt=1.0, noise_cv=0.0,
                           governor=gov)
        plain = simulate_run(small_system, flat_wl, dt=1.0, noise_cv=0.0)
        # Setup power unchanged by the governor.
        t0, _ = run.core_window
        setup = run.trace.window(0.0, t0 - 1.0).mean_power()
        setup_plain = plain.trace.window(0.0, t0 - 1.0).mean_power()
        assert setup == pytest.approx(setup_plain, rel=1e-9)

    def test_subset_traces_respect_governor(self, small_system, flat_wl):
        gov = DvfsGovernor.stepped([0.5], [1.0, 0.75])
        run = simulate_run(small_system, flat_wl, dt=1.0, noise_cv=0.0,
                           governor=gov)
        sub = run.subset_trace(np.arange(8))
        core_t0, core_t1 = run.core_window
        mid = (core_t0 + core_t1) / 2
        early = sub.window(core_t0, mid).mean_power()
        late = sub.window(mid, core_t1).mean_power()
        assert late < early

    def test_node_averages_respect_governor(self, small_system):
        gov = DvfsGovernor.stepped([0.5], [1.0, 0.75])
        run = simulate_run(small_system, ConstantWorkload(0.9, core_s=600.0),
                           governor=gov, seed=3)
        matrix = run.node_power_matrix(*run.core_window)[1]
        np.testing.assert_array_equal(
            run.node_average_powers(), matrix.mean(axis=0)
        )
        plain = simulate_run(small_system, ConstantWorkload(0.9, core_s=600.0),
                             seed=3)
        assert run.node_average_powers().sum() < (
            0.95 * plain.node_average_powers().sum()
        )

    def test_continuous_governor_rejected(self, small_system, flat_wl):
        gov = DvfsGovernor(name="cont", profile=lambda x: 1.0 - 0.3 * x)
        with pytest.raises(ValueError, match="stepped"):
            simulate_run(small_system, flat_wl, dt=1.0, governor=gov)


class TestScheduledSampling:
    def test_balanced_schedule_matches_default(self, small_system):
        default = small_system.node_sample(0.9)
        scheduled = small_system.node_sample(
            0.9, schedule=balanced(small_system.n_nodes)
        )
        np.testing.assert_allclose(scheduled.watts, default.watts)

    def test_imbalance_widens_distribution(self, small_system, rng):
        sch = imbalanced(small_system.n_nodes, rng, spread=0.3)
        bal = small_system.node_sample(0.9)
        imb = small_system.node_sample(0.9, schedule=sch)
        assert (
            imb.coefficient_of_variation()
            > 3 * bal.coefficient_of_variation()
        )

    def test_wrong_size_schedule_rejected(self, small_system, rng):
        sch = imbalanced(small_system.n_nodes + 1, rng)
        with pytest.raises(ValueError, match="schedule covers"):
            small_system.node_sample(0.9, schedule=sch)

    def test_lighter_load_less_power(self, small_system):
        from repro.workloads.schedule import LoadSchedule

        half = LoadSchedule(np.full(small_system.n_nodes, 0.5))
        full = small_system.node_sample(0.9)
        reduced = small_system.node_sample(0.9, schedule=half)
        assert reduced.mean() < full.mean()

"""Tests for repro.traces.synth — trace synthesis."""

import numpy as np
import pytest

from repro.traces.synth import simulate_run
from repro.workloads.base import ConstantWorkload


@pytest.fixture()
def run(small_system, gpu_hpl):
    return simulate_run(small_system, gpu_hpl, dt=2.0, seed=1)


class TestSimulateRun:
    def test_trace_spans_full_run(self, run, gpu_hpl):
        assert run.trace.start == 0.0
        assert run.trace.end >= gpu_hpl.phases.total_s - 2.0

    def test_core_window_matches_workload(self, run, gpu_hpl):
        assert run.core_window == gpu_hpl.phases.core_window()

    def test_core_trace_bounds(self, run):
        t0, t1 = run.core_window
        core = run.core_trace()
        assert core.start == pytest.approx(t0)
        assert core.end == pytest.approx(t1)

    def test_setup_power_below_core(self, run):
        t0, _ = run.core_window
        setup = run.trace.window(0.0, t0)
        assert setup.mean_power() < run.true_core_average()

    def test_deterministic_given_seed(self, small_system, gpu_hpl):
        a = simulate_run(small_system, gpu_hpl, dt=2.0, seed=9)
        b = simulate_run(small_system, gpu_hpl, dt=2.0, seed=9)
        np.testing.assert_array_equal(a.trace.watts, b.trace.watts)

    def test_different_seed_differs(self, small_system, gpu_hpl):
        a = simulate_run(small_system, gpu_hpl, dt=2.0, seed=1)
        b = simulate_run(small_system, gpu_hpl, dt=2.0, seed=2)
        assert not np.array_equal(a.trace.watts, b.trace.watts)

    def test_zero_noise_smooth(self, small_system):
        wl = ConstantWorkload(utilisation=0.9, core_s=600.0)
        run = simulate_run(small_system, wl, dt=1.0, noise_cv=0.0)
        core = run.core_trace()
        assert core.watts.std() / core.watts.mean() < 1e-9

    def test_noise_scale(self, small_system):
        wl = ConstantWorkload(utilisation=0.9, core_s=3600.0)
        run = simulate_run(small_system, wl, dt=1.0, noise_cv=0.01)
        core = run.core_trace()
        cv = core.watts.std() / core.watts.mean()
        assert 0.003 < cv < 0.03  # near the requested level

    def test_bad_dt(self, small_system, gpu_hpl):
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_run(small_system, gpu_hpl, dt=0.0)

    def test_bad_noise(self, small_system, gpu_hpl):
        with pytest.raises(ValueError, match="noise_cv"):
            simulate_run(small_system, gpu_hpl, noise_cv=-0.1)

    def test_gpu_run_tails_off(self, small_system, gpu_hpl):
        run = simulate_run(small_system, gpu_hpl, dt=2.0, noise_cv=0.0)
        core = run.core_trace()
        first = core.fraction_window(0.0, 0.2).mean_power()
        last = core.fraction_window(0.8, 1.0).mean_power()
        assert first > last * 1.05  # visible tail-off


class TestSubsetTrace:
    def test_full_subset_equals_trace(self, run, small_system):
        full = run.subset_trace(np.arange(small_system.n_nodes))
        np.testing.assert_allclose(full.watts, run.trace.watts, rtol=1e-9)

    def test_subset_scales_roughly_linearly(self, run, small_system):
        half = run.subset_trace(np.arange(small_system.n_nodes // 2))
        ratio = half.mean_power() / run.trace.mean_power()
        assert ratio == pytest.approx(0.5, abs=0.05)

    def test_subset_shares_common_mode_noise(self, run):
        a = run.subset_trace(np.array([0, 1, 2]))
        b = run.subset_trace(np.array([10, 11, 12]))
        # The same noise multiplies both subsets, so their per-sample
        # ratio is nearly constant (small drift from the fan model's
        # utilisation non-linearity is allowed) and the signals are
        # almost perfectly correlated.
        ratio = a.watts / b.watts
        assert ratio.std() / ratio.mean() < 0.01
        assert np.corrcoef(a.watts, b.watts)[0, 1] > 0.99

    def test_empty_subset_rejected(self, run):
        with pytest.raises(ValueError, match="non-empty"):
            run.subset_trace(np.array([], dtype=int))

    def test_out_of_range_rejected(self, run, small_system):
        with pytest.raises(ValueError, match="out of range"):
            run.subset_trace(np.array([small_system.n_nodes]))

    def test_duplicate_indices_rejected(self, run):
        with pytest.raises(ValueError, match="unique"):
            run.subset_trace(np.array([1, 1]))

    def test_disjoint_subsets_sum_to_total(self, run, small_system):
        n = small_system.n_nodes
        a = run.subset_trace(np.arange(n // 2))
        b = run.subset_trace(np.arange(n // 2, n))
        np.testing.assert_allclose(
            a.watts + b.watts, run.trace.watts, rtol=1e-9
        )


class TestNodeAveragePowers:
    def test_shape(self, run, small_system):
        watts = run.node_average_powers()
        assert watts.shape == (small_system.n_nodes,)

    def test_sum_matches_core_average(self, run):
        watts = run.node_average_powers()
        assert watts.sum() == pytest.approx(run.true_core_average(), rel=0.01)

    def test_all_positive(self, run):
        assert np.all(run.node_average_powers() > 0)

    def test_node_spread_reflects_variability(self, run):
        watts = run.node_average_powers()
        cv = watts.std() / watts.mean()
        assert 0.002 < cv < 0.10


def _scalar_grids(run, idx, in_span):
    """The grid tabulation as one scalar fleet power call per row."""
    u_grid, level_of, _ = run._level_grids(idx, in_span)
    levels = (
        np.array([1.0]) if run._freq_mult is None
        else np.unique(run._freq_mult[in_span])
    )
    return [
        np.stack([
            run.system.node_total_powers(
                float(u), indices=idx, freq_multiplier=float(mult)
            )
            for u in u_grid
        ])
        for mult in levels
    ]


class TestLevelGrids:
    """Subset grids sliced from a cached whole-fleet grid are
    bit-identical to tabulating the subset directly."""

    @pytest.fixture(params=["cpu", "gpu", "governed"])
    def any_run(self, request, small_system, gpu_system, gpu_hpl):
        from repro.cluster.dvfs import DvfsGovernor

        if request.param == "cpu":
            return simulate_run(small_system, gpu_hpl, dt=2.0, seed=1)
        if request.param == "gpu":
            return simulate_run(gpu_system, gpu_hpl, dt=2.0, seed=1)
        return simulate_run(
            small_system, gpu_hpl, dt=2.0, seed=1,
            governor=DvfsGovernor.stepped([0.3, 0.6], [1.0, 0.8, 0.9]),
        )

    def test_subset_before_and_after_the_fleet_grid(self, any_run):
        in_span = any_run._in_span(*any_run.core_window)
        n = any_run.system.n_nodes
        subsets = [np.arange(3, 11), np.array([n - 1, 0, 7])]
        direct = [any_run._level_grids(s, in_span)[2] for s in subsets]
        assert any_run._fleet_grids == {}  # subsets alone cache nothing
        whole = any_run._level_grids(np.arange(n), in_span)[2]
        assert any_run._fleet_grids
        for subset, grids in zip(subsets, direct):
            sliced = any_run._level_grids(subset, in_span)[2]
            expected = _scalar_grids(any_run, subset, in_span)
            for got, before, want in zip(sliced, grids, expected):
                assert got.tobytes() == want.tobytes()
                assert before.tobytes() == want.tobytes()
        expected = _scalar_grids(any_run, np.arange(n), in_span)
        for got, want in zip(whole, expected):
            assert got.tobytes() == want.tobytes()

    def test_streamed_batches_unchanged_by_the_cache(self, any_run):
        idx = np.arange(5, 20)
        cold = [b.watts.copy() for b in any_run.stream_run(
            node_indices=idx, ticks_per_batch=37)]
        any_run.node_power_matrix()  # tabulates the whole-fleet grid
        warm = [b.watts.copy() for b in any_run.stream_run(
            node_indices=idx, ticks_per_batch=37)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cold, warm))

    def test_sharded_pass_drops_the_fleet_grid(self, any_run):
        from repro.shard.engine import run_sharded
        from repro.shard.plan import plan_shards

        plan = plan_shards(any_run.system.n_nodes, 2, ticks_per_batch=16)
        run_sharded(any_run, plan)
        assert any_run._fleet_grids == {}
        any_run.node_power_matrix()
        assert any_run._fleet_grids
        any_run.drop_fleet_grids()
        assert any_run._fleet_grids == {}

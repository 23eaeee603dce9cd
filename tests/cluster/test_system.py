"""Tests for repro.cluster.system."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import registry
from repro.cluster.components import (
    CpuModel,
    DramModel,
    FanModel,
    GpuModel,
    NicModel,
)
from repro.cluster.dvfs import OperatingPoint
from repro.cluster.node import NodeConfig
from repro.cluster.system import SystemModel
from repro.cluster.thermal import FanController, FanPolicy
from repro.cluster.variability import ManufacturingVariation
from repro.traces import synth

_E2E_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


class TestConstruction:
    def test_repr(self, small_system):
        assert "test-cpu" in repr(small_system)
        assert "CPU" in repr(small_system)

    def test_gpu_repr(self, gpu_system):
        assert "GPU" in repr(gpu_system)

    def test_bad_n_nodes(self, cpu_config):
        with pytest.raises(ValueError, match="n_nodes"):
            SystemModel("x", 0, cpu_config)

    def test_bad_power_scale(self, cpu_config):
        with pytest.raises(ValueError, match="power_scale"):
            SystemModel("x", 4, cpu_config, power_scale=0.0)


class TestFleetEvaluation:
    def test_shapes(self, small_system):
        p = small_system.node_total_powers(0.9)
        assert p.shape == (small_system.n_nodes,)
        assert np.all(p > 0)

    def test_deterministic(self, cpu_config):
        a = SystemModel("a", 32, cpu_config, seed=5).node_total_powers(0.9)
        b = SystemModel("b", 32, cpu_config, seed=5).node_total_powers(0.9)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_fleet(self, cpu_config):
        a = SystemModel("a", 32, cpu_config, seed=5).node_total_powers(0.9)
        b = SystemModel("b", 32, cpu_config, seed=6).node_total_powers(0.9)
        assert not np.array_equal(a, b)

    def test_monotone_in_utilisation(self, small_system):
        p_lo = small_system.node_total_powers(0.3)
        p_hi = small_system.node_total_powers(0.9)
        assert np.all(p_hi > p_lo)

    def test_utilisation_range(self, small_system):
        with pytest.raises(ValueError, match="utilisation"):
            small_system.node_total_powers(1.2)

    def test_indices_subset_matches_full(self, small_system):
        full = small_system.node_total_powers(0.8)
        idx = np.array([3, 7, 11])
        sub = small_system.node_total_powers(0.8, indices=idx)
        np.testing.assert_allclose(sub, full[idx])

    def test_gpu_point_override(self, gpu_system):
        default = gpu_system.node_total_powers(0.95)
        tuned = gpu_system.node_total_powers(
            0.95, gpu_point=OperatingPoint(700.0, 1.0)
        )
        assert tuned.mean() < default.mean()

    def test_system_power_is_fleet_sum(self, small_system):
        assert small_system.system_power(0.9) == pytest.approx(
            small_system.node_total_powers(0.9).sum()
        )

    def test_power_scale_linear_on_it(self, cpu_config):
        # With fans pinned, scaling is exactly linear.
        base = SystemModel("x", 16, cpu_config, seed=1).with_fan_policy(
            FanPolicy.PINNED
        )
        doubled = base.with_power_scale(2.0)
        it_base = base.node_it_powers(0.9)
        it_doubled = doubled.node_it_powers(0.9)
        np.testing.assert_allclose(it_doubled, 2.0 * it_base, rtol=1e-12)


class TestNodeSample:
    def test_sample_statistics(self, small_system):
        ns = small_system.node_sample(0.9)
        assert len(ns) == small_system.n_nodes
        assert 0.001 < ns.coefficient_of_variation() < 0.1

    def test_measurement_noise_widens_spread(self, small_system):
        clean = small_system.node_sample(0.9)
        noisy = small_system.node_sample(
            0.9, measurement_noise_cv=0.05,
            rng=np.random.default_rng(0),
        )
        assert (
            noisy.coefficient_of_variation()
            > clean.coefficient_of_variation()
        )

    def test_negative_noise_rejected(self, small_system):
        with pytest.raises(ValueError, match="measurement_noise_cv"):
            small_system.node_sample(0.9, measurement_noise_cv=-0.1)

    def test_system_label(self, small_system):
        assert small_system.node_sample(0.9).system == "test-cpu"


class TestManufactureNode:
    def test_agrees_with_fleet(self, gpu_system):
        idx = 5
        node = gpu_system.manufacture_node(idx)
        fleet_power = gpu_system.node_total_powers(0.9)[idx]
        # power_scale applies at fleet level, node object is unscaled.
        node_power = node.total_power(0.9) * gpu_system.power_scale
        assert node_power == pytest.approx(fleet_power, rel=0.02)

    def test_out_of_range(self, small_system):
        with pytest.raises(ValueError, match="out of range"):
            small_system.manufacture_node(small_system.n_nodes)


class TestVariants:
    def test_pinned_fans_reduce_spread(self, cpu_config):
        auto = SystemModel(
            "x", 256, cpu_config,
            variation=ManufacturingVariation(sigma=0.005),
            seed=3,
        )
        pinned = auto.with_fan_policy(FanPolicy.PINNED, pinned_speed=0.5)
        cv_auto = auto.node_sample(0.9).coefficient_of_variation()
        cv_pinned = pinned.node_sample(0.9).coefficient_of_variation()
        assert cv_pinned < cv_auto

    def test_variants_preserve_fleet_draws(self, small_system):
        scaled = small_system.with_power_scale(1.5)
        # Same silicon: scaled powers are exactly 1.5x on IT side.
        np.testing.assert_allclose(
            scaled.node_it_powers(0.9),
            1.5 * small_system.node_it_powers(0.9),
            rtol=1e-12,
        )

    def test_with_variation_reroll(self, small_system):
        wider = small_system.with_variation(
            ManufacturingVariation(sigma=0.08)
        )
        cv0 = small_system.node_sample(0.9).coefficient_of_variation()
        cv1 = wider.node_sample(0.9).coefficient_of_variation()
        assert cv1 > cv0

    def test_variation_same_seed_same_z_scores(self, small_system):
        # Same seed → same underlying draws, so doubling sigma roughly
        # doubles the log-multipliers.
        wider = small_system.with_variation(
            ManufacturingVariation(sigma=0.04)
        )
        a = np.log(small_system._fleet().proc_mean_mult)
        b = np.log(wider._fleet().proc_mean_mult)
        assert np.corrcoef(a, b)[0, 1] > 0.999


def _grid_system(gpu: bool, pinned: bool, seed: int) -> SystemModel:
    """A 48-node CPU-only or 4-GPU system, fans AUTO or PINNED."""
    config = NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        gpu=GpuModel(idle_watts=18.0, peak_watts=220.0) if gpu else None,
        n_gpus=4 if gpu else 0,
        dram=DramModel.for_capacity(128.0),
        fan=FanModel(max_watts=150.0),
        other_watts=30.0,
    )
    system = SystemModel(
        "grid",
        48,
        config,
        variation=ManufacturingVariation(sigma=0.03),
        fan_controller=FanController(
            fan_model=config.fan, reference_watts=1100.0 if gpu else 400.0
        ),
        seed=seed,
    )
    return system.with_fan_policy(FanPolicy.PINNED) if pinned else system


def _assert_grid_matches_rows(system, indices, freq_multiplier) -> None:
    """Every grid block row and every curve point equals the one-point
    evaluation of its utilisation, bit for bit."""
    u = np.linspace(0.0, 1.0, synth._U_GRID)
    sums = []
    covered = 0
    for g0, block in synth._grid_blocks(system, indices, freq_multiplier):
        assert g0 == covered
        for i, got in enumerate(block):
            row = system.node_total_powers(
                u[g0 + i], indices=indices, freq_multiplier=freq_multiplier
            )
            np.testing.assert_array_equal(got, row)
            sums.append(row.sum())
        covered += len(block)
    assert covered == synth._U_GRID
    u_curve, curve = synth._power_curve(
        system, indices, freq_multiplier=freq_multiplier
    )
    np.testing.assert_array_equal(u_curve, u)
    np.testing.assert_array_equal(curve, np.array(sums))


class TestPowerGrid:
    """``node_total_power_grid`` tabulates the utilisation grid in
    broadcast blocks whose every cell equals the one-point path."""

    @settings(max_examples=40, deadline=None)
    @given(
        gpu=st.booleans(),
        pinned=st.booleans(),
        seed=st.integers(0, 2**16),
        subset=st.one_of(
            st.none(),
            st.lists(st.integers(0, 47), min_size=1, max_size=48, unique=True),
        ),
        freq_multiplier=st.one_of(
            st.sampled_from([0.85, 1.0, 1.1]), st.floats(0.5, 1.5)
        ),
        # 1 cell forces one grid point per block; 300 gives uneven
        # multi-point blocks; 2**16 puts the whole grid in one block.
        cells=st.sampled_from([1, 300, 2**16]),
    )
    def test_grid_equals_stacked_rows(
        self, gpu, pinned, seed, subset, freq_multiplier, cells
    ):
        system = _grid_system(gpu, pinned, seed)
        idx = None if subset is None else np.array(subset)
        n = system.n_nodes if idx is None else idx.size
        with mock.patch.object(synth, "_GRID_CELLS", cells):
            sizes = [
                len(b) for _, b in synth._grid_blocks(system, idx, 1.0)
            ]
            assert max(sizes) == min(max(1, cells // n), synth._U_GRID)
            _assert_grid_matches_rows(system, idx, freq_multiplier)

    def test_gpu_point_and_cpu_multiplier_broadcast(self, gpu_system):
        u = np.linspace(0.0, 1.0, synth._U_GRID)
        kwargs = dict(
            gpu_point=OperatingPoint(700.0, 0.95), cpu_freq_multiplier=0.9
        )
        rows = np.stack(
            [gpu_system.node_total_powers(ui, **kwargs) for ui in u]
        )
        grid = gpu_system.node_total_power_grid(u, **kwargs)
        np.testing.assert_array_equal(grid, rows)

    def test_scalar_pow_at_the_pinned_ulp_point(self):
        # numpy's array pow and scalar pow of 0.1640625 ** 1.1 differ
        # in the last ulp (…343 against …346 on AVX-512 builds); the
        # grid must take the scalar one, as node_total_powers does.
        # A node that is one 128 W, idle-free CPU and nothing else
        # draws exactly 128 · u ** 1.1, so no later rounding hides it.
        config = NodeConfig(
            cpu=CpuModel(idle_watts=0.0, peak_watts=128.0, gamma=1.1),
            n_cpus=1,
            dram=DramModel(idle_watts=0.0, peak_watts=0.0),
            nic=NicModel(idle_watts=0.0, peak_watts=0.0),
            fan=FanModel(max_watts=0.0),
            other_watts=0.0,
        )
        system = SystemModel(
            "pow", 4, config, variation=ManufacturingVariation(sigma=0.0)
        )
        u = 21 / 128
        expected = np.full(4, 128.0 * np.float64(u) ** 1.1)
        np.testing.assert_array_equal(system.node_total_powers(u), expected)
        grid = system.node_total_power_grid(np.linspace(0.0, 1.0, 129))
        np.testing.assert_array_equal(grid[21], expected)

    @pytest.mark.parametrize("name", registry.PAPER_SYSTEMS)
    def test_registry_systems(self, name):
        if name in registry.TRACE_SYSTEMS:
            system = registry.get_trace_setup(name)[0]
        else:
            system = registry.get_system(name)
        for freq_multiplier in (0.85, 1.0, 1.1):
            _assert_grid_matches_rows(system, None, freq_multiplier)

    def test_e2e_fleet(self, monkeypatch):
        monkeypatch.syspath_prepend(str(_E2E_DIR))
        from workloads import fleet_run

        system = fleet_run(2048, 20.0, 1).system
        for freq_multiplier in (0.85, 1.0, 1.1):
            _assert_grid_matches_rows(system, None, freq_multiplier)

    def test_rejects_out_of_range_utilisation(self, small_system):
        with pytest.raises(ValueError, match="utilisation"):
            small_system.node_total_power_grid([0.5, 1.2])
        with pytest.raises(ValueError, match="utilisation"):
            small_system.node_total_power_grid([-0.1, 0.5])

    @pytest.mark.parametrize("freq_multiplier", [0.0, -1.0])
    def test_rejects_nonpositive_freq_multiplier(
        self, small_system, freq_multiplier
    ):
        with pytest.raises(ValueError, match="freq_multiplier"):
            small_system.node_total_power_grid(
                [0.5], freq_multiplier=freq_multiplier
            )

    def test_rejects_negative_it_power(self, small_system):
        # The constructor refuses a non-positive scale; set it after to
        # reach the fan controller's own check.
        small_system.power_scale = -1.0
        with pytest.raises(ValueError, match="IT power"):
            small_system.node_total_powers(0.5)
        with pytest.raises(ValueError, match="IT power"):
            small_system.node_total_power_grid([0.25, 0.5])

    def test_rejects_non_1d_grid(self, small_system):
        with pytest.raises(ValueError, match="1-D"):
            small_system.node_total_power_grid(np.full((2, 2), 0.5))

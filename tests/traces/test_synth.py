"""Tests for repro.traces.synth — trace synthesis."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.system import SystemModel
from repro.traces import synth
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


class TestNodeIndices:
    """A node subset is integer ids: nothing is truncated or read as a
    mask."""

    @pytest.mark.parametrize(
        "idx",
        [np.array([0.9, 2.7]), np.array([1.0, 2.0]), np.array([True, False])],
        ids=["fractional", "whole-floats", "bool-mask"],
    )
    def test_non_integer_dtype_is_refused(self, run, idx):
        with pytest.raises(ValueError, match="integers"):
            run.node_power_matrix(node_indices=idx)
        with pytest.raises(ValueError, match="integers"):
            next(run.stream_run(node_indices=idx))

    def test_empty_list_is_refused_as_empty(self, run):
        with pytest.raises(ValueError, match="non-empty"):
            run.node_power_matrix(node_indices=[])

    def test_python_int_list_is_accepted(self, run):
        _, got = run.node_power_matrix(node_indices=[5, 2])
        _, want = run.node_power_matrix(node_indices=np.array([5, 2]))
        assert got.tobytes() == want.tobytes()

    def test_unsorted_with_duplicates_is_refused(self, run):
        with pytest.raises(ValueError, match="unique"):
            run._validated_indices(np.array([5, 2, 9, 2]))

    def test_unsorted_keeps_its_order(self, run):
        got = run._validated_indices(np.array([5, 2, 9]))
        assert got.dtype == np.int64
        assert got.tolist() == [5, 2, 9]

    @pytest.mark.parametrize(
        "idx, message",
        [([0, 64], "out of range"), ([-1, 3], "out of range"),
         ([1, 1, 2], "unique"), ([3, 2, 70], "out of range")],
    )
    def test_bad_subsets_are_refused(self, run, small_system, idx, message):
        assert small_system.n_nodes == 64
        with pytest.raises(ValueError, match=message):
            run._validated_indices(np.array(idx))


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


_G = 129  # the utilisation grid's resolution


def _full_grid_reference(run, idx, in_span):
    """The tabulation the row selection replaced, kept as the reference:
    all 129 grid rows per frequency level, each tick interpolated under
    its level's grid.  Returns the per-node watts and, per level, the
    sorted grid rows the span's ticks bracket."""
    u_grid = np.linspace(0.0, 1.0, _G)
    util = run._util[in_span]
    if run._freq_mult is None:
        levels = np.array([1.0])
        level_of = np.zeros(util.size, dtype=np.int64)
    else:
        levels, level_of = np.unique(
            run._freq_mult[in_span], return_inverse=True
        )
    watts = np.empty((util.size, idx.size))
    bracketing = {}
    for li, mult in enumerate(levels):
        per_node = run.system.node_total_power_grid(
            u_grid, indices=idx, freq_multiplier=float(mult)
        )
        mask = level_of == li
        u_sel = util[mask]
        cell = np.clip(np.searchsorted(u_grid, u_sel) - 1, 0, _G - 2)
        w = (u_sel - u_grid[cell]) / (u_grid[cell + 1] - u_grid[cell])
        watts[mask] = (
            per_node[cell] * (1 - w)[:, None]
            + per_node[cell + 1] * w[:, None]
        )
        bracketing[float(mult)] = np.union1d(cell, cell + 1).tolist()
    return watts * run._noise[in_span][:, None], bracketing


def _scalar_rows(run, idx, in_span):
    """The rows ``_level_grids`` tabulates for the span, built as one
    scalar fleet power call per row, levels stacked in ascending order."""
    u_grid = np.linspace(0.0, 1.0, _G)
    _, bracketing = _full_grid_reference(run, idx, in_span)
    return np.stack([
        run.system.node_total_powers(
            float(u_grid[r]), indices=idx, freq_multiplier=mult
        )
        for mult, rows in bracketing.items()
        for r in rows
    ])


@contextmanager
def _tabulated_rows():
    """Record the grid rows each frequency level tabulates, as
    ``{multiplier: [row, ...]}``."""
    u_grid = np.linspace(0.0, 1.0, _G)
    rows: dict = {}
    real = SystemModel.node_total_power_grid

    def spy(self, utilisation, **kwargs):
        found = np.searchsorted(u_grid, utilisation)
        assert np.array_equal(u_grid[found], utilisation)
        rows.setdefault(kwargs.get("freq_multiplier", 1.0), []).extend(
            found.tolist()
        )
        return real(self, utilisation, **kwargs)

    with mock.patch.object(SystemModel, "node_total_power_grid", spy):
        yield rows


def _streamed(run, **kwargs):
    return [
        (b.times.copy(), b.watts.copy()) for b in run.stream_run(**kwargs)
    ]


class TestLevelGrids:
    """The per-node views tabulate only the grid rows their ticks
    bracket, and match a full 129-row tabulation bit for bit."""

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

    @staticmethod
    def _subset(run, subset):
        n = run.system.n_nodes
        if subset == "unsorted":
            return np.array([n - 1, 0, 7])
        return None if subset is None else np.array(subset)

    # The run fixture holds no mutable state, so examples may share it.
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @example(subset="unsorted", span=None, ticks=1)
    @example(subset=None, span=None, ticks="over")
    @example(subset="unsorted", span=(0.2, 0.9), ticks="over")
    @given(
        subset=st.one_of(
            st.none(),
            st.just("unsorted"),
            st.lists(st.integers(0, 31), min_size=1, max_size=12, unique=True),
        ),
        span=st.one_of(
            st.none(),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        ),
        ticks=st.one_of(st.sampled_from([1, "over"]), st.integers(2, 97)),
    )
    def test_matches_the_full_grid_tabulation(
        self, any_run, subset, span, ticks
    ):
        run = any_run
        idx = self._subset(run, subset)
        cols = run._validated_indices(idx)
        # node_power_matrix over a random span of ticks (None: the
        # whole run).
        if span is None:
            t0_s = t1_s = None
        else:
            last = run._times.size - 1
            t0_s, t1_s = (run._times[int(f * last)] for f in span)
        in_span = run._in_span(t0_s, t1_s)
        want, bracketing = _full_grid_reference(run, cols, in_span)
        with _tabulated_rows() as rows:
            times, got = run.node_power_matrix(t0_s, t1_s, node_indices=idx)
        assert rows == bracketing
        assert times.tobytes() == run._times[in_span].tobytes()
        assert got.tobytes() == want.tobytes()

        # stream_run over the core phase, batch by batch.
        in_core = run._in_span(*run.core_window)
        want, bracketing = _full_grid_reference(run, cols, in_core)
        n_ticks = int(in_core.sum())
        tpb = n_ticks + 1 if ticks == "over" else ticks
        with _tabulated_rows() as rows:
            batches = _streamed(run, node_indices=idx, ticks_per_batch=tpb)
        assert rows == bracketing
        assert len(batches) == -(-n_ticks // tpb)
        for k, (times, watts) in enumerate(batches):
            lo = k * tpb
            want_times = run._times[in_core][lo:lo + tpb]
            assert times.tobytes() == want_times.tobytes()
            assert watts.tobytes() == want[lo:lo + tpb].tobytes()

    def test_subset_before_and_after_the_fleet_grid(self, any_run):
        """A whole-fleet tabulation in between changes no subset's rows:
        the run keeps no grid state."""
        in_span = any_run._in_span(*any_run.core_window)
        n = any_run.system.n_nodes
        subsets = [np.arange(3, 11), np.array([n - 1, 0, 7])]
        fields = set(vars(any_run))
        before = [any_run._level_grids(s, in_span) for s in subsets]
        whole = any_run._level_grids(np.arange(n), in_span)
        assert set(vars(any_run)) == fields
        for subset, old in zip(subsets, before):
            new = any_run._level_grids(subset, in_span)
            for got, was in zip(new, old):  # grid, pos, w
                assert got.tobytes() == was.tobytes()
            want = _scalar_rows(any_run, subset, in_span)
            assert new[0].tobytes() == want.tobytes()
        want = _scalar_rows(any_run, np.arange(n), in_span)
        assert whole[0].tobytes() == want.tobytes()

    def test_streamed_batches_unchanged_by_the_cache(self, any_run):
        """A whole-fleet matrix in between leaves nothing behind that a
        later stream reads."""
        idx = np.arange(5, 20)
        cold = _streamed(any_run, node_indices=idx, ticks_per_batch=37)
        any_run.node_power_matrix()  # tabulates the whole fleet's rows
        warm = _streamed(any_run, node_indices=idx, ticks_per_batch=37)
        assert len(cold) == len(warm)
        for (t_a, w_a), (t_b, w_b) in zip(cold, warm):
            assert t_a.tobytes() == t_b.tobytes()
            assert w_a.tobytes() == w_b.tobytes()

    # 1 cell tabulates one row per block; 2**16 all rows in one block.
    @pytest.mark.parametrize("cells", [1, 2**16])
    def test_full_run_stream_matches_the_full_grid_tabulation(
        self, any_run, cells
    ):
        cols = np.arange(any_run.system.n_nodes)
        want, bracketing = _full_grid_reference(
            any_run, cols, any_run._in_span(None, None)
        )
        with _tabulated_rows() as rows, mock.patch.object(
            synth, "_GRID_CELLS", cells
        ):
            batches = _streamed(any_run, ticks_per_batch=50, core_only=False)
        assert rows == bracketing
        got = np.concatenate([watts for _, watts in batches])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        ("utilisation", "core_rows"),
        [(0.0, [0, 1]), (0.5, [63, 64]), (1.0, [127, 128])],
    )
    def test_utilisation_at_grid_edges_and_points(
        self, small_system, utilisation, core_rows
    ):
        # Setup runs at u = 0.25, itself grid point 32; teardown at 0.2,
        # inside cell 25.
        wl = ConstantWorkload(
            utilisation=utilisation, core_s=60.0, setup_s=10.0,
            teardown_s=10.0,
        )
        run = simulate_run(small_system, wl, dt=1.0, seed=3)
        cols = np.arange(small_system.n_nodes)
        with _tabulated_rows() as rows:
            core = _streamed(run, ticks_per_batch=7)
        assert rows == {1.0: core_rows}
        want, _ = _full_grid_reference(
            run, cols, run._in_span(*run.core_window)
        )
        got = np.concatenate([watts for _, watts in core])
        assert got.tobytes() == want.tobytes()

        with _tabulated_rows() as rows:
            _, got = run.node_power_matrix()
        assert rows == {1.0: sorted({*core_rows, 25, 26, 31, 32})}
        want, _ = _full_grid_reference(run, cols, run._in_span(None, None))
        assert got.tobytes() == want.tobytes()

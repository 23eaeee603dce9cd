"""Correlated pathology models: identity, exactness, disjointness.

The contracts under test:

* **identity** (hypothesis): an always-on meter (duty 1.0), zero device
  spread and constant input entropy are *bit-identical* to the
  unfaulted path for arbitrary matrices — not merely close.
* **exact accounting**: every injected watt of correlated bias is in
  the ledger and the per-cell ``bias_w`` matrix, to summation order.
* **disjointness / ordering**: an aliasing meter refuses cells another
  model claimed, and ambient pathologies refuse to run after any
  claiming model — with errors that say so.
* **stacking**: correlated + independent models in one plan still
  reconcile exactly through the full recovery harness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.models import (
    FaultPlan,
    SampleDropout,
    SpikeGlitch,
    StuckAtLastValue,
    TruncatedTail,
)
from repro.faults.pathology import (
    AliasingMeter,
    DeviceSpreadModel,
    EntropyPowerModel,
    PathologyScenario,
    run_pathology,
    standard_scenarios,
)

#: Arbitrary-ish run shapes and seeds for the identity properties.
shapes = st.tuples(
    st.integers(min_value=2, max_value=48),  # n_ticks
    st.integers(min_value=1, max_value=6),   # n_nodes
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _matrix(n_ticks: int, n_nodes: int, seed: int):
    rng = np.random.default_rng(seed)
    times = np.arange(n_ticks) * 2.0
    base = 200.0 + 40.0 * rng.random(n_nodes)
    trend = 1.0 + 0.3 * np.sin(np.linspace(0.0, 3.0, n_ticks))
    watts = base[None, :] * trend[:, None] + rng.random((n_ticks, n_nodes))
    return times, watts


class TestIdentityProperties:
    """Duty 1.0 / zero spread / constant entropy == the unfaulted path."""

    @settings(max_examples=40, deadline=None)
    @given(shapes, seeds, st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=7))
    def test_always_on_meter_is_identity(self, shape, seed, period, phase):
        times, watts = _matrix(*shape, seed)
        plan = FaultPlan.canonical(
            [AliasingMeter(
                period_ticks=period, duty_frac=1.0, phase_ticks=phase
            )],
            seed,
        )
        out = plan.apply(times, watts)
        assert np.array_equal(out.watts, watts)
        assert not out.aliased_mask.any()
        assert not np.abs(out.bias_w).any()
        assert out.ledger.samples_aliased == 0

    @settings(max_examples=40, deadline=None)
    @given(shapes, seeds)
    def test_zero_spread_is_identity(self, shape, seed):
        times, watts = _matrix(*shape, seed)
        plan = FaultPlan.canonical([DeviceSpreadModel(spread_frac=0.0)], seed)
        out = plan.apply(times, watts)
        assert np.array_equal(out.watts, watts)
        assert not np.abs(out.bias_w).any()
        assert out.ledger.nodes_spread == 0

    @settings(max_examples=40, deadline=None)
    @given(shapes, seeds,
           st.floats(min_value=0.0, max_value=50.0,
                     allow_nan=False, allow_infinity=False),
           st.floats(min_value=0.0, max_value=1.0,
                     allow_nan=False, allow_infinity=False))
    def test_constant_entropy_is_identity(self, shape, seed, amp, level):
        times, watts = _matrix(*shape, seed)
        plan = FaultPlan.canonical(
            [EntropyPowerModel(
                amplitude_w=amp, segment_ticks=5,
                entropy_lo=level, entropy_hi=level,
            )],
            seed,
        )
        out = plan.apply(times, watts)
        assert np.array_equal(out.watts, watts)
        assert not np.abs(out.bias_w).any()
        assert out.ledger.samples_entropy_shifted == 0

    @settings(max_examples=25, deadline=None)
    @given(shapes, seeds)
    def test_all_three_identities_stack(self, shape, seed):
        times, watts = _matrix(*shape, seed)
        plan = FaultPlan.canonical(
            [
                AliasingMeter(period_ticks=8, duty_frac=1.0),
                EntropyPowerModel(amplitude_w=0.0, segment_ticks=4),
                DeviceSpreadModel(spread_frac=0.0),
            ],
            seed,
        )
        out = plan.apply(times, watts)
        assert np.array_equal(out.watts, watts)
        assert not out.ledger.any_correlated


class TestAliasingMeter:
    def test_holds_last_on_window_reading(self):
        times = np.arange(8) * 1.0
        watts = np.arange(8.0)[:, None] * 10.0 + np.array([[100.0, 200.0]])
        plan = FaultPlan.canonical(
            [AliasingMeter(period_ticks=4, duty_frac=0.5)], seed=1
        )
        out = plan.apply(times, watts)
        # Ticks 0,1 on; 2,3 hold tick 1; 4,5 on; 6,7 hold tick 5.
        expected = watts.copy()
        expected[2] = expected[3] = watts[1]
        expected[6] = expected[7] = watts[5]
        assert np.array_equal(out.watts, expected)
        assert out.aliased_mask.sum() == 4 * 2
        assert np.array_equal(out.aliased_mask.any(axis=1),
                              np.array([0, 0, 1, 1, 0, 0, 1, 1], bool))

    def test_bias_is_exact_per_cell(self):
        times, watts = _matrix(30, 3, seed=9)
        plan = FaultPlan.canonical(
            [AliasingMeter(period_ticks=5, duty_frac=0.4, phase_ticks=2)],
            seed=7,
        )
        out = plan.apply(times, watts)
        assert np.allclose(out.bias_w, out.watts - watts)
        assert out.ledger.samples_aliased == int(out.aliased_mask.sum())
        assert out.ledger.aliasing_bias_w_sum == pytest.approx(
            float((out.watts - watts).sum())
        )
        assert out.ledger.samples_biased == out.ledger.samples_aliased
        assert out.ledger.any_correlated

    def test_phase_shifts_the_window(self):
        times = np.arange(6) * 1.0
        watts = np.arange(6.0)[:, None] + np.array([[50.0]])
        out = FaultPlan.canonical(
            [AliasingMeter(period_ticks=3, duty_frac=1 / 3, phase_ticks=1)],
            seed=0,
        ).apply(times, watts)
        # On ticks satisfy (t + 1) % 3 == 0, i.e. t = 2, 5; ticks before
        # the first on-tick are untouched (no reading to hold yet).
        assert np.array_equal(
            out.aliased_mask[:, 0],
            np.array([0, 0, 0, 1, 1, 0], bool),
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="duty_frac"):
            AliasingMeter(period_ticks=4, duty_frac=0.0)
        with pytest.raises(ValueError, match="duty_frac"):
            AliasingMeter(period_ticks=4, duty_frac=1.5)
        with pytest.raises(ValueError, match="period_ticks"):
            AliasingMeter(period_ticks=0, duty_frac=0.5)
        with pytest.raises(ValueError, match="phase_ticks"):
            AliasingMeter(period_ticks=4, duty_frac=0.5, phase_ticks=-1)


class TestEntropyPowerModel:
    def test_offset_is_common_mode_and_segment_constant(self):
        times, watts = _matrix(40, 4, seed=3)
        plan = FaultPlan.canonical(
            [EntropyPowerModel(amplitude_w=25.0, segment_ticks=10)], seed=11
        )
        out = plan.apply(times, watts)
        offsets = out.watts - watts
        # Common-mode: every node in a tick shifts identically.
        assert np.allclose(offsets, offsets[:, :1])
        # Segment-constant: one offset per 10-tick block.
        per_tick = offsets[:, 0]
        for k in range(4):
            block = per_tick[10 * k: 10 * (k + 1)]
            assert np.allclose(block, block[0])
        assert np.allclose(out.bias_w, offsets)
        assert out.ledger.entropy_bias_w_sum == pytest.approx(
            float(offsets.sum())
        )

    def test_offsets_span_plus_minus_amplitude(self):
        times, watts = _matrix(400, 1, seed=5)
        out = FaultPlan.canonical(
            [EntropyPowerModel(amplitude_w=30.0, segment_ticks=4)], seed=2
        ).apply(times, watts)
        offs = (out.watts - watts)[:, 0]
        assert np.abs(offs).max() <= 30.0
        assert offs.min() < 0.0 < offs.max()

    def test_validation(self):
        with pytest.raises(ValueError, match="amplitude_w"):
            EntropyPowerModel(amplitude_w=-1.0)
        with pytest.raises(ValueError, match="segment_ticks"):
            EntropyPowerModel(amplitude_w=1.0, segment_ticks=0)
        with pytest.raises(ValueError, match="entropy_hi"):
            EntropyPowerModel(amplitude_w=1.0, entropy_lo=0.8, entropy_hi=0.2)


class TestDeviceSpreadModel:
    def test_factor_is_persistent_per_node(self):
        times, watts = _matrix(50, 5, seed=21)
        out = FaultPlan.canonical(
            [DeviceSpreadModel(spread_frac=0.05)], seed=13
        ).apply(times, watts)
        factors = out.watts / watts
        # One multiplicative factor per node, constant over the run.
        assert np.allclose(factors, factors[:1, :])
        assert out.ledger.nodes_spread == 5
        assert out.ledger.spread_max_abs_frac == pytest.approx(
            float(np.abs(factors[0] - 1.0).max())
        )
        assert np.allclose(out.bias_w, out.watts - watts)

    def test_clip_bounds_the_worst_node(self):
        times, watts = _matrix(10, 200, seed=1)
        out = FaultPlan.canonical(
            [DeviceSpreadModel(spread_frac=0.1, clip_sigma=2.0)], seed=3
        ).apply(times, watts)
        factors = out.watts[0] / watts[0]
        assert np.abs(factors - 1.0).max() <= 0.2 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="spread_frac"):
            DeviceSpreadModel(spread_frac=0.5)
        with pytest.raises(ValueError, match="spread_frac"):
            DeviceSpreadModel(spread_frac=-0.01)
        with pytest.raises(ValueError, match="clip_sigma"):
            DeviceSpreadModel(spread_frac=0.1, clip_sigma=0.0)


class TestDisjointnessAndOrdering:
    def test_aliasing_rejects_cells_claimed_earlier(self):
        times, watts = _matrix(40, 3, seed=2)
        # Non-canonical order on purpose: stuck claims cells first,
        # then the meter wants whole rows — must refuse loudly.
        plan = FaultPlan(
            models=(
                StuckAtLastValue(rate=0.2, mean_ticks=4.0),
                AliasingMeter(period_ticks=4, duty_frac=0.5),
            ),
            seed=17,
        )
        with pytest.raises(ValueError, match="already claimed"):
            plan.apply(times, watts)

    @pytest.mark.parametrize(
        "ambient",
        [
            EntropyPowerModel(amplitude_w=10.0, segment_ticks=5),
            DeviceSpreadModel(spread_frac=0.05),
        ],
    )
    def test_ambient_models_refuse_claimed_matrices(self, ambient):
        times, watts = _matrix(40, 3, seed=2)
        plan = FaultPlan(
            models=(SampleDropout(rate=0.3), ambient), seed=23
        )
        with pytest.raises(ValueError, match="must run before"):
            plan.apply(times, watts)

    def test_canonical_order_pathologies_first(self):
        plan = FaultPlan.canonical(
            [
                SampleDropout(rate=0.1),
                AliasingMeter(period_ticks=4, duty_frac=0.5),
                SpikeGlitch(rate=0.01),
                DeviceSpreadModel(spread_frac=0.02),
                TruncatedTail(frac=0.1),
                EntropyPowerModel(amplitude_w=5.0),
            ],
            seed=1,
        )
        order = [type(m).__name__ for m in plan.models]
        assert order == [
            "TruncatedTail",
            "DeviceSpreadModel",
            "EntropyPowerModel",
            "AliasingMeter",
            "SpikeGlitch",
            "SampleDropout",
        ]

    def test_canonical_stack_applies_cleanly(self):
        times, watts = _matrix(60, 4, seed=8)
        plan = FaultPlan.canonical(
            [
                SampleDropout(rate=0.05),
                SpikeGlitch(rate=0.01, factor=8.0),
                AliasingMeter(period_ticks=6, duty_frac=0.5),
                DeviceSpreadModel(spread_frac=0.03),
                EntropyPowerModel(amplitude_w=8.0, segment_ticks=10),
            ],
            seed=31,
        )
        out = plan.apply(times, watts)
        # Disjointness held: spikes and dropout landed only outside the
        # meter's held rows.
        assert not (out.aliased_mask & out.spike_mask).any()
        assert not (out.aliased_mask & out.missing_mask).any()
        # All three pathologies left their ledger marks.
        assert out.ledger.samples_aliased > 0
        assert out.ledger.samples_entropy_shifted > 0
        assert out.ledger.nodes_spread > 0


class TestStackedReconciliation:
    def test_stacked_pathology_reconciles_exactly(self, small_run):
        scenario = PathologyScenario(
            name="stacked",
            aliasing_period_ticks=10,
            aliasing_duty_frac=0.6,
            entropy_amplitude_w=15.0,
            entropy_segment_ticks=30,
            spread_frac=0.02,
            dropout_rate=0.03,
            spike_rate=0.004,
        )
        out = run_pathology(
            small_run, scenario, seed=42,
            node_indices=np.arange(12),
        )
        assert out.reconciled, out.reconciliation
        assert out.mean_within_bound and out.cv_within_bound
        assert out.report.samples_missing > 0
        assert out.report.samples_spiked > 0
        assert out.report.correlated_models == (
            "AliasingMeter", "EntropyPowerModel", "DeviceSpreadModel"
        )
        # Stacking must not sneak the independence note back in.
        assert (
            out.report.INDEPENDENCE_NOTE not in out.report.stated_notes
        )

    def test_pure_pathology_bounds_tight_but_honest(self, small_run):
        scenario = standard_scenarios(
            ("aliasing",), intensity="high"
        )[0]
        out = run_pathology(
            small_run, scenario, seed=42,
            node_indices=np.arange(12),
        )
        assert out.ok()
        assert out.independent_bound_mean_violated


class TestScenarioValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown pathology kind"):
            standard_scenarios(("aliasing", "bogus"))

    def test_bad_intensity_rejected(self):
        with pytest.raises(ValueError, match="intensity"):
            standard_scenarios(("aliasing",), intensity="extreme")

    def test_any_pathology_flag(self):
        assert not PathologyScenario(name="off").any_pathology
        assert PathologyScenario(
            name="on", spread_frac=0.01
        ).any_pathology
        assert not PathologyScenario(
            name="duty-one", aliasing_period_ticks=10,
            aliasing_duty_frac=1.0,
        ).any_pathology

"""Tests for repro.core.confidence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidence import (
    ConfidenceInterval,
    finite_population_correction,
    mean_confidence_interval,
    t_quantile,
    z_quantile,
)


class TestQuantiles:
    def test_z_95(self):
        assert z_quantile(0.95) == pytest.approx(1.959964, rel=1e-5)

    def test_z_80_99(self):
        assert z_quantile(0.80) == pytest.approx(1.281552, rel=1e-5)
        assert z_quantile(0.99) == pytest.approx(2.575829, rel=1e-5)

    def test_t_converges_to_z(self):
        assert t_quantile(0.95, 10_000) == pytest.approx(
            z_quantile(0.95), rel=1e-3
        )

    def test_t_exceeds_z(self):
        for dof in (1, 3, 14, 30):
            assert t_quantile(0.95, dof) > z_quantile(0.95)

    def test_t_at_14_dof(self):
        # The paper's n=15 case: t ≈ 2.1448, ~9% wider than z.
        t = t_quantile(0.95, 14)
        assert t == pytest.approx(2.1448, rel=1e-4)
        assert 1.0 - z_quantile(0.95) / t == pytest.approx(0.086, abs=0.005)

    def test_t_monotone_decreasing_in_dof(self):
        ts = [t_quantile(0.95, d) for d in (2, 5, 10, 50)]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_invalid_confidence(self):
        with pytest.raises(ValueError, match="confidence"):
            z_quantile(1.0)
        with pytest.raises(ValueError, match="confidence"):
            t_quantile(0.0, 5)

    def test_invalid_dof(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            t_quantile(0.95, 0)

    @given(st.floats(min_value=0.5, max_value=0.999))
    def test_z_monotone_in_confidence(self, c):
        assert z_quantile(min(c + 0.001, 0.9995)) > z_quantile(c)


class TestSpecialFunctionQuantiles:
    # The quantiles call scipy's special functions directly; these are
    # the functions stats.t.ppf and stats.norm.ppf evaluate, so every
    # value must keep its bits.
    CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999)

    def test_t_quantile_bits_match_stats_t_ppf(self):
        from scipy import stats

        dofs = np.arange(1, 5000)
        for c in self.CONFIDENCES:
            expected = stats.t.ppf(1.0 - (1.0 - c) / 2.0, dofs)
            got = np.array([t_quantile(c, int(d)) for d in dofs])
            assert np.array_equal(got, expected), c

    def test_z_quantile_bits_match_stats_norm_ppf(self):
        from scipy import special, stats

        q = np.linspace(0.5, 1.0, 200_002)[:-1]
        assert np.array_equal(special.ndtri(q), stats.norm.ppf(q))
        for c in self.CONFIDENCES:
            assert z_quantile(c) == float(
                stats.norm.ppf(1.0 - (1.0 - c) / 2.0)
            )


class TestFpc:
    def test_full_census_zero(self):
        assert finite_population_correction(100, 100) == 0.0

    def test_tiny_sample_near_one(self):
        assert finite_population_correction(1, 10_000) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_half_sample(self):
        # n = N/2: factor = sqrt((N/2)/(N-1)) ≈ sqrt(0.5).
        assert finite_population_correction(500, 1000) == pytest.approx(
            np.sqrt(500 / 999)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="population"):
            finite_population_correction(1, 1)
        with pytest.raises(ValueError, match="1 <= n"):
            finite_population_correction(0, 10)
        with pytest.raises(ValueError, match="1 <= n"):
            finite_population_correction(11, 10)

    @given(st.integers(min_value=2, max_value=999))
    def test_fpc_in_unit_interval(self, n):
        f = finite_population_correction(n, 1000)
        assert 0.0 <= f <= 1.0


class TestConfidenceInterval:
    def test_bounds(self):
        ci = ConfidenceInterval(mean=100.0, half_width=5.0, confidence=0.95)
        assert ci.lower == 95.0
        assert ci.upper == 105.0
        assert ci.relative_half_width == pytest.approx(0.05)

    def test_contains(self):
        ci = ConfidenceInterval(100.0, 5.0, 0.95)
        assert ci.contains(100.0)
        assert ci.contains(95.0) and ci.contains(105.0)
        assert not ci.contains(94.9)

    def test_scaled(self):
        ci = ConfidenceInterval(100.0, 5.0, 0.95).scaled(64)
        assert ci.mean == 6400.0
        assert ci.half_width == 320.0
        assert ci.relative_half_width == pytest.approx(0.05)

    def test_str(self):
        s = str(ConfidenceInterval(100.0, 5.0, 0.95, "t"))
        assert "95%" in s and "t-CI" in s

    def test_validation(self):
        with pytest.raises(ValueError, match="half_width"):
            ConfidenceInterval(1.0, -0.1, 0.95)
        with pytest.raises(ValueError, match="method"):
            ConfidenceInterval(1.0, 0.1, 0.95, method="w")
        with pytest.raises(ValueError, match="undefined"):
            _ = ConfidenceInterval(0.0, 0.1, 0.95).relative_half_width


class TestMeanConfidenceInterval:
    def test_matches_formula(self, rng):
        x = rng.normal(200.0, 5.0, 25)
        ci = mean_confidence_interval(x, confidence=0.95, method="t")
        expected_hw = t_quantile(0.95, 24) * x.std(ddof=1) / np.sqrt(25)
        assert ci.mean == pytest.approx(x.mean())
        assert ci.half_width == pytest.approx(expected_hw)

    def test_z_narrower_than_t(self, rng):
        x = rng.normal(100.0, 3.0, 10)
        t_ci = mean_confidence_interval(x, method="t")
        z_ci = mean_confidence_interval(x, method="z")
        assert z_ci.half_width < t_ci.half_width

    def test_fpc_shrinks_interval(self, rng):
        x = rng.normal(100.0, 3.0, 50)
        plain = mean_confidence_interval(x)
        corrected = mean_confidence_interval(x, population=60)
        assert corrected.half_width < plain.half_width

    def test_width_shrinks_with_n(self, rng):
        base = rng.normal(100.0, 3.0, 400)
        small = mean_confidence_interval(base[:16])
        large = mean_confidence_interval(base)
        assert large.half_width < small.half_width

    def test_empirical_coverage(self, rng):
        # 95% t-intervals on normal data must cover ~95% of the time.
        hits = 0
        trials = 2000
        for _ in range(trials):
            x = rng.normal(50.0, 4.0, 12)
            ci = mean_confidence_interval(x, confidence=0.95)
            hits += ci.contains(50.0)
        assert hits / trials == pytest.approx(0.95, abs=0.02)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least two"):
            mean_confidence_interval([5.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            mean_confidence_interval([1.0, float("nan")])

    def test_bad_method(self, rng):
        with pytest.raises(ValueError, match="method"):
            mean_confidence_interval(rng.normal(size=5), method="bayes")

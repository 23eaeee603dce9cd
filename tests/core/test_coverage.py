"""Tests for repro.core.coverage — the Figure 3 engine."""

import numpy as np
import pytest

from repro.core.coverage import coverage_study


@pytest.fixture()
def normal_pilot(rng):
    return rng.normal(210.0, 5.3, 516)


class TestCoverageStudy:
    def test_t_calibrated_on_normal_data(self, normal_pilot, rng):
        res = coverage_study(
            normal_pilot, population=9216, sample_sizes=(3, 5, 10),
            n_sims=30_000, rng=rng,
        )
        assert res.max_miscalibration() < 0.012
        assert res.is_calibrated(tolerance=0.012)

    def test_result_shape(self, normal_pilot, rng):
        res = coverage_study(
            normal_pilot, population=2000, sample_sizes=(5, 10),
            confidences=(0.80, 0.95), n_sims=2000, rng=rng,
        )
        assert res.coverage.shape == (2, 2)
        assert res.standard_error.shape == (2, 2)

    def test_coverage_for_lookup(self, normal_pilot, rng):
        res = coverage_study(
            normal_pilot, population=2000, sample_sizes=(5,),
            confidences=(0.80, 0.95), n_sims=2000, rng=rng,
        )
        np.testing.assert_array_equal(
            res.coverage_for(0.95), res.coverage[1]
        )
        with pytest.raises(KeyError):
            res.coverage_for(0.90)

    def test_z_undercovers_at_small_n(self, normal_pilot):
        res_z = coverage_study(
            normal_pilot, population=9216, sample_sizes=(5,),
            confidences=(0.95,), n_sims=50_000, method="z",
            rng=np.random.default_rng(0),
        )
        # z at n=5: intervals far too narrow → well under 95%.
        assert res_z.coverage[0, 0] < 0.92

    def test_deterministic(self, normal_pilot):
        a = coverage_study(
            normal_pilot, population=1000, sample_sizes=(5,),
            n_sims=5000, rng=np.random.default_rng(3),
        )
        b = coverage_study(
            normal_pilot, population=1000, sample_sizes=(5,),
            n_sims=5000, rng=np.random.default_rng(3),
        )
        np.testing.assert_array_equal(a.coverage, b.coverage)

    def test_small_population_exact_path(self, rng):
        # population − n below the CLT threshold exercises the exact
        # multinomial branch.
        pilot = rng.normal(100.0, 4.0, 60)
        res = coverage_study(
            pilot, population=500, sample_sizes=(5, 20),
            confidences=(0.95,), n_sims=20_000, rng=rng,
        )
        assert abs(res.coverage[0, 0] - 0.95) < 0.015
        assert abs(res.coverage[0, 1] - 0.95) < 0.015

    def test_census_sample(self, rng):
        # n == population: the sample mean IS the population mean, so
        # coverage is 1 regardless of the interval.
        pilot = rng.normal(100.0, 4.0, 40)
        res = coverage_study(
            pilot, population=10, sample_sizes=(10,),
            confidences=(0.95,), n_sims=2000, rng=rng,
        )
        assert res.coverage[0, 0] == 1.0

    def test_outlier_contamination_still_calibrated(self, rng):
        # The paper's core robustness finding: mild outliers do not
        # break calibration at n >= 5.
        pilot = rng.normal(210.0, 5.0, 516)
        outliers = rng.choice(516, size=6, replace=False)
        pilot[outliers] += rng.uniform(25.0, 60.0, size=6)
        res = coverage_study(
            pilot, population=9216, sample_sizes=(5, 10, 20),
            n_sims=40_000, rng=rng,
        )
        assert res.max_miscalibration() < 0.02

    def test_partial_trailing_block(self, normal_pilot):
        # n_sims that is not a multiple of RNG_BLOCK still runs every
        # replicate (coverage is a fraction of exactly n_sims).
        from repro.core.coverage import RNG_BLOCK

        n_sims = RNG_BLOCK + 17
        res = coverage_study(
            normal_pilot, population=2000, sample_sizes=(5,),
            confidences=(0.95,), n_sims=n_sims,
            rng=np.random.default_rng(1),
        )
        hits = res.coverage[0, 0] * n_sims
        assert abs(hits - round(hits)) < 1e-9

    def test_validation(self, normal_pilot, rng):
        with pytest.raises(ValueError, match="at least two"):
            coverage_study([1.0], population=100, rng=rng)
        with pytest.raises(ValueError, match="smaller than"):
            coverage_study(normal_pilot, population=5,
                           sample_sizes=(10,), rng=rng)
        with pytest.raises(ValueError, match=">= 2"):
            coverage_study(normal_pilot, population=100,
                           sample_sizes=(1,), rng=rng)
        with pytest.raises(ValueError, match="method"):
            coverage_study(normal_pilot, population=100,
                           sample_sizes=(5,), method="bootstrap", rng=rng)
        with pytest.raises(ValueError, match="n_sims"):
            coverage_study(normal_pilot, population=100,
                           sample_sizes=(5,), n_sims=0, rng=rng)

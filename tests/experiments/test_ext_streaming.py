"""Tests for the X-STR streaming-vs-batch experiment."""

import numpy as np
import pytest

from repro.experiments import ext_streaming
from repro.experiments.table5 import PAPER_TABLE5


@pytest.fixture(scope="module")
def result():
    return ext_streaming.run()


class TestStreamingExperiment:
    def test_all_ok(self, result):
        assert result.all_ok(), "\n".join(
            c.line() for c in result.comparisons() if not c.ok
        )

    def test_moments_exact(self, result):
        for label, (streamed, batch) in result.moment_pairs.items():
            assert streamed == pytest.approx(batch, rel=1e-9), label

    def test_sequential_grid_matches_table5(self, result):
        np.testing.assert_array_equal(
            result.sequential_grid, PAPER_TABLE5
        )

    def test_stationary_quantiles_tight(self, result):
        for _, (streamed, exact) in result.stationary_quantiles.items():
            assert abs(streamed - exact) / exact < 0.01

    def test_merges_exact(self, result):
        # Moments merge exactly (re-shifted sums); the sketch merges by
        # count addition, so its merged median is the single pass's.
        assert result.merge_rel_err <= 1e-9
        assert result.merge_sketch_rel_err == 0.0

    def test_hpl_quantiles_within_the_sketch_bound(self, result):
        # α = 0.5% against the order statistic; np.quantile interpolates
        # between neighbours, which the 1% bar leaves room for.
        for _, (streamed, exact) in result.hpl_quantiles.items():
            assert abs(streamed - exact) / exact < 0.01

    def test_report_renders(self, result):
        text = result.report()
        assert "moment agreement" in text
        assert "exact match with Table 5: True" in text

    def test_registered_in_runner(self):
        from repro.experiments.runner import ALL_EXPERIMENTS

        assert ALL_EXPERIMENTS["X-STR"] is ext_streaming.run

"""Tests for the experiment modules (reduced-scale where expensive).

These assert the *reproduction claims*: each experiment regenerates its
paper artefact within tolerance.  Statistical experiments run with
reduced replicate counts here; the benchmark harness runs them at
paper scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    figure1,
    figure2,
    figure3,
    figure4,
    gaming_case_studies,
    level1_variance,
    ranking,
    sample_size_example,
    t_vs_z,
    table2,
    table4,
    table5,
)
from repro.experiments.runner import ALL_EXPERIMENTS, run_all


class TestTable2:
    def test_all_within_tolerance(self):
        res = table2.run()
        assert res.all_ok(), "\n".join(
            c.line() for c in res.comparisons() if not c.ok
        )

    def test_gpu_systems_show_large_spread(self):
        res = table2.run()
        spread = {r.system: r.first_vs_last_spread for r in res.rows}
        assert spread["l-csc"] > 0.20
        assert spread["piz-daint"] > 0.15
        assert abs(spread["colosse"]) < 0.01

    def test_report_renders(self):
        out = table2.run().report()
        assert "Table 2" in out and "sequoia" in out


class TestFigure1:
    def test_shapes(self):
        res = figure1.run(n_points=100)
        assert res.all_ok()
        shapes = {s.system: s.is_flat for s in res.series}
        assert shapes["colosse"] and shapes["sequoia"]
        assert not shapes["piz-daint"] and not shapes["l-csc"]

    def test_series_resolution(self):
        res = figure1.run(n_points=50)
        for s in res.series:
            assert 40 <= len(s.times) <= 60
            assert s.times[0] == pytest.approx(0.0)
            assert s.times[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_points"):
            figure1.run(n_points=5)


class TestFigure2:
    def test_all_ok(self):
        res = figure2.run()
        assert res.all_ok(), "\n".join(
            c.line() for c in res.comparisons() if not c.ok
        )

    def test_six_panels(self):
        assert len(figure2.run().panels) == 6


class TestTable4:
    def test_all_ok(self):
        res = table4.run()
        assert res.all_ok()

    def test_cv_band(self):
        res = table4.run()
        for row in res.rows:
            assert 0.014 < row.cv < 0.031


class TestTable5:
    def test_exact_reproduction(self):
        res = table5.run()
        np.testing.assert_array_equal(res.grid, table5.PAPER_TABLE5)
        assert res.all_ok()

    def test_other_population(self):
        # FPC matters less at N=100k: entries can only grow or stay.
        res = table5.run(n_nodes=100_000)
        assert np.all(res.grid >= table5.PAPER_TABLE5)


class TestFigure3:
    def test_reduced_scale_calibrated(self):
        res = figure3.run(n_sims=20_000, sample_sizes=(3, 5, 15))
        assert res.all_ok(), "\n".join(
            c.line() for c in res.comparisons() if not c.ok
        )

    def test_pilot_size(self):
        res = figure3.run(n_sims=5_000, sample_sizes=(5,))
        assert res.pilot_size == 516


class TestFigure4:
    def test_all_ok(self):
        res = figure4.run()
        assert res.all_ok(), "\n".join(
            c.line() for c in res.comparisons() if not c.ok
        )

    def test_default_config_trend(self):
        res = figure4.run()
        vids = np.array([r.vid for r in res.rows], dtype=float)
        eff = np.array([r.eff_default for r in res.rows])
        assert np.polyfit(vids, eff, 1)[0] < 0

    def test_validation(self):
        with pytest.raises(ValueError, match="four nodes"):
            figure4.run(n_nodes=2)


class TestGaming:
    def test_all_ok(self):
        res = gaming_case_studies.run()
        assert res.all_ok(), "\n".join(
            c.line() for c in res.comparisons() if not c.ok
        )

    def test_tsubame_fit_tight(self):
        res = gaming_case_studies.run()
        ts = next(c for c in res.cases if c.system == "tsubame-kfc")
        assert ts.measured_value == pytest.approx(0.109, abs=0.005)


class TestSampleSizeExample:
    def test_all_ok(self):
        assert sample_size_example.run().all_ok()


class TestLevel1Variance:
    def test_reduced_scale(self):
        res = level1_variance.run(n_trials=60)
        # The headline claims at reduced trial counts.
        worst_timing = max(r.timing_spread for r in res.rows)
        assert worst_timing > 0.15
        worst_sampling = max(r.sampling_spread for r in res.rows)
        assert worst_sampling > 0.04

    def test_validation(self):
        with pytest.raises(ValueError, match="n_trials"):
            level1_variance.run(n_trials=5)


class TestTvsZ:
    def test_reduced_scale(self):
        res = t_vs_z.run(n_sims=20_000)
        assert res.all_ok(), "\n".join(
            c.line() for c in res.comparisons() if not c.ok
        )

    def test_width_deficit_value(self):
        res = t_vs_z.run(n_sims=1000)
        assert res.width_deficit == pytest.approx(0.086, abs=0.005)

    def test_deficit_shrinks_with_n(self):
        res = t_vs_z.run(n_sims=1000)
        ns = sorted(res.deficit_by_n)
        vals = [res.deficit_by_n[n] for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestRanking:
    def test_all_ok(self):
        res = ranking.run(n_trials=150)
        assert res.all_ok(), "\n".join(
            c.line() for c in res.comparisons() if not c.ok
        )


class TestRunner:
    def test_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "T2", "F1", "F2", "T4", "T5", "F3", "F4", "G1", "S1", "V1",
            "Z1", "R1", "X1", "X2", "X3", "X4", "X5", "X6", "X-STR",
            "X-FAULT", "X-WIRE", "X-PATH",
        }

    def test_run_selected(self):
        results = run_all(ids=["T5", "S1"], verbose=False)
        assert set(results) == {"T5", "S1"}
        assert all(r.all_ok() for r in results.values())

    def test_unknown_id_rejected_before_any_work(self):
        with pytest.raises(KeyError, match="unknown") as excinfo:
            run_all(ids=["T5", "XX"], verbose=False)
        # The error names the offenders and the known ids.
        assert "XX" in str(excinfo.value)
        assert "T5" in str(excinfo.value)

    def test_unknown_id_rejected_in_parallel_mode(self):
        with pytest.raises(KeyError, match="unknown"):
            run_all(ids=["XX"], verbose=False, jobs=2)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate") as excinfo:
            run_all(ids=["T5", "S1", "T5"], verbose=False)
        assert "T5" in str(excinfo.value)

    def test_duplicate_ids_rejected_in_parallel_mode(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_all(ids=["S1", "S1"], verbose=False, jobs=2)

    def test_experiments_markdown(self):
        from repro.experiments.runner import experiments_markdown

        results = run_all(ids=["T5"], verbose=False)
        text = experiments_markdown(results)
        assert "# EXPERIMENTS" in text
        assert "T5" in text and "[PASS]" in text
        assert "```" in text

"""Tests for the repro CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.cluster.registry import NODE_VARIABILITY_SYSTEMS, TRACE_SYSTEMS


class TestPlan:
    def test_basic_plan(self, capsys):
        rc = main(["plan", "--nodes", "10000", "--cv", "0.03",
                   "--accuracy", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "measure 35 of 10000 nodes" in out
        assert "post-2015 submission rule" in out

    def test_plan_notes_when_target_exceeds_rule(self, capsys):
        rc = main(["plan", "--nodes", "200", "--cv", "0.05",
                   "--accuracy", "0.002"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "more nodes than the submission rule" in out

    def test_plan_with_pilot(self, capsys):
        rng = np.random.default_rng(0)
        pilot = ",".join(f"{w:.2f}" for w in rng.normal(210, 5, 10))
        rc = main(["plan", "--nodes", "9216", "--pilot", pilot])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pilot of 10 nodes" in out

    def test_bad_pilot(self):
        with pytest.raises(SystemExit, match="parse"):
            main(["plan", "--nodes", "100", "--pilot", "1.0,abc"])


class TestAssess:
    def test_meets_target(self, capsys):
        rng = np.random.default_rng(1)
        watts = ",".join(f"{w:.2f}" for w in rng.normal(400, 8, 35))
        rc = main(["assess", "--nodes", "10000", "--watts", watts,
                   "--target", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "meets" in out

    def test_misses_target_exit_code(self, capsys):
        rng = np.random.default_rng(1)
        watts = ",".join(f"{w:.2f}" for w in rng.normal(400, 40, 4))
        rc = main(["assess", "--nodes", "10000", "--watts", watts,
                   "--target", "0.001"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "MISSES" in out

    def test_no_target(self, capsys):
        rc = main(["assess", "--nodes", "100",
                   "--watts", "400,410,395,405"])
        assert rc == 0

    def test_too_few_watts(self):
        with pytest.raises(SystemExit, match="at least two"):
            main(["assess", "--nodes", "100", "--watts", "400"])

    def test_empty_watts(self):
        with pytest.raises(SystemExit, match="empty"):
            main(["assess", "--nodes", "100", "--watts", ","])

    def test_nan_watts_rejected(self):
        with pytest.raises(SystemExit, match="finite"):
            main(["assess", "--nodes", "100", "--watts", "100,nan,102"])

    def test_inf_watts_rejected(self):
        with pytest.raises(SystemExit, match="finite"):
            main(["assess", "--nodes", "100", "--watts", "100,inf,102"])

    def test_negative_watts_rejected(self):
        with pytest.raises(SystemExit, match="non-negative"):
            main(["assess", "--nodes", "100", "--watts", "100,-4.0,102"])

    def test_unparseable_watts_chain_cause(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "--nodes", "100", "--pilot", "1.0,abc"])
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestStream:
    def test_text_replay(self, capsys):
        rc = main(["stream", "--system", "l-csc", "--dt", "4",
                   "--max-nodes", "12", "--accuracy", "0.05",
                   "--report-every", "1200"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final stream state" in out
        assert "sequential stopping" in out
        assert "full-core compliant" in out

    def test_json_replay(self, capsys):
        import json

        rc = main(["stream", "--system", "l-csc", "--dt", "4",
                   "--max-nodes", "12", "--accuracy", "0.05",
                   "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["monitor"]["full_core_compliant"] is True
        assert payload["stopping"]["should_stop"] is True
        assert payload["samples_ingested"] > 0
        assert payload["quantile_rel_error"] == 0.005

    def test_bad_quantiles(self):
        with pytest.raises(SystemExit, match="quantiles"):
            main(["stream", "--system", "l-csc", "--quantiles", "1.5"])


class TestReplayArgs:
    """``--system`` and ``--max-nodes`` behave alike in every subcommand."""

    @pytest.mark.parametrize("command", ["stream", "shard", "chaos", "wire"])
    def test_unknown_system(self, command):
        known = ", ".join((*TRACE_SYSTEMS, *NODE_VARIABILITY_SYSTEMS))
        with pytest.raises(SystemExit) as exc:
            main([command, "--system", "not-a-machine"])
        assert str(exc.value) == (
            f"error: unknown system 'not-a-machine' (known: {known})"
        )

    @pytest.mark.parametrize("command", ["stream", "chaos", "wire"])
    def test_bad_max_nodes(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--system", "l-csc", "--max-nodes", "0"])
        assert str(exc.value) == "error: --max-nodes must be >= 1"


class TestBudget:
    def test_feasible(self, capsys):
        rc = main(["budget", "--nodes", "10000", "--cv", "0.025",
                   "--accuracy", "0.02", "--meters", "4",
                   "--meter-gain-cv", "0.002"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FEASIBLE" in out
        assert "error budget" in out

    def test_partial_window_infeasible_on_gpu(self, capsys):
        rc = main(["budget", "--nodes", "10000", "--cv", "0.02",
                   "--accuracy", "0.02", "--partial-window",
                   "--machine-class", "gpu"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "NOT FEASIBLE" in out
        assert "window_bias" in out

    def test_conversion_error_included(self, capsys):
        rc = main(["budget", "--nodes", "1000", "--conversion-error",
                   "0.03"])
        out = capsys.readouterr().out
        assert "conversion modeling:     ±3.00%" in out


class TestSystems:
    def test_lists_registry(self, capsys):
        rc = main(["systems"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("lrz", "titan", "tu-dresden", "l-csc", "sequoia"):
            assert name in out


class TestExperiments:
    def test_run_one(self, capsys):
        rc = main(["experiments", "T5", "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "within tolerance" in out

    def test_markdown_output(self, tmp_path, capsys):
        path = tmp_path / "exp.md"
        rc = main(["experiments", "S1", "--quiet", "--markdown", str(path)])
        assert rc == 0
        text = path.read_text()
        assert "S1" in text and "paper" in text


class TestRun:
    def test_unknown_id_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["run", "NOPE", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_no_cache_writes_markdown(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "exp.md"
        rc = main(["run", "--no-cache", "S1", "--quiet",
                   "--markdown", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"wrote {path}" in out
        assert "all 1 experiments within tolerance" in out
        assert "S1" in path.read_text()
        assert not (tmp_path / ".repro-cache").exists()

    def test_cache_is_on_by_default(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        first, second = tmp_path / "first.md", tmp_path / "second.md"
        for path in (first, second):
            rc = main(["run", "S1", "--quiet", "--cache-dir",
                       str(cache_dir), "--markdown", str(path)])
            assert rc == 0
        assert list((cache_dir / "results").rglob("*.pkl"))
        assert first.read_text() == second.read_text()


class TestLint:
    CLEAN = '"""Clean."""\n\n__all__ = ["f"]\n\n\ndef f(x):\n    """Id."""\n    return x\n'
    DIRTY = '"""Dirty."""\n\nHOUR = 3600.0\n'

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(self.CLEAN)
        rc = main(["lint", str(tmp_path), "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 findings" in out

    def test_findings_exit_one_with_locations(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(self.DIRTY)
        rc = main(["lint", str(tmp_path), "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mod.py:3:" in out and "RPX002" in out

    def test_json_format(self, tmp_path, capsys):
        import json

        (tmp_path / "mod.py").write_text(self.DIRTY)
        rc = main(["lint", str(tmp_path), "--no-cache", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["files_scanned"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["RPX002"]
        assert payload["findings"][0]["line"] == 3

    def test_json_format_clean(self, tmp_path, capsys):
        import json

        (tmp_path / "mod.py").write_text(self.CLEAN)
        rc = main(["lint", str(tmp_path), "--no-cache", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["findings"] == []

    def test_ignore_flag_disables_rule(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(self.DIRTY)
        rc = main(["lint", str(tmp_path), "--no-cache", "--ignore", "RPX002"])
        assert rc == 0

    def test_select_flag_runs_only_named_rule(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(self.DIRTY)
        rc = main(["lint", str(tmp_path), "--no-cache", "--select", "RPX001"])
        assert rc == 0

    def test_semantic_select_without_semantic_is_refused(self, tmp_path,
                                                          capsys):
        (tmp_path / "mod.py").write_text(self.DIRTY)
        rc = main(["lint", str(tmp_path), "--no-cache", "--select", "RPX101"])
        assert rc == 2
        assert "--select RPX101 requires --semantic" in capsys.readouterr().err

    def test_bare_string_config_value_is_refused(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro.lint]\nexclude = "*/fixtures/*"\n'
        )
        (tmp_path / "mod.py").write_text(self.DIRTY)
        rc = main(["lint", str(tmp_path), "--no-cache"])
        assert rc == 2
        assert "exclude must be a list of strings" in capsys.readouterr().err

    def test_cache_round_trip(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(self.DIRTY)
        cache = tmp_path / "cache.json"
        main(["lint", str(tmp_path), "--cache-file", str(cache)])
        capsys.readouterr()
        rc = main(["lint", str(tmp_path), "--cache-file", str(cache)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "(1 cached)" in out

    def test_self_lint_on_repo_source(self, capsys):
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        rc = main(["lint", str(src), "--no-cache"])
        assert rc == 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

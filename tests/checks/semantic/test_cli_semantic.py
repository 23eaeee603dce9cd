"""CLI regression tests for ``repro lint --semantic`` and friends."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def _copy_fixture(name: str, tmp_path: Path) -> Path:
    root = tmp_path / name
    shutil.copytree(FIXTURES / name, root)
    return root


class TestUnknownRuleIds:
    def test_select_unknown_id_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown rule id.*RPX999"):
            main(["lint", str(tmp_path), "--no-cache", "--select", "RPX999"])

    def test_ignore_unknown_id_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown rule id.*RPX042"):
            main(["lint", str(tmp_path), "--no-cache", "--ignore", "RPX042"])

    def test_error_lists_the_known_ids(self, tmp_path):
        with pytest.raises(SystemExit, match="RPX001.*RPX101"):
            main(["lint", str(tmp_path), "--no-cache", "--select", "RPXnope"])

    def test_semantic_ids_are_legal_selectors(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        rc = main(["lint", str(tmp_path), "--no-cache", "--semantic",
                   "--select", "RPX102,RPX103",
                   "--baseline", str(tmp_path / "baseline.json")])
        assert rc == 0

    def test_typo_in_a_list_is_caught(self, tmp_path):
        with pytest.raises(SystemExit, match="RPX10"):
            main(["lint", str(tmp_path), "--no-cache",
                  "--select", "RPX101,RPX10"])


class TestSemanticFlag:
    def test_cross_module_violation_fails_the_run(self, tmp_path, capsys):
        root = _copy_fixture("rpx102_fail", tmp_path)
        rc = main(["lint", str(root), "--no-cache", "--semantic",
                   "--select", "RPX102",
                   "--baseline", str(tmp_path / "baseline.json")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RPX102" in out and "time.time_ns" in out

    def test_without_semantic_the_same_tree_passes(self, tmp_path, capsys):
        # Only the wall-clock read itself is visible to the per-file
        # rules (RPX004); the cross-module taint is not.
        root = _copy_fixture("rpx102_fail", tmp_path)
        rc = main(["lint", str(root), "--no-cache", "--ignore", "RPX004"])
        assert rc == 0
        assert "RPX102" not in capsys.readouterr().out

    def test_write_baseline_then_rerun_is_clean(self, tmp_path, capsys):
        root = _copy_fixture("rpx102_fail", tmp_path)
        baseline = tmp_path / "baseline.json"
        rc = main(["lint", str(root), "--no-cache", "--semantic",
                   "--select", "RPX102", "--baseline", str(baseline),
                   "--write-baseline"])
        assert rc == 0
        assert "wrote 1 accepted finding" in capsys.readouterr().out
        data = json.loads(baseline.read_text())
        assert data["entries"][0]["rule"] == "RPX102"

        rc = main(["lint", str(root), "--no-cache", "--semantic",
                   "--select", "RPX102", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 baseline-accepted finding(s) not shown" in out

    def test_no_baseline_reports_accepted_findings_again(self, tmp_path):
        root = _copy_fixture("rpx102_fail", tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["lint", str(root), "--no-cache", "--semantic",
              "--select", "RPX102", "--baseline", str(baseline),
              "--write-baseline"])
        rc = main(["lint", str(root), "--no-cache", "--semantic",
                   "--select", "RPX102", "--baseline", str(baseline),
                   "--no-baseline"])
        assert rc == 1

    def test_stale_baseline_entry_warns(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": "1",
            "entries": [{"rule": "RPX102", "path": "gone.py",
                         "message": "fixed ages ago",
                         "justification": "obsolete"}],
        }))
        rc = main(["lint", str(tmp_path), "--no-cache", "--semantic",
                   "--select", "RPX102", "--baseline", str(baseline)])
        err = capsys.readouterr().err
        assert rc == 0
        assert "stale baseline entry" in err

    def test_write_baseline_requires_semantic(self, tmp_path):
        with pytest.raises(SystemExit, match="requires --semantic"):
            main(["lint", str(tmp_path), "--no-cache", "--write-baseline"])


class TestSarifOutput:
    def test_sarif_file_is_written_and_valid_json(self, tmp_path, capsys):
        root = _copy_fixture("rpx102_fail", tmp_path)
        sarif = tmp_path / "lint.sarif"
        rc = main(["lint", str(root), "--no-cache", "--semantic",
                   "--select", "RPX102",
                   "--baseline", str(tmp_path / "baseline.json"),
                   "--sarif", str(sarif)])
        assert rc == 1
        doc = json.loads(sarif.read_text())
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["RPX102"]
        assert results[0]["baselineState"] == "new"

    def test_sarif_includes_accepted_as_unchanged(self, tmp_path):
        root = _copy_fixture("rpx102_fail", tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["lint", str(root), "--no-cache", "--semantic",
              "--select", "RPX102", "--baseline", str(baseline),
              "--write-baseline"])
        sarif = tmp_path / "lint.sarif"
        rc = main(["lint", str(root), "--no-cache", "--semantic",
                   "--select", "RPX102", "--baseline", str(baseline),
                   "--sarif", str(sarif)])
        assert rc == 0
        results = json.loads(sarif.read_text())["runs"][0]["results"]
        assert [r["baselineState"] for r in results] == ["unchanged"]

    def test_sarif_without_semantic_covers_perfile_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nv = np.random.rand(3)\n"
        )
        sarif = tmp_path / "lint.sarif"
        rc = main(["lint", str(tmp_path), "--no-cache",
                   "--sarif", str(sarif)])
        assert rc == 1
        doc = json.loads(sarif.read_text())
        assert any(
            r["ruleId"].startswith("RPX00")
            for r in doc["runs"][0]["results"]
        )


class TestSummaryCacheViaCli:
    def test_second_run_reports_cached_summaries(self, tmp_path, capsys):
        root = _copy_fixture("rpx103_pass", tmp_path)
        cache = tmp_path / "cache.json"
        main(["lint", str(root), "--semantic", "--cache-file", str(cache),
              "--baseline", str(tmp_path / "baseline.json")])
        capsys.readouterr()
        rc = main(["lint", str(root), "--semantic",
                   "--cache-file", str(cache),
                   "--baseline", str(tmp_path / "baseline.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "semantic summaries" in out and "cached" in out

"""Engine-level tests: noqa parsing, caching, parallel scan, reports."""

import json
from pathlib import Path

from repro.checks import (
    PARSE_ERROR_ID,
    Finding,
    LintCache,
    LintConfig,
    cache_key,
    check_source,
    default_rules,
    iter_python_files,
    noqa_map,
    run_lint,
)

CLEAN = '"""A clean module."""\n\n__all__ = ["f"]\n\n\ndef f(x):\n    """Double."""\n    return 2 * x\n'
DIRTY = '"""A module with one violation."""\n\nHOUR = 3600.0\n'


class TestNoqaParsing:
    def test_bare_noqa_means_all(self):
        assert noqa_map(["x = 1  # repro: noqa"]) == {1: None}

    def test_single_and_multiple_ids(self):
        mapping = noqa_map(
            ["a  # repro: noqa RPX001", "b  # repro: noqa RPX002, RPX003"]
        )
        assert mapping[1] == frozenset({"RPX001"})
        assert mapping[2] == frozenset({"RPX002", "RPX003"})

    def test_colon_separator_accepted(self):
        assert noqa_map(["a  # repro: noqa: RPX004"])[1] == frozenset({"RPX004"})

    def test_unrelated_comments_ignored(self):
        assert noqa_map(["x = 1  # a comment", "y = 2"]) == {}


class TestCheckSource:
    def test_syntax_error_yields_parse_finding(self):
        findings = check_source("def broken(:\n", "bad.py", default_rules())
        assert len(findings) == 1
        assert findings[0].rule_id == PARSE_ERROR_ID

    def test_findings_sorted_by_position(self):
        src = "B = 3600.0\nA = 3600.0\n"
        findings = check_source(src, "m.py", default_rules())
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestFindingSerialisation:
    def test_roundtrip(self):
        f = Finding(path="a.py", line=3, col=7, rule_id="RPX002", message="m")
        assert Finding.from_dict(f.to_dict()) == f

    def test_format_shape(self):
        f = Finding(path="a.py", line=3, col=7, rule_id="RPX002", message="m")
        assert f.format() == "a.py:3:7: RPX002 m"


class TestRunLint:
    def make_tree(self, tmp_path):
        (tmp_path / "clean.py").write_text(CLEAN)
        (tmp_path / "dirty.py").write_text(DIRTY)
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "also_clean.py").write_text(CLEAN)
        return tmp_path

    def test_scans_directories_recursively(self, tmp_path):
        root = self.make_tree(tmp_path)
        report = run_lint([root])
        assert report.files_scanned == 3
        assert [f.rule_id for f in report.findings] == ["RPX002"]
        assert report.findings[0].path.endswith("dirty.py")

    def test_exclude_patterns(self, tmp_path):
        root = self.make_tree(tmp_path)
        config = LintConfig(exclude=("dirty.py",))
        report = run_lint([root], config=config)
        assert report.ok
        assert report.files_scanned == 2

    def test_single_file_target(self, tmp_path):
        root = self.make_tree(tmp_path)
        report = run_lint([root / "dirty.py"])
        assert not report.ok
        assert report.files_scanned == 1

    def test_json_report_parses(self, tmp_path):
        root = self.make_tree(tmp_path)
        payload = json.loads(run_lint([root]).render_json())
        assert payload["files_scanned"] == 3
        assert payload["findings"][0]["rule"] == "RPX002"


class TestCache:
    def test_second_run_hits_cache(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY)
        cache_path = tmp_path / "cache.json"
        first = run_lint([tmp_path], cache=LintCache(cache_path))
        assert first.cache_hits == 0
        assert cache_path.exists()
        second = run_lint([tmp_path], cache=LintCache(cache_path))
        assert second.cache_hits == second.files_scanned
        assert second.findings == first.findings

    def test_content_change_invalidates(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(DIRTY)
        cache_path = tmp_path / "cache.json"
        run_lint([tmp_path], cache=LintCache(cache_path))
        target.write_text(CLEAN)
        report = run_lint([tmp_path], cache=LintCache(cache_path))
        assert report.cache_hits == 0
        assert report.ok

    def test_key_depends_on_rules_and_config(self):
        rules = default_rules()
        base = cache_key(b"x = 1\n", rules, LintConfig())
        assert cache_key(b"x = 2\n", rules, LintConfig()) != base
        assert cache_key(b"x = 1\n", rules[:1], LintConfig()) != base
        assert cache_key(b"x = 1\n", rules, LintConfig(ignore=("RPX001",))) != base

    def test_corrupt_cache_degrades_gracefully(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        (tmp_path / "mod.py").write_text(CLEAN)
        report = run_lint([tmp_path / "mod.py"], cache=LintCache(cache_path))
        assert report.ok


class TestRuleSelection:
    def test_select_restricts(self):
        rules = default_rules(LintConfig(select=("RPX001", "RPX003")))
        assert sorted(r.rule_id for r in rules) == ["RPX001", "RPX003"]

    def test_ignore_removes(self):
        rules = default_rules(LintConfig(ignore=("RPX006",)))
        assert "RPX006" not in [r.rule_id for r in rules]

    def test_iter_python_files_skips_non_python(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.txt").write_text("not python")
        files = iter_python_files([tmp_path], LintConfig())
        assert [p.name for p in files] == ["a.py"]

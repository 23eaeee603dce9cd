"""Tests for [tool.repro.lint] loading and path matching."""

import pytest

from repro.checks import LintConfig, load_config, path_matches


class TestPathMatches:
    def test_tail_match(self):
        assert path_matches("src/repro/units.py", "repro/units.py")

    def test_full_glob(self):
        assert path_matches("tests/checks/fixtures/x.py", "*/fixtures/*")

    def test_basename_match(self):
        assert path_matches("deep/nested/conftest.py", "conftest.py")

    def test_no_match(self):
        assert not path_matches("src/repro/core/sampling.py", "repro/units.py")


class TestLoadConfig:
    def test_missing_pyproject_gives_defaults(self, tmp_path):
        assert load_config(tmp_path) == LintConfig()

    def test_reads_table_with_dashed_keys(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\n"
            'ignore = ["RPX006"]\n'
            'units-modules = ["mylib/units.py"]\n'
        )
        config = load_config(tmp_path)
        assert config.ignore == ("RPX006",)
        assert config.units_modules == ("mylib/units.py",)

    def test_unknown_keys_ignored(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\nfuture-option = true\njobs = 0\n"
        )
        assert load_config(tmp_path) == LintConfig()

    def test_walks_up_to_parent(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro.lint]\nignore = ["RPX001"]\n'
        )
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert load_config(nested).ignore == ("RPX001",)

    @pytest.mark.parametrize("key, value", [
        ("exclude", '"*/fixtures/*"'),  # would exclude every file
        ("ignore", '"RPX006"'),  # would ignore nothing
    ])
    def test_bare_string_value_is_refused(self, tmp_path, key, value):
        (tmp_path / "pyproject.toml").write_text(
            f"[tool.repro.lint]\n{key} = {value}\n"
        )
        with pytest.raises(ValueError, match=f"{key} must be a list"):
            load_config(tmp_path)

    def test_malformed_toml_gives_defaults(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("not [valid toml")
        assert load_config(tmp_path) == LintConfig()


class TestRuleEnabled:
    def test_select_empty_means_all(self):
        assert LintConfig().rule_enabled("RPX001")

    def test_select_filters(self):
        config = LintConfig(select=("RPX002",))
        assert config.rule_enabled("RPX002")
        assert not config.rule_enabled("RPX001")

    def test_ignore_wins_over_select(self):
        config = LintConfig(select=("RPX002",), ignore=("RPX002",))
        assert not config.rule_enabled("RPX002")

    def test_fingerprint_tracks_fields(self):
        other = LintConfig(ignore=("RPX006",))
        assert LintConfig().fingerprint() != other.fingerprint()

"""Every throughput figure in the docs cites a committed result file.

A ``samples/s`` or ``requests/s`` figure in ``README.md`` or
``docs/*.md`` must name, in its own paragraph, a result file that
exists in the repository: a pytest-benchmark snapshot (``BENCH_*.json``)
or end-to-end run records under ``benchmarks/e2e/results/``.  Brace and
glob patterns such as ``set-{a,b}/fleet-fold-seed*-e2e.json`` are
expanded, and every cited pattern must match at least one file.

A paragraph that also cites an end-to-end metric as ``metrics.<name>``
must state each figure of that metric's unit within the metric's
``BENCHMARK.json`` bound of the median ``value`` over the cited run
records — the prose number may not drift from the measurement it
quotes.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from statistics import median

import pytest

ROOT = Path(__file__).resolve().parent.parent

_FIGURE = re.compile(
    r"(\d[\d,]*(?:\.\d+)?)\s*([kM]?)\s*((?:samples|requests)/s)\b"
)
_RESULT_FILE = re.compile(
    r"\bBENCH_[\w*]+\.json"
    r"|\bbenchmarks/e2e/results/[\w./{},*-]+\.json"
)
_METRIC = re.compile(r"\bmetrics\.(\w+)")
_BRACE = re.compile(r"\{([^{}]*)\}")
_SCALE = {"": 1.0, "k": 1e3, "M": 1e6}


def _doc_paths() -> list[Path]:
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def _paragraphs(text: str) -> list[str]:
    return [p for p in re.split(r"\n\s*\n", text) if p.strip()]


def _expand(pattern: str, root: Path) -> list[Path]:
    """Files matching ``pattern`` (braces, then globs) under ``root``."""
    match = _BRACE.search(pattern)
    if match is not None:
        head, tail = pattern[: match.start()], pattern[match.end():]
        return sorted({
            path
            for option in match.group(1).split(",")
            for path in _expand(head + option + tail, root)
        })
    return sorted(path for path in root.glob(pattern) if path.is_file())


def claim_problems(paragraph: str, root: Path = ROOT) -> list[str]:
    """Why the paragraph's throughput figures are unsupported (or [])."""
    figures = _FIGURE.findall(paragraph)
    if not figures:
        return []
    problems = []
    files: list[Path] = []
    for pattern in _RESULT_FILE.findall(paragraph):
        found = _expand(pattern, root)
        if not found:
            problems.append(f"cited result file {pattern} does not exist")
        files.extend(found)
    if not files:
        return problems or ["figure cites no committed result file"]

    bounds = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bounds["end_to_end"]}
    runs = [
        json.loads(path.read_text())
        for path in files
        if "benchmarks/e2e/results" in path.as_posix()
    ]
    for name in sorted(set(_METRIC.findall(paragraph))):
        if name not in metrics:
            problems.append(f"metrics.{name} is not an end-to-end metric")
            continue
        if not runs:
            problems.append(f"metrics.{name} cited without e2e run records")
            continue
        measured = median(run["metrics"][name]["value"] for run in runs)
        bound = metrics[name]["bound"]
        for number, scale, unit in figures:
            if unit != metrics[name]["unit"]:
                continue
            claimed = float(number.replace(",", "")) * _SCALE[scale]
            if abs(claimed - measured) > bound * measured:
                problems.append(
                    f"{number}{scale} {unit} is more than {bound:.0%} "
                    f"from the median metrics.{name} = {measured:,.0f} "
                    f"over {len(runs)} cited runs"
                )
    return problems


@pytest.mark.parametrize(
    "path", _doc_paths(), ids=lambda p: p.relative_to(ROOT).as_posix()
)
def test_throughput_figures_cite_committed_results(path):
    problems = [
        f"{path.name}: {problem}: {paragraph.strip()[:120]!r}"
        for paragraph in _paragraphs(path.read_text(encoding="utf-8"))
        for problem in claim_problems(paragraph)
    ]
    assert not problems, "\n".join(problems)


def test_the_docs_state_figures_the_check_reads():
    """Guards against a regex change that silently matches nothing."""
    cited = [
        paragraph
        for path in _doc_paths()
        for paragraph in _paragraphs(path.read_text(encoding="utf-8"))
        if _FIGURE.search(paragraph) and _METRIC.search(paragraph)
    ]
    assert len(cited) >= 2


class TestClaimProblems:
    FLEET_FOLD = (
        "`benchmarks/e2e/results/set-{a,b}/fleet-fold-seed*-e2e.json`"
    )

    def test_missing_bench_file_is_reported(self):
        problems = claim_problems(
            "The codec decodes 12 M samples/s (`BENCH_nosuch.json`)."
        )
        assert problems == [
            "cited result file BENCH_nosuch.json does not exist"
        ]

    def test_uncited_figure_is_reported(self):
        assert claim_problems("The fold runs at 46M samples/s.") == [
            "figure cites no committed result file"
        ]

    def test_existing_bench_file_supports_a_figure(self):
        assert claim_problems(
            "Decode clears 10 M samples/s (`BENCH_wire.json`)."
        ) == []

    def test_e2e_figure_within_bound_passes(self):
        assert claim_problems(
            f"About 0.26M samples/s, `metrics.samples_per_s` in "
            f"{self.FLEET_FOLD}."
        ) == []

    def test_e2e_figure_outside_bound_is_reported(self):
        (problem,) = claim_problems(
            f"About 46M samples/s, `metrics.samples_per_s` in "
            f"{self.FLEET_FOLD}."
        )
        assert "more than 25% from the median" in problem
        assert "over 20 cited runs" in problem

    def test_unknown_metric_is_reported(self):
        assert claim_problems(
            f"About 0.26M samples/s, `metrics.speed` in {self.FLEET_FOLD}."
        ) == ["metrics.speed is not an end-to-end metric"]

    def test_other_units_are_not_checked_against_the_metric(self):
        assert claim_problems(
            f"About 0.26M samples/s and 9,000 requests/s, "
            f"`metrics.samples_per_s` in {self.FLEET_FOLD}."
        ) == []

    def test_brace_and_glob_expansion(self):
        files = _expand(
            "benchmarks/e2e/results/set-{a,b}/fleet-fold-seed*-e2e.json",
            ROOT,
        )
        assert len(files) == 20
        assert {f.parent.name for f in files} == {"set-a", "set-b"}

"""Orchestration of the whole-project semantic pass.

:func:`run_semantic_lint` is the programmatic entry point behind
``repro lint --semantic``:

1. build the :class:`ProjectContext` (one parse per module, cached
   summaries),
2. build the :class:`CallGraph` and run every enabled RPX1xx rule,
3. apply the same ``# repro: noqa`` suppression contract the per-file
   engine honours,
4. return a deterministic, sorted report.

Baseline filtering is deliberately *not* applied here — the caller
(CLI, tests) decides how accepted findings gate, because the SARIF
artifact wants both populations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.checks.config import LintConfig
from repro.checks.engine import Finding, LintCache, _apply_noqa, noqa_map
from repro.checks.semantic.callgraph import CallGraph
from repro.checks.semantic.project import ProjectContext
from repro.checks.semantic.rpx101_purity import PurityRule
from repro.checks.semantic.rpx102_taint import SeedTaintRule
from repro.checks.semantic.rpx103_units import UnitDimensionRule

__all__ = [
    "SEMANTIC_RULES",
    "SemanticReport",
    "run_semantic_lint",
    "semantic_rule_index",
]

#: Every registered whole-project rule, in id order.
SEMANTIC_RULES = (PurityRule(), SeedTaintRule(), UnitDimensionRule())


def semantic_rule_index() -> dict[str, object]:
    """Rule id -> rule instance for every semantic rule."""
    return {rule.rule_id: rule for rule in SEMANTIC_RULES}


@dataclass
class SemanticReport:
    """Outcome of one whole-project semantic pass."""

    findings: list[Finding]
    files_scanned: int
    summary_cache_hits: int = 0
    #: files that failed to parse: (path, message) — surfaced as
    #: RPX000 findings by the per-file engine, repeated here so a
    #: standalone semantic run can still see them.
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the project is semantically clean."""
        return not self.findings


def run_semantic_lint(
    paths: Iterable[Path | str],
    config: LintConfig | None = None,
    cache: LintCache | None = None,
    project: ProjectContext | None = None,
) -> SemanticReport:
    """Run the RPX1xx interprocedural rules over a whole project.

    Pass a prebuilt ``project`` to skip re-parsing (the benchmark does
    this to time phases separately); otherwise one is built from
    ``paths``, consulting ``cache`` for per-module summaries.
    """
    config = config or LintConfig()
    if project is None:
        project = ProjectContext.build(paths, config, cache=cache)
    graph = CallGraph(project)
    findings: list[Finding] = []
    for rule in SEMANTIC_RULES:
        if not config.rule_enabled(rule.rule_id):
            continue
        findings.extend(rule.check_project(project, graph))
    findings = _suppress_noqa(project, findings)
    if cache is not None:
        cache.save()
    return SemanticReport(
        findings=sorted(findings),
        files_scanned=len(project.modules) + len(project.parse_errors),
        summary_cache_hits=project.summary_cache_hits,
        parse_errors=list(project.parse_errors),
    )


def _suppress_noqa(
    project: ProjectContext, findings: list[Finding]
) -> list[Finding]:
    """Honour ``# repro: noqa`` lines for semantic findings too."""
    lines = {info.path: info.lines for info in project.modules.values()}
    by_path: dict[str, list[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    kept: list[Finding] = []
    for path, group in by_path.items():
        kept.extend(_apply_noqa(group, noqa_map(lines.get(path, []))))
    return kept

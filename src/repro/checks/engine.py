"""AST lint engine enforcing the repo's reproducibility invariants.

The paper's contribution is measurement *methodology*: its numbers are
only trustworthy if every simulation is bit-reproducible, unit-correct
and free of hidden entropy.  The repo encodes those properties as
conventions (generators threaded from :mod:`repro.rng`, SI units
internally per :mod:`repro.units`, seeded-by-default experiments); this
engine makes them machine-checked.

Architecture
------------
* :class:`Rule` — the protocol a check implements: a ``rule_id``
  (``RPXnnn``), a one-line ``title``, and ``check(ctx)`` yielding
  :class:`Finding` objects for one parsed file.
* :class:`FileContext` — everything a rule may inspect: source text,
  split lines, the parsed AST, the file's project-relative path and the
  active :class:`~repro.checks.config.LintConfig`.
* :func:`check_source` / :func:`check_file` — lint one unit.
* :func:`run_lint` — walk paths, lint each file in turn, consult the
  optional per-file cache (keyed on content hash + rule set + config)
  and return a deterministic, sorted :class:`LintReport`.  The work is
  pure-Python AST parsing and walking, which holds the GIL, so it runs
  on one thread.

Suppression
-----------
A finding on line *n* is suppressed by a trailing comment on that line::

    x = t / 3600.0   # repro: noqa RPX002
    y = t / 3600.0   # repro: noqa           (suppresses every rule)

Multiple ids are comma-separated (``# repro: noqa RPX002,RPX003``).
"""

from __future__ import annotations

import ast
import gc
import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.checks.config import LintConfig, path_matches

__all__ = [
    "CACHE_VERSION",
    "FileContext",
    "Finding",
    "ImportMap",
    "LintCache",
    "LintReport",
    "PARSE_ERROR_ID",
    "Rule",
    "cache_key",
    "check_file",
    "check_source",
    "iter_python_files",
    "noqa_map",
    "run_lint",
]

#: Bumped whenever the engine's output format or semantics change, so a
#: stale on-disk cache can never mask (or invent) findings.
CACHE_VERSION = "1"

#: Pseudo-rule id attached to findings for files that fail to parse.
PARSE_ERROR_ID = "RPX000"


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation, sortable into deterministic report order."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """Render in the conventional ``path:line:col: ID message`` shape."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict:
        """JSON-serialisable representation (``repro lint --format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """Inverse of :meth:`to_dict` (used by the cache)."""
        return cls(
            path=data["path"],
            line=int(data["line"]),
            col=int(data["col"]),
            rule_id=data["rule"],
            message=data["message"],
        )


class ImportMap:
    """Resolve local names to fully-qualified dotted module paths.

    Built once per file from its ``import`` statements so rules can ask
    "what does ``np.random.seed`` actually refer to?" without guessing
    from surface spelling::

        imports = ImportMap(tree)
        imports.qualify(node)   # Attribute/Name node -> "numpy.random.seed"
    """

    def __init__(self, tree: ast.AST) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import a.b` binds `a`; `import a.b as c` binds c->a.b.
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def qualify(self, node: ast.AST) -> str | None:
        """Return the dotted qualified name of a Name/Attribute chain.

        ``None`` when the chain does not start at an imported module
        (e.g. an attribute on a local variable).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


@runtime_checkable
class Rule(Protocol):
    """Protocol implemented by every lint rule."""

    rule_id: str
    title: str

    def check(self, ctx: "FileContext") -> Iterable[Finding]:
        """Yield findings for one parsed file."""
        ...  # pragma: no cover - protocol body


@dataclass
class FileContext:
    """Everything a :class:`Rule` may inspect about one file."""

    path: str
    source: str
    lines: list[str]
    tree: ast.AST
    config: LintConfig
    imports: ImportMap = field(init=False)

    def __post_init__(self) -> None:
        self.imports = ImportMap(self.tree)

    def segment(self, node: ast.AST) -> str:
        """Source text of ``node`` ('' when unavailable)."""
        return ast.get_source_segment(self.source, node) or ""

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        )

    # Path-role helpers so rules share one matching convention.
    def matches_any(self, patterns: tuple[str, ...]) -> bool:
        """Whether this file's path matches any config pattern."""
        return any(path_matches(self.path, p) for p in patterns)

    @property
    def is_units_module(self) -> bool:
        """Whether unit constants are allowed to live here (RPX002)."""
        return self.matches_any(self.config.units_modules)

    @property
    def is_nondeterminism_exempt(self) -> bool:
        """Whether wall-clock/entropy calls are allowed here (RPX004)."""
        return self.matches_any(self.config.nondeterminism_exempt)


_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b[:\s]*(?P<ids>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)?"
)


def noqa_map(lines: list[str]) -> dict[int, frozenset[str] | None]:
    """Map 1-based line numbers to suppressed rule ids.

    ``None`` means every rule is suppressed on that line (bare
    ``# repro: noqa``); a frozenset suppresses only the listed ids.
    """
    suppressed: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(lines, start=1):
        if "noqa" not in text:
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        ids = match.group("ids")
        if ids is None:
            suppressed[lineno] = None
        else:
            suppressed[lineno] = frozenset(
                part.strip() for part in ids.split(",") if part.strip()
            )
    return suppressed


def _apply_noqa(
    findings: Iterable[Finding], suppressed: dict[int, frozenset[str] | None]
) -> list[Finding]:
    kept = []
    for finding in findings:
        rule_ids = suppressed.get(finding.line, frozenset())
        if rule_ids is None or finding.rule_id in (rule_ids or ()):
            continue
        kept.append(finding)
    return kept


_PARSE_RETRY_LOCK = threading.Lock()


def _parse(source: str, filename: str) -> ast.Module:
    """``ast.parse`` hardened against a CPython 3.11 thread/GC race.

    On 3.11, a cyclic garbage collection that triggers while ``compile``
    is building the AST in a worker thread can corrupt the constructor's
    recursion-depth bookkeeping and raise ``SystemError: AST constructor
    recursion depth mismatch`` (fixed in 3.12).  The failure is
    transient, not a property of the file, so retry once with the
    collector paused; the lock serialises retries so concurrent workers
    cannot re-enable GC under each other.
    """
    try:
        return ast.parse(source, filename=filename)
    except SystemError:
        with _PARSE_RETRY_LOCK:
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                return ast.parse(source, filename=filename)
            finally:
                if was_enabled:
                    gc.enable()


def check_source(
    source: str,
    path: str,
    rules: Iterable[Rule],
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint one source string as if it lived at ``path``.

    ``path`` drives the path-scoped rules (units module, CLI exemption,
    experiment contract), so tests can lint snippets "as" any location.
    """
    config = config or LintConfig()
    posix = Path(path).as_posix()
    try:
        tree = _parse(source, posix)
    except SyntaxError as exc:
        return [
            Finding(
                path=posix,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule_id=PARSE_ERROR_ID,
                message=f"syntax error: {exc.msg}",
            )
        ]
    lines = source.splitlines()
    ctx = FileContext(path=posix, source=source, lines=lines, tree=tree, config=config)
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return sorted(_apply_noqa(findings, noqa_map(lines)))


def check_file(
    path: Path, rules: Iterable[Rule], config: LintConfig | None = None
) -> list[Finding]:
    """Lint one file on disk."""
    source = path.read_text(encoding="utf-8")
    return check_source(source, str(path), rules, config)


def cache_key(source: bytes, rules: Iterable[Rule], config: LintConfig) -> str:
    """Content-addressed cache key for one file's findings.

    Any change to the file, the rule set, or the configuration yields a
    different key, so the cache never needs explicit invalidation.
    """
    hasher = hashlib.sha256()
    hasher.update(CACHE_VERSION.encode())
    hasher.update(b"\x00")
    hasher.update(",".join(sorted(r.rule_id for r in rules)).encode())
    hasher.update(b"\x00")
    hasher.update(config.fingerprint().encode())
    hasher.update(b"\x00")
    hasher.update(source)
    return hasher.hexdigest()


class LintCache:
    """Per-file findings cache persisted as one JSON document.

    Keys come from :func:`cache_key`; a corrupt or unreadable cache file
    degrades to an empty cache rather than failing the lint run.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, list[dict]] = {}
        self._dirty = False
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
            if isinstance(data, dict) and data.get("version") == CACHE_VERSION:
                entries = data.get("entries", {})
                if isinstance(entries, dict):
                    self._entries = entries
        except (OSError, ValueError):
            pass

    def get(self, key: str) -> list[Finding] | None:
        """Cached findings for ``key``, or ``None`` on a miss."""
        raw = self._entries.get(key)
        if raw is None:
            return None
        try:
            return [Finding.from_dict(item) for item in raw]
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, findings: list[Finding]) -> None:
        """Record findings for ``key`` (persisted on :meth:`save`)."""
        self._entries[key] = [f.to_dict() for f in findings]
        self._dirty = True

    def get_raw(self, key: str):
        """Arbitrary cached JSON value for ``key`` (``None`` on a miss).

        Used by the semantic pass to store per-module summaries in the
        same cache document; callers namespace their keys (the summary
        key hashes a distinct prefix) so the two entry kinds never
        collide.
        """
        return self._entries.get(key)

    def put_raw(self, key: str, value) -> None:
        """Record an arbitrary JSON-serialisable value for ``key``."""
        self._entries[key] = value
        self._dirty = True

    def save(self) -> None:
        """Write the cache atomically (best-effort; failures are ignored)."""
        if not self._dirty:
            return
        payload = json.dumps(
            {"version": CACHE_VERSION, "entries": self._entries},
            separators=(",", ":"),
        )
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        try:
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            pass


def iter_python_files(paths: Iterable[Path], config: LintConfig) -> list[Path]:
    """Expand files/directories into the sorted list of ``.py`` targets."""
    out: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates: Iterator[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = iter([path])
        for candidate in candidates:
            posix = candidate.as_posix()
            if any(path_matches(posix, pat) for pat in config.exclude):
                continue
            out.append(candidate)
    return sorted(set(out))


@dataclass
class LintReport:
    """Outcome of a :func:`run_lint` pass."""

    findings: list[Finding]
    files_scanned: int
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        """Whether the tree is clean."""
        return not self.findings

    def render_text(self) -> str:
        """Human-readable report (one line per finding + a summary)."""
        lines = [f.format() for f in self.findings]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"{len(self.findings)} {noun} in {self.files_scanned} files"
            + (f" ({self.cache_hits} cached)" if self.cache_hits else "")
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable report for ``repro lint --format json``."""
        return json.dumps(
            {
                "version": CACHE_VERSION,
                "files_scanned": self.files_scanned,
                "cache_hits": self.cache_hits,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )


def _lint_one(
    path: Path, rules: list[Rule], config: LintConfig, cache: LintCache | None
) -> tuple[list[Finding], bool]:
    """Lint one file, consulting the cache. Returns (findings, hit)."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return (
            [
                Finding(
                    path=path.as_posix(),
                    line=1,
                    col=0,
                    rule_id=PARSE_ERROR_ID,
                    message=f"cannot read file: {exc}",
                )
            ],
            False,
        )
    key = cache_key(raw, rules, config) if cache is not None else ""
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit, True
    findings = check_source(
        raw.decode("utf-8", errors="replace"), str(path), rules, config
    )
    if cache is not None:
        cache.put(key, findings)
    return findings, False


def run_lint(
    paths: Iterable[Path | str],
    rules: Iterable[Rule] | None = None,
    config: LintConfig | None = None,
    cache: LintCache | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) with the given rule set.

    Findings are sorted at the end, so the report is deterministic.
    Pass a :class:`LintCache` to skip files whose content (and
    rule/config state) has not changed since the previous run.
    """
    if rules is None:
        from repro.checks.rules import default_rules

        rules = default_rules(config)
    rules = list(rules)
    config = config or LintConfig()
    files = iter_python_files([Path(p) for p in paths], config)
    findings: list[Finding] = []
    cache_hits = 0
    for path in files:
        file_findings, hit = _lint_one(path, rules, config, cache)
        findings.extend(file_findings)
        cache_hits += int(hit)
    if cache is not None:
        cache.save()
    return LintReport(
        findings=sorted(findings),
        files_scanned=len(files),
        cache_hits=cache_hits,
    )

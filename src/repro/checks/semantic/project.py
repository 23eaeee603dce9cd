"""Whole-project context: every module parsed once, names resolved across files.

:class:`ProjectContext` is the substrate the RPX1xx interprocedural
rules run on.  Building one:

1. expands the scan paths with the engine's
   :func:`~repro.checks.engine.iter_python_files`,
2. parses every file once (parsing dominates the cold cost),
3. extracts each module's :class:`~repro.checks.semantic.summaries.ModuleSummary`,
   consulting the :class:`~repro.checks.engine.LintCache` under an
   AST-normalised key so reformatting never re-analyses,
4. exposes cross-module name resolution (``resolve_fq``) that follows
   ``from x import y`` re-export chains to the defining module.

Module names are derived from the filesystem (walking up while an
``__init__.py`` is present), so the same machinery analyses
``src/repro`` and a synthetic fixture package identically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.checks.config import LintConfig, path_matches
from repro.checks.engine import (
    ImportMap,
    LintCache,
    _parse,
    iter_python_files,
)
from repro.checks.semantic.summaries import (
    ModuleSummary,
    extract_module_summary,
    summary_cache_key,
)

__all__ = ["FunctionKey", "ModuleInfo", "ProjectContext", "module_name_for"]

#: A function's identity across the project: (module, qualname).
FunctionKey = tuple[str, str]


def module_name_for(path: Path) -> str:
    """Dotted module name of a file, derived from package structure.

    Walks upward while the parent directory is a package (has an
    ``__init__.py``): ``src/repro/stream/ingest.py`` ->
    ``repro.stream.ingest``; a loose script maps to its stem.
    """
    path = Path(path)
    parts: list[str] = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


@dataclass
class ModuleInfo:
    """One parsed module and its per-file derived structures."""

    name: str
    path: str  # posix, as scanned
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    imports: ImportMap = field(init=False)
    #: top-level function definitions by name (call-graph targets).
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        init=False, default_factory=dict
    )
    #: top-level simple assignments by target name (for re-exported
    #: globals and seed constants).
    globals: dict[str, ast.AST] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.imports = ImportMap(self.tree)
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.functions[f"{node.name}.{item.name}"] = item
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.globals[target.id] = node.value
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    self.globals[node.target.id] = node.value

    def matches_any(self, patterns: tuple[str, ...]) -> bool:
        """Whether this module's path matches any config pattern."""
        return any(path_matches(self.path, p) for p in patterns)


class ProjectContext:
    """All modules of a scan, with summaries and cross-module resolution."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.modules: dict[str, ModuleInfo] = {}
        self.summaries: dict[str, ModuleSummary] = {}
        self.parse_errors: list[tuple[str, str]] = []  # (path, message)
        self.summary_cache_hits = 0

    # -- construction -------------------------------------------------

    @classmethod
    def build(
        cls,
        paths: Iterable[Path | str],
        config: LintConfig | None = None,
        cache: LintCache | None = None,
    ) -> "ProjectContext":
        """Parse and summarise every Python file under ``paths``."""
        config = config or LintConfig()
        project = cls(config)
        for path in iter_python_files([Path(p) for p in paths], config):
            try:
                source = path.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                project.parse_errors.append(
                    (path.as_posix(), f"cannot read file: {exc}")
                )
                continue
            try:
                tree = _parse(source, path.as_posix())
            except SyntaxError as exc:
                project.parse_errors.append(
                    (path.as_posix(), f"syntax error: {exc.msg}")
                )
                continue
            name = module_name_for(path)
            if name in project.modules:
                # Duplicate module names (two scan roots overlapping)
                # keep the first occurrence deterministically.
                continue
            project.modules[name] = ModuleInfo(
                name=name,
                path=path.as_posix(),
                tree=tree,
                lines=source.splitlines(),
            )
        project._summarise(cache)
        return project

    def _summarise(self, cache: LintCache | None) -> None:
        """Fill ``self.summaries``, consulting the cache per module."""
        for info in sorted(self.modules.values(), key=lambda m: m.name):
            self.summaries[info.name] = self._summary(info, cache)

    def _summary(
        self, info: ModuleInfo, cache: LintCache | None
    ) -> ModuleSummary:
        """One module's summary, from the cache or freshly extracted."""
        if cache is None:
            return extract_module_summary(
                info.name, info.tree, info.imports, self.config
            )
        key = summary_cache_key(info.tree, self.config)
        raw = cache.get_raw(key)
        if raw is not None:
            try:
                summary = ModuleSummary.from_dict(raw)
            except (KeyError, TypeError, ValueError):
                pass  # corrupt entry: fall through to extraction
            else:
                self.summary_cache_hits += 1
                return summary
        summary = extract_module_summary(
            info.name, info.tree, info.imports, self.config
        )
        cache.put_raw(key, summary.to_dict())
        return summary

    # -- name resolution ----------------------------------------------

    def function_summary(self, key: FunctionKey):
        """Summary for a function key, or ``None``."""
        summary = self.summaries.get(key[0])
        if summary is None:
            return None
        return summary.functions.get(key[1])

    def resolve_fq(
        self, fq: str, _depth: int = 0
    ) -> tuple[str, str, str] | None:
        """Resolve a dotted name to its defining site.

        Returns ``(kind, module, name)`` where ``kind`` is ``"func"``,
        ``"global"`` or ``"module"`` — following ``from x import y``
        re-export chains up to a fixed depth — or ``None`` when the
        name does not land inside the analysed project.
        """
        if _depth > 10:
            return None
        # Longest module prefix wins: "a.b.c" may be module a.b, attr c.
        parts = fq.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.modules:
                continue
            rest = parts[cut:]
            if not rest:
                return ("module", module, "")
            if len(rest) > 2:
                return None  # attribute chains deeper than Cls.meth
            name = ".".join(rest)
            info = self.modules[module]
            if name in info.functions:
                return ("func", module, name)
            if name in info.globals:
                return ("global", module, name)
            # Re-export: `from x import y` then someone imports it from
            # here.  Follow the alias to the defining module.
            target = info.imports.qualify(
                ast.Name(id=rest[0], ctx=ast.Load())
            )
            if target is not None and target != fq:
                suffix = "." + rest[1] if len(rest) == 2 else ""
                return self.resolve_fq(target + suffix, _depth + 1)
            return None
        return None

    def resolve_call_ref(
        self, module: str, ref: dict
    ) -> FunctionKey | None:
        """Resolve one summary call reference to a project function key."""
        if ref.get("kind") == "local":
            name = ref["name"]
            info = self.modules.get(module)
            if info is None:
                return None
            if name in info.functions:
                return (module, name)
            target = info.imports.qualify(ast.Name(id=name, ctx=ast.Load()))
            if target is None:
                return None
            resolved = self.resolve_fq(target)
        else:
            resolved = self.resolve_fq(ref.get("ref", ""))
        if resolved is not None and resolved[0] == "func":
            return (resolved[1], resolved[2])
        return None

    def is_rng_module(self, module: str) -> bool:
        """Whether a module is a configured explicit-seed RNG entry point."""
        info = self.modules.get(module)
        if info is not None:
            return info.matches_any(self.config.rng_modules)
        # Not part of the scan: fall back to matching the dotted name
        # against the pattern stems ("repro/rng.py" -> "repro.rng").
        for pattern in self.config.rng_modules:
            stem = pattern.rsplit("/", 1)[-1].removesuffix(".py")
            dotted = pattern.removesuffix(".py").replace("/", ".")
            if module == dotted or module.rsplit(".", 1)[-1] == stem:
                return True
        return False

"""Configuration for the lint engine: the ``[tool.repro.lint]`` table.

Configuration lives in ``pyproject.toml`` next to the rest of the
project metadata.  Every key is optional; the defaults below encode the
repo's own layout.  Keys may be spelled with dashes or underscores::

    [tool.repro.lint]
    select = []                       # empty = all rules
    ignore = ["RPX006"]
    exclude = ["*/fixtures/*"]
    units-modules = ["repro/units.py"]
    nondeterminism-exempt = ["repro/cli.py", "repro/experiments/runner.py"]
    experiments-packages = ["repro/experiments"]
    experiments-exempt = ["__init__.py", "base.py", "runner.py"]
    rng-modules = ["repro/rng.py"]

Every value is a list of strings; anything else is a ``ValueError``
naming the key, so a bare string cannot turn into per-character
patterns.
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["LintConfig", "find_pyproject", "load_config", "path_matches"]


def path_matches(posix_path: str, pattern: str) -> bool:
    """Whether a posix file path matches a config pattern.

    A pattern matches if it globs the full path, globs the path's tail
    (so ``repro/units.py`` matches ``/any/prefix/src/repro/units.py``),
    or equals the file's basename.
    """
    if fnmatch.fnmatch(posix_path, pattern):
        return True
    if fnmatch.fnmatch(posix_path, f"*/{pattern}"):
        return True
    return posix_path.rsplit("/", 1)[-1] == pattern


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (see module docstring for the keys)."""

    #: Rule ids to run; empty means every registered rule.
    select: tuple[str, ...] = ()
    #: Rule ids to skip (applied after ``select``).
    ignore: tuple[str, ...] = ()
    #: Path patterns never scanned (fixtures, generated code, ...).
    exclude: tuple[str, ...] = ()
    #: Files allowed to define raw unit-conversion constants (RPX002).
    units_modules: tuple[str, ...] = ("repro/units.py",)
    #: Files allowed to touch wall clocks / OS entropy (RPX004): the CLI
    #: and the experiment runner, which report elapsed wall time.
    nondeterminism_exempt: tuple[str, ...] = (
        "repro/cli.py",
        "repro/experiments/runner.py",
    )
    #: Directories whose modules must honour the experiment contract
    #: (RPX005: a ``run`` entry point, deterministic seed defaults).
    experiments_packages: tuple[str, ...] = ("repro/experiments",)
    #: Basenames inside an experiments package that are infrastructure,
    #: not experiments, and therefore exempt from RPX005.
    experiments_exempt: tuple[str, ...] = ("__init__.py", "base.py", "runner.py")
    #: Modules whose generator factories count as explicit-seed entry
    #: points for the RPX102 seed-provenance taint (they map a missing
    #: seed to the fixed paper seed, never to OS entropy).
    rng_modules: tuple[str, ...] = ("repro/rng.py",)

    def fingerprint(self) -> str:
        """Stable digest of every field, folded into the cache key."""
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return ";".join(parts)

    def rule_enabled(self, rule_id: str) -> bool:
        """Apply the ``select`` / ``ignore`` filters to one rule id."""
        if self.select and rule_id not in self.select:
            return False
        return rule_id not in self.ignore


def find_pyproject(start: Path) -> Path | None:
    """Walk upward from ``start`` to the nearest ``pyproject.toml``."""
    current = Path(start).resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(start: Path | str = ".") -> LintConfig:
    """Load ``[tool.repro.lint]`` from the nearest ``pyproject.toml``.

    Unknown keys are ignored so older engines tolerate newer configs;
    a missing file or table yields the defaults.  A known key whose
    value is not a list of strings raises ``ValueError``.
    """
    pyproject = find_pyproject(Path(start))
    if pyproject is None:
        return LintConfig()
    try:
        with open(pyproject, "rb") as fh:
            data = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError):
        return LintConfig()
    table = data.get("tool", {}).get("repro", {}).get("lint", {})
    if not isinstance(table, dict):
        return LintConfig()
    known = {f.name: f for f in fields(LintConfig)}
    kwargs: dict[str, object] = {}
    for raw_key, value in table.items():
        key = raw_key.replace("-", "_")
        if key not in known:
            continue
        if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value
        ):
            raise ValueError(
                f"[tool.repro.lint] {raw_key} must be a list of strings, "
                f"got {value!r}"
            )
        kwargs[key] = tuple(value)
    return LintConfig(**kwargs)  # type: ignore[arg-type]

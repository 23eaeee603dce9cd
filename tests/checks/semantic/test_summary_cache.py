"""Stability properties of the semantic cache key and noqa parsing.

The summary cache is only sound if its key is insensitive to edits
that cannot change a summary — comments, blank lines, whitespace — and
sensitive to any edit that can.  Hypothesis drives both directions.
The same stability contract matters for ``noqa_map``: the suppression
a comment requests must not depend on how it is spaced.
"""

import ast
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks import LintConfig, noqa_map
from repro.checks.engine import ImportMap
from repro.checks.semantic.summaries import (
    extract_module_summary,
    summary_cache_key,
)

BASE_SOURCE = """\
import numpy as np


def draw(n, seed=0):
    gen = np.random.default_rng(seed)
    values = gen.normal(size=n)
    return values


def total_j(power_w, runtime_s):
    return power_w * runtime_s
"""

CONFIG = LintConfig()


def _key(source: str, config: LintConfig = CONFIG) -> str:
    return summary_cache_key(ast.parse(source), config)


comments = st.text(
    alphabet=string.ascii_letters + string.digits + " ",
    min_size=0,
    max_size=30,
).map(lambda s: f"# {s}")


@st.composite
def commented_variants(draw):
    """BASE_SOURCE with comments/blank lines spliced between statements."""
    lines = BASE_SOURCE.splitlines()
    out = []
    for line in lines:
        if draw(st.booleans()):
            out.append(draw(comments))
        if draw(st.booleans()):
            out.append("")
        out.append(line)
        stripped = line.strip()
        if stripped and not stripped.startswith(("import", "def")):
            if draw(st.booleans()):
                indent = line[: len(line) - len(line.lstrip())]
                out.append(indent + draw(comments))
    return "\n".join(out) + "\n"


@settings(max_examples=50, deadline=None)
@given(variant=commented_variants())
def test_cache_key_stable_across_comment_edits(variant):
    assert _key(variant) == _key(BASE_SOURCE)


@settings(max_examples=50, deadline=None)
@given(variant=commented_variants())
def test_summaries_identical_across_comment_edits(variant):
    """The key is honest: equal keys really do mean equal summaries,
    up to the node locators that findings resolve per-run anyway."""

    def summarise(source):
        tree = ast.parse(source)
        summary = extract_module_summary(
            "mod", tree, ImportMap(tree), CONFIG
        )
        data = summary.to_dict()

        def strip(obj):
            if isinstance(obj, dict):
                return {
                    k: strip(v) for k, v in obj.items() if k != "locator"
                }
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        return strip(data)

    assert summarise(variant) == summarise(BASE_SOURCE)


@settings(max_examples=30, deadline=None)
@given(name=st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True))
def test_cache_key_changes_when_code_changes(name):
    renamed = BASE_SOURCE.replace("values", f"renamed_{name}")
    assert _key(renamed) != _key(BASE_SOURCE)


def test_cache_key_depends_on_config():
    other = LintConfig(rng_modules=("elsewhere.py",))
    assert _key(BASE_SOURCE) != _key(BASE_SOURCE, other)


@settings(max_examples=60, deadline=None)
@given(
    pre=st.sampled_from(["", " ", "  "]),
    mid=st.sampled_from(["", " ", "  "]),
    sep=st.sampled_from([":", " ", ": ", "  "]),
    ids=st.lists(
        st.sampled_from(["RPX001", "RPX004", "RPX102"]),
        min_size=0,
        max_size=3,
        unique=True,
    ),
)
def test_noqa_map_insensitive_to_spacing(pre, mid, sep, ids):
    """Every whitespace spelling of a noqa comment parses identically."""
    canonical = "x = 1  # repro: noqa"
    variant = f"x = 1  #{pre}repro:{mid}noqa"
    if ids:
        canonical += " " + ", ".join(ids)
        variant += sep + " , ".join(ids)
    expected = noqa_map([canonical])
    assert noqa_map([variant]) == expected
    if ids:
        assert expected == {1: frozenset(ids)}
    else:
        assert expected == {1: None}

"""Regenerate the golden comparison snapshot.

Runs the full experiment sweep serially at paper scale and writes every
``Comparison`` (label, paper, measured) to
``tests/experiments/golden_comparisons.json`` — the file the golden
regression test (``tests/experiments/test_runner_golden.py``) holds
serial, parallel and cached-replay runs to, bit for bit.

Before writing, it prints every row whose ``measured`` value changed
(experiment, label, old value, new value, relative change), so the
regeneration can be reviewed row by row.  Run it only when a deliberate
change to an experiment or a shared statistical kernel shifts the
measured values::

    PYTHONPATH=src python scripts/make_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import run_all

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests" / "experiments" / "golden_comparisons.json"
)


def snapshot(results) -> dict:
    """Every comparison of every result, as JSON-stable primitives."""
    return {
        exp_id: [
            {
                "label": c.label,
                "paper": float(c.paper),
                "measured": float(c.measured),
            }
            for c in result.comparisons()
        ]
        for exp_id, result in results.items()
    }


def moved_rows(old: dict, new: dict) -> list[str]:
    """One line per row whose ``measured`` value differs from ``old``:
    experiment, label, old value, new value and relative change."""
    lines = []
    for exp_id, rows in sorted(new.items()):
        before = {r["label"]: r["measured"] for r in old.get(exp_id, [])}
        for row in rows:
            was, now = before.get(row["label"]), row["measured"]
            if was == now:
                continue
            rel = (
                "new row" if was is None
                else f"{(now - was) / abs(was):+.3e}" if was else "inf"
            )
            lines.append(
                f"{exp_id}\t{row['label']}\t{was!r}\t{now!r}\t{rel}"
            )
    return lines


def main() -> int:
    results = run_all(verbose=False)
    failed = [i for i, r in results.items() if not r.all_ok()]
    if failed:
        raise SystemExit(f"refusing to snapshot failing experiments: {failed}")
    new = snapshot(results)
    old = (
        json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if GOLDEN_PATH.exists() else {}
    )
    moved = moved_rows(old, new)
    print(f"{len(moved)} row(s) moved (experiment, label, old, new, "
          "relative change):")
    for line in moved:
        print(line)
    GOLDEN_PATH.write_text(
        json.dumps(new, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    n = sum(len(v) for v in new.values())
    print(f"wrote {GOLDEN_PATH} ({len(results)} experiments, "
          f"{n} comparisons)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

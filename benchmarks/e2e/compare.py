"""Judge two sets of end-to-end runs against the bounds in BENCHMARK.json.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py BASE HEAD [--claim METRIC@WORKLOAD]

``BASE`` and ``HEAD`` are directories of run records, or single records,
written by ``run.py --trace 0 --out DIR`` (``*-e2e.json``): one record per
run, several runs (seeds) per workload.  Standard library only.

One row per (workload, end-to-end metric) gives each side's median and
quartiles and a verdict, with ``change`` signed so that positive is
worse:

* ``worse`` / ``better`` — the head median moved by more than the
  metric's bound;
* ``unchanged`` — it moved by no more than the bound;
* ``unresolved`` — either side's spread (IQR over median) is wider than
  the bound and the runs do not separate (not every head run reads
  better, or worse, than every base run).

* ``more-failures`` — the head failed a larger share of the workload's
  operations than the base, so no gain on that workload counts.

A record whose correctness checks failed is refused (exit 1).

``--claim METRIC@WORKLOAD`` (repeatable) also tests a claimed gain: at
least ten base/head pairs (paired in seed order), at least nine tenths
of them won by the head (ties count for neither), a median gap wider
than the base's own IQR, and no more failed operations than the base.

Exit status: 1 if any row is ``worse`` or ``more-failures`` or any
claim is not met, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def summarize(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles`` gives them) and n."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def load(path: Path) -> tuple[dict, dict]:
    """Run records as ``(values, failures)``.

    ``values`` maps ``(workload, metric)`` to the values in seed order;
    ``failures`` maps a workload to its summed ``[failed, attempted]``
    operations.  A record whose correctness checks failed is refused:
    its times measure wrong work.
    """
    files = sorted(path.glob("*-e2e.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        rec = json.loads(f.read_text())
        if not rec["correct"]:
            raise SystemExit(f"{f}: correctness checks failed; "
                             "its measurements do not count")
        records.append(rec)
    records.sort(key=lambda r: (r["workload"], r["seed"]))
    values: dict[tuple[str, str], list[float]] = {}
    failures: dict[str, list[int]] = {}
    for rec in records:
        for name, metric in rec["metrics"].items():
            values.setdefault((rec["workload"], name), []).append(
                metric["value"]
            )
        tally = failures.setdefault(rec["workload"], [0, 0])
        tally[0] += rec["failed"]
        tally[1] += rec["attempted"]
    return values, failures


def fails_more(base: list[int], head: list[int]) -> bool:
    """Whether ``head`` fails a larger share of its operations."""
    return head[0] * base[1] > base[0] * head[1]


def verdict(base: list[float], head: list[float], spec: dict) -> tuple:
    """``(change, spread, verdict)`` for one metric on one workload."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    b, h = summarize(base), summarize(head)
    change = sign * (h["value"] - b["value"]) / b["value"]
    spread = max((b["q3"] - b["q1"]) / b["value"],
                 (h["q3"] - h["q1"]) / h["value"])
    worse = [sign * x for x in head]
    parent = [sign * x for x in base]
    separated = max(worse) < min(parent) or min(worse) > max(parent)
    if spread > spec["bound"] and not separated:
        return change, spread, "unresolved"
    if change > spec["bound"]:
        return change, spread, "worse"
    if change < -spec["bound"]:
        return change, spread, "better"
    return change, spread, "unchanged"


def claim(base: list[float], head: list[float], spec: dict) -> tuple:
    """``(met, wins, pairs, gap, base_iqr)`` for a claimed gain."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    pairs = list(zip(base, head))
    wins = sum(sign * (h - b) < 0 for b, h in pairs)
    b, h = summarize(base), summarize(head)
    gap = sign * (b["value"] - h["value"])
    base_iqr = b["q3"] - b["q1"]
    met = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > base_iqr
    return met, wins, len(pairs), gap, base_iqr


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("head", type=Path)
    p.add_argument("--claim", action="append", default=[],
                   metavar="METRIC@WORKLOAD")
    args = p.parse_args(argv)

    specs = {m["name"]: m
             for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    (base, base_fail), (head, head_fail) = load(args.base), load(args.head)
    more_failures = {
        w for w in base_fail.keys() & head_fail.keys()
        if fails_more(base_fail[w], head_fail[w])
    }
    for w in sorted(more_failures):
        print(f"{w}: head failed {head_fail[w][0]}/{head_fail[w][1]} "
              f"operations, base {base_fail[w][0]}/{base_fail[w][1]}")
    failed = bool(more_failures)
    print("| workload | metric | base median [q1, q3] | head median [q1, q3]"
          " | change | spread | bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---|")
    for key in sorted(base.keys() & head.keys()):
        workload, name = key
        if name not in specs:
            continue
        change, spread, v = verdict(base[key], head[key], specs[name])
        if workload in more_failures and v != "worse":
            v = "more-failures"
        b, h = summarize(base[key]), summarize(head[key])
        print(f"| {workload} | {name} "
              f"| {b['value']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] "
              f"| {h['value']:.6g} [{h['q1']:.6g}, {h['q3']:.6g}] "
              f"| {change:+.1%} | {spread:.1%} | {specs[name]['bound']:.0%} "
              f"| {v} |")
        failed |= v == "worse"
    for text in args.claim:
        name, _, workload = text.partition("@")
        key = (workload, name)
        if name not in specs or key not in base or key not in head:
            print(f"claim {text}: no such metric and workload in both sets")
            failed = True
            continue
        met, wins, n, gap, iqr = claim(base[key], head[key], specs[name])
        note = ""
        if workload in more_failures:
            met, note = False, ", head fails more operations"
        print(f"claim {text}: {'MET' if met else 'NOT MET'} "
              f"(head wins {wins}/{n} pairs, median gap {gap:.6g} vs "
              f"base IQR {iqr:.6g}{note})")
        failed |= not met
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

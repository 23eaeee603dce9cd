"""Perf-regression gate over pytest-benchmark JSON files.

Compares a freshly produced benchmark JSON against a committed
baseline (e.g. ``BENCH_shard.json``):

* same machine (CPU model, core count, architecture): any benchmark
  whose mean time regressed more than the threshold (default 30%)
  fails the gate with exit code 1, and so does any baseline benchmark
  missing from the current run — retiring a gate means editing its
  baseline, not dropping the bench silently;
* different machine: timings are not comparable — the gate prints a
  note and exits 0, so CI runners never fail against numbers committed
  from another box.

Stdlib only, so it runs anywhere the repo does:

    python scripts/bench_compare.py BENCH_shard.json fresh.json
    python scripts/bench_compare.py --threshold 0.5 old.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: machine_info fields that must match for timings to be comparable.
_MACHINE_KEYS = ("machine", "system")
_CPU_KEYS = ("brand_raw", "count", "arch")


def _machine_signature(data: dict) -> dict:
    """The comparable subset of a pytest-benchmark machine_info."""
    info = data.get("machine_info", {})
    cpu = info.get("cpu", {})
    sig = {key: info.get(key) for key in _MACHINE_KEYS}
    sig.update({f"cpu.{key}": cpu.get(key) for key in _CPU_KEYS})
    return sig


def _benchmarks_by_name(data: dict) -> dict[str, float]:
    """Map benchmark name -> mean seconds."""
    out = {}
    for bench in data.get("benchmarks", []):
        stats = bench.get("stats", {})
        if "mean" in stats:
            out[bench["name"]] = float(stats["mean"])
    return out


def compare(
    baseline: dict, current: dict, threshold: float
) -> tuple[int, list[str]]:
    """Return (exit_code, report_lines) for one baseline/current pair."""
    lines = []
    base_sig = _machine_signature(baseline)
    cur_sig = _machine_signature(current)
    if base_sig != cur_sig:
        diffs = [
            f"  {key}: baseline={base_sig[key]!r} current={cur_sig[key]!r}"
            for key in base_sig
            if base_sig[key] != cur_sig[key]
        ]
        lines.append(
            "SKIP: machine_info differs — timings are not comparable"
        )
        lines.extend(diffs)
        return 0, lines

    base = _benchmarks_by_name(baseline)
    cur = _benchmarks_by_name(current)
    missing = sorted(set(base) - set(cur))
    for name in missing:
        lines.append(f"FAIL: {name} missing from the current run")

    failed = bool(missing)
    for name in sorted(set(base) & set(cur)):
        ratio = cur[name] / base[name]
        if ratio > 1.0 + threshold:
            failed = True
            lines.append(
                f"FAIL: {name} regressed {ratio - 1.0:+.1%} "
                f"({base[name]:.3f}s -> {cur[name]:.3f}s, "
                f"threshold {threshold:.0%})"
            )
        else:
            lines.append(
                f"ok:   {name} {ratio - 1.0:+.1%} "
                f"({base[name]:.3f}s -> {cur[name]:.3f}s)"
            )
    if not set(base) & set(cur):
        lines.append("NOTE: no common benchmarks to compare")
    return (1 if failed else 0), lines


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="fail when benchmarks regress on the same machine"
    )
    parser.add_argument("baseline", type=Path, help="committed JSON")
    parser.add_argument("current", type=Path, help="fresh JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed fractional slowdown before failing (default 0.30)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    code, lines = compare(baseline, current, args.threshold)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

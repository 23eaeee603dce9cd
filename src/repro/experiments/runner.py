"""Run every experiment and assemble the EXPERIMENTS.md record.

``python -m repro.experiments.runner`` executes all of DESIGN.md §4's
experiments with paper-scale parameters and prints (or writes) the
paper-vs-measured record.  ``--jobs N`` fans the sweep out over a
process pool and ``--cache`` replays unchanged experiments from the
content-addressed result cache (see :mod:`repro.parallel`); every
layout — serial, parallel, cached — produces byte-identical records,
which the golden regression test enforces.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.experiments import (
    ext_derived,
    ext_dvfs_gaming,
    ext_exascale,
    ext_faults,
    ext_imbalance,
    ext_meter_quality,
    ext_pathology,
    ext_streaming,
    ext_subsystems,
    ext_wire,
    figure1,
    figure2,
    figure3,
    figure4,
    gaming_case_studies,
    level1_variance,
    ranking,
    sample_size_example,
    t_vs_z,
    table2,
    table4,
    table5,
)
from repro.experiments.base import ExperimentResult

__all__ = [
    "ALL_EXPERIMENTS",
    "add_run_arguments",
    "experiments_markdown",
    "run_all",
    "run_from_args",
    "main",
]

#: Experiment id → zero-argument runner (paper-scale defaults).
ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "T2": table2.run,
    "F1": figure1.run,
    "F2": figure2.run,
    "T4": table4.run,
    "T5": table5.run,
    "F3": figure3.run,
    "F4": figure4.run,
    "G1": gaming_case_studies.run,
    "S1": sample_size_example.run,
    "V1": level1_variance.run,
    "Z1": t_vs_z.run,
    "R1": ranking.run,
    # Extensions: the paper's caveats and future-work items, run forward.
    "X1": ext_imbalance.run,
    "X2": ext_dvfs_gaming.run,
    "X3": ext_exascale.run,
    "X4": ext_meter_quality.run,
    "X5": ext_derived.run,
    "X6": ext_subsystems.run,
    "X-STR": ext_streaming.run,
    "X-FAULT": ext_faults.run,
    "X-WIRE": ext_wire.run,
    "X-PATH": ext_pathology.run,
}


def _validate_ids(selected: list[str]) -> None:
    """Reject unknown and duplicate experiment ids before any work."""
    unknown = [i for i in selected if i not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment ids: {unknown} "
            f"(known: {list(ALL_EXPERIMENTS)})"
        )
    seen: set[str] = set()
    duplicates: list[str] = []
    for exp_id in selected:
        if exp_id in seen:
            duplicates.append(exp_id)
        seen.add(exp_id)
    if duplicates:
        raise ValueError(
            f"duplicate experiment ids: {sorted(set(duplicates))}"
        )


def run_all(
    *,
    ids: list[str] | None = None,
    verbose: bool = True,
    jobs: int | None = None,
    cache=None,
    refresh: bool = False,
) -> dict[str, ExperimentResult]:
    """Execute the selected experiments (default: all) and return their
    results keyed by experiment id.

    Parameters
    ----------
    jobs:
        Worker processes for the sweep.  ``None`` keeps the classic
        serial loop (exceptions propagate); any integer routes through
        the :mod:`repro.parallel` scheduler, where a raising experiment
        becomes a :class:`~repro.experiments.base.FailedResult` instead
        of aborting the sweep.
    cache:
        A :class:`repro.parallel.ResultCache` (or a path-like to create
        one at) for content-addressed replay of unchanged experiments.
    refresh:
        With a cache, re-run everything and overwrite the entries.

    Results are keyed in the requested id order regardless of execution
    layout, so rendered records are byte-identical across layouts.
    """
    selected = ids or list(ALL_EXPERIMENTS)
    _validate_ids(selected)

    if jobs is None and cache is None:
        results: dict[str, ExperimentResult] = {}
        for exp_id in selected:
            t0 = time.perf_counter()
            result = ALL_EXPERIMENTS[exp_id]()
            elapsed = time.perf_counter() - t0
            results[exp_id] = result
            if verbose:
                _print_result(exp_id, result, elapsed)
        return results

    from repro.parallel.cache import ResultCache
    from repro.parallel.scheduler import run_experiments

    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    records = run_experiments(
        ALL_EXPERIMENTS, selected, jobs=jobs, cache=cache, refresh=refresh
    )
    if verbose:
        for exp_id, record in records.items():
            _print_result(
                exp_id,
                record.result,
                record.duration_s,
                from_cache=record.from_cache,
            )
    return {exp_id: r.result for exp_id, r in records.items()}


def _print_result(
    exp_id: str,
    result: ExperimentResult,
    elapsed_s: float,
    *,
    from_cache: bool = False,
) -> None:
    status = "PASS" if result.all_ok() else "FAIL"
    timing = "cached" if from_cache else f"{elapsed_s:.1f}s"
    print(f"== {exp_id} ({result.artifact}) — {status} "
          f"[{timing}] " + "=" * 20)
    print(result.report())
    print()


def experiments_markdown(results: dict[str, ExperimentResult]) -> str:
    """Render the results as the EXPERIMENTS.md body."""
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Generated by `python -m repro.experiments.runner --markdown`.",
        "Each line records a published value (or claim) and what this",
        "reproduction measures for it; `ok` means within the stated",
        "tolerance (see each experiment module for tolerances and for",
        "what was calibrated vs. predicted).",
        "",
    ]
    for exp_id, result in results.items():
        status = "PASS" if result.all_ok() else "FAIL"
        lines.append(f"## {exp_id} — {result.artifact} [{status}]")
        lines.append("")
        lines.append("```")
        lines.append(result.report())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared sweep options (used here and by ``repro run``)."""
    parser.add_argument(
        "ids", nargs="*", help="experiment ids to run (default: all)"
    )
    parser.add_argument(
        "--markdown", metavar="PATH",
        help="write the EXPERIMENTS.md body to PATH",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-experiment output"
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="run the sweep on N worker processes (longest experiments "
             "first; results are identical to a serial run)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="replay unchanged experiments from the content-addressed "
             "result cache and store fresh results into it",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="PATH",
        help="cache location (default: %(default)s)",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="with --cache: re-run everything and overwrite the entries",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Run the sweep :func:`add_run_arguments` parsed; return the exit
    code (0 all within tolerance, 1 some failed, 2 bad ids)."""
    cache = None
    if args.cache:
        from repro.parallel.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    try:
        results = run_all(
            ids=args.ids or None,
            verbose=not args.quiet,
            jobs=args.jobs,
            cache=cache,
            refresh=args.refresh,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(experiments_markdown(results))
        print(f"wrote {args.markdown}")
    failed = [i for i, r in results.items() if not r.all_ok()]
    if failed:
        print(f"FAILED experiments: {failed}", file=sys.stderr)
        return 1
    print(f"all {len(results)} experiments within tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Run the paper-reproduction experiments."
    )
    add_run_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())

"""Process-pool scheduler for the experiment sweep.

Scheduling policy: longest-first.  With ``J`` workers and two dominant
experiments (T2's trace calibration and V1's timing-variance study are
~two thirds of the serial sweep), makespan is minimised by starting the
long jobs first so short ones pack around them; ordering comes from the
durations recorded in the cache on previous runs, falling back to
:data:`FALLBACK_DURATIONS_S` (one measured paper-scale sweep) and
treating unknown experiments as potentially long.

Isolation: each experiment runs in its own pool task and a raising
experiment is returned as a :class:`~repro.experiments.base.FailedResult`
carrying the worker traceback — the rest of the sweep completes, and
the runner's exit status goes nonzero.

Determinism: experiments are pure functions of their seeds and share no
state, so neither the pool layout nor completion order can change any
result; the scheduler reassembles results in the caller's id order so
rendered records are byte-identical to a serial run.

This module is ``nondeterminism-exempt`` in the lint config: it reads
the wall clock, but only to report and record durations — never to
influence a result.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

from repro.experiments.base import ExperimentResult, FailedResult
from repro.parallel.cache import ResultCache
from repro.parallel.hashing import experiment_fingerprint

__all__ = ["FALLBACK_DURATIONS_S", "RunRecord", "longest_first", "run_experiments"]

#: Wall-clock seconds per experiment from one paper-scale serial sweep
#: (single core) — the scheduling prior before any recorded durations
#: exist.  Only the ordering matters, not the absolute values.
FALLBACK_DURATIONS_S: dict[str, float] = {
    "T2": 3.9,
    "V1": 2.9,
    "X-STR": 0.70,
    "X-WIRE": 0.54,
    "F1": 0.54,
    "R1": 0.42,
    "X-FAULT": 0.34,
    "F3": 0.27,
    "X-PATH": 0.18,
    "F2": 0.09,
    "X1": 0.07,
    "Z1": 0.07,
    "X4": 0.05,
    "G1": 0.03,
    "X6": 0.01,
    "X5": 0.005,
    "X2": 0.004,
    "T4": 0.003,
    "X3": 0.003,
    "T5": 0.002,
    "F4": 0.001,
    "S1": 0.001,
}


@dataclass
class RunRecord:
    """How one experiment's result was obtained."""

    experiment_id: str
    result: ExperimentResult
    duration_s: float
    from_cache: bool = False
    error: str | None = None

    @property
    def failed(self) -> bool:
        """Whether the experiment raised instead of returning."""
        return self.error is not None


def longest_first(
    ids: list[str], durations_s: dict[str, float]
) -> list[str]:
    """Order ids longest-first; unknown durations run first.

    Unknown experiments are scheduled ahead of known ones (they might be
    long, and starting a long job late is the one unrecoverable
    scheduling mistake); ties keep the caller's order (stable sort).
    """
    return sorted(
        ids,
        key=lambda i: -durations_s.get(i, float("inf")),
    )


def _execute(
    experiment_id: str, fn: Callable[[], ExperimentResult]
) -> tuple[str, ExperimentResult | None, str | None, float]:
    """Run one experiment, trapping any exception into a traceback."""
    t0 = time.perf_counter()
    try:
        result = fn()
        return experiment_id, result, None, time.perf_counter() - t0
    except Exception:
        return (
            experiment_id,
            None,
            traceback.format_exc(),
            time.perf_counter() - t0,
        )


def _fingerprints(
    registry: dict[str, Callable[[], ExperimentResult]], ids: list[str]
) -> dict[str, str]:
    """Cache keys per id; ids whose module cannot be hashed are skipped
    (they run uncached — e.g. an experiment injected by a test)."""
    keys: dict[str, str] = {}
    for exp_id in ids:
        module = getattr(registry[exp_id], "__module__", None)
        if not module:
            continue
        try:
            keys[exp_id] = experiment_fingerprint(exp_id, module)
        except (ValueError, OSError):
            continue
    return keys


def _pool_context():
    """Prefer fork (fast start, inherits warmed caches) where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None  # pragma: no cover - non-POSIX fallback


def run_experiments(
    registry: dict[str, Callable[[], ExperimentResult]],
    ids: list[str],
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    refresh: bool = False,
) -> dict[str, RunRecord]:
    """Execute ``ids`` from ``registry``, in parallel and/or from cache.

    Parameters
    ----------
    registry:
        Experiment id → zero-argument runner.
    jobs:
        Worker processes; ``None``/``1`` executes in-process (still with
        failure isolation and caching).
    cache:
        Result cache to replay hits from and store misses into.
    refresh:
        Re-run every experiment even on a cache hit (hits are
        overwritten with the fresh result).

    Returns records keyed in the order of ``ids`` regardless of
    completion order, so rendered output is byte-stable.
    """
    n_jobs = 1 if jobs is None else int(jobs)
    if n_jobs < 1:
        raise ValueError("jobs must be >= 1")

    records: dict[str, RunRecord] = {}
    keys = _fingerprints(registry, ids) if cache is not None else {}

    pending: list[str] = []
    for exp_id in ids:
        key = keys.get(exp_id)
        cached = (
            cache.lookup(key)
            if cache is not None and key is not None and not refresh
            else None
        )
        if cached is not None:
            records[exp_id] = RunRecord(
                experiment_id=exp_id,
                result=cached,
                duration_s=0.0,
                from_cache=True,
            )
        else:
            pending.append(exp_id)

    durations_prior = dict(FALLBACK_DURATIONS_S)
    if cache is not None:
        durations_prior.update(cache.durations())
    ordered = longest_first(pending, durations_prior)

    outcomes: list[tuple[str, ExperimentResult | None, str | None, float]] = []
    if n_jobs == 1 or len(ordered) <= 1:
        for exp_id in ordered:
            outcomes.append(_execute(exp_id, registry[exp_id]))
    else:
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, len(ordered)),
            mp_context=_pool_context(),
        ) as pool:
            futures = {
                pool.submit(_execute, exp_id, registry[exp_id]): exp_id
                for exp_id in ordered
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    try:
                        outcomes.append(fut.result())
                    except Exception:
                        # The worker died or its result would not
                        # pickle; record the failure, keep the sweep.
                        outcomes.append(
                            (
                                futures[fut],
                                None,
                                traceback.format_exc(),
                                0.0,
                            )
                        )

    observed_durations_s: dict[str, float] = {}
    for exp_id, result, error, duration_s in outcomes:
        if error is not None:
            result = FailedResult(exp_id, error)
        else:
            observed_durations_s[exp_id] = duration_s
            key = keys.get(exp_id)
            if cache is not None and key is not None:
                cache.store(key, result)
        records[exp_id] = RunRecord(
            experiment_id=exp_id,
            result=result,
            duration_s=duration_s,
            from_cache=False,
            error=error,
        )
    if cache is not None:
        cache.record_durations(observed_durations_s)

    return {exp_id: records[exp_id] for exp_id in ids}

"""Correlated-excursion detectors for the delivered telemetry stream.

The per-cell detectors in :mod:`repro.faults.recovery` catch faults
that betray themselves one cell at a time — a NaN, a latch, a glitch.
The pathologies in :mod:`repro.faults.pathology` do not: a duty-cycled
meter repeats *whole fleet ticks*, an entropy offset moves *every node
together*, and device spread is a *persistent* per-node shift that no
single sample can reveal.  These detectors consume the same delivered
:class:`~repro.stream.ingest.SampleBatch` stream and look for exactly
that correlated structure:

* :class:`AliasingDetector` — counts exact fleet-mean repeats, estimates
  the meter period from the stale-run structure, sweeps candidate
  periods with a phase comb (window-sweep re-averaging), and estimates
  the aliasing bias as *raw average − fresh-samples-only average*.
* :class:`PersistentOffsetDetector` — per-segment per-node power ratios
  to the fleet mean; a node whose ratio keeps the same sign in nearly
  every segment carries a persistent offset.  Reports the cross-node
  spread of those persistent ratios.
* :class:`EntropyDriftDetector` — compares fleet-mean jumps at
  hypothesised segment boundaries against typical interior tick steps;
  a common-mode per-segment offset makes boundary jumps anomalously
  large.

All three are deterministic, pure functions of the observed stream —
no RNG, no wall clock — so detection verdicts replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AliasingDetector",
    "PersistentOffsetDetector",
    "EntropyDriftDetector",
    "CorrelatedDetectors",
    "AliasingVerdict",
    "OffsetVerdict",
    "EntropyVerdict",
    "CorrelatedVerdict",
]

#: Aliasing: the fleet-mean series is suspect when at least this share
#: of consecutive tick pairs repeat exactly ...
ALIAS_REPEAT_FRAC = 0.05
#: ... in at least this many separate stale runs.
ALIAS_MIN_STALE_RUNS = 3
#: Longest meter period the phase comb sweeps.
ALIAS_MAX_PERIOD_TICKS = 64
#: Offset: a node is persistent when its mean ratio to the fleet sits at
#: least this far from 1 ...
OFFSET_MIN_FRAC = 0.01
#: ... with the same sign in at least this share of its segments.
OFFSET_PERSIST_FRAC = 0.8
#: Offset suspicion threshold on the cross-node spread of mean ratios.
OFFSET_CV_THRESHOLD = 0.02
#: Entropy drift: boundary-over-interior step ratio that flags.
ENTROPY_JUMP_RATIO = 3.0


def _fleet_means(watts: np.ndarray) -> np.ndarray:
    """NaN-tolerant per-tick fleet means (NaN when a whole tick is out)."""
    valid = np.isfinite(watts)
    counts = valid.sum(axis=1)
    sums = np.where(valid, watts, 0.0).sum(axis=1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


@dataclass(frozen=True)
class AliasingVerdict:
    """Beat-frequency / stale-hold evidence in the fleet-mean series."""

    suspected: bool
    repeat_frac: float
    stale_runs: int
    period_est_ticks: float
    best_period_ticks: int
    phase_spread_w: float
    bias_w_est: float

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "suspected": self.suspected,
            "repeat_frac": self.repeat_frac,
            "stale_runs": self.stale_runs,
            "period_est_ticks": self.period_est_ticks,
            "best_period_ticks": self.best_period_ticks,
            "phase_spread_w": self.phase_spread_w,
            "bias_w_est": self.bias_w_est,
        }


@dataclass(frozen=True)
class OffsetVerdict:
    """Persistent per-node offset evidence."""

    suspected: bool
    persistent_nodes: int
    n_nodes: int
    persistent_cv: float

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "suspected": self.suspected,
            "persistent_nodes": self.persistent_nodes,
            "n_nodes": self.n_nodes,
            "persistent_cv": self.persistent_cv,
        }


@dataclass(frozen=True)
class EntropyVerdict:
    """Common-mode segment-boundary jump evidence."""

    suspected: bool
    boundary_jump_w: float
    interior_step_w: float
    jump_ratio: float

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "suspected": self.suspected,
            "boundary_jump_w": self.boundary_jump_w,
            "interior_step_w": self.interior_step_w,
            "jump_ratio": self.jump_ratio,
        }


@dataclass(frozen=True)
class CorrelatedVerdict:
    """Combined verdict of the three correlated-excursion detectors."""

    aliasing: AliasingVerdict
    offset: OffsetVerdict
    entropy: EntropyVerdict

    @property
    def any_suspected(self) -> bool:
        """Did any detector flag correlated structure?"""
        return (
            self.aliasing.suspected
            or self.offset.suspected
            or self.entropy.suspected
        )

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "any_suspected": self.any_suspected,
            "aliasing": self.aliasing.to_dict(),
            "offset": self.offset.to_dict(),
            "entropy": self.entropy.to_dict(),
        }

    def lines(self) -> list[str]:
        """Human-readable verdict block."""
        a, o, e = self.aliasing, self.offset, self.entropy
        return [
            "detect aliasing "
            + ("SUSPECTED" if a.suspected else "clear")
            + f" (repeat {100 * a.repeat_frac:.1f}%, "
            f"period ~{a.period_est_ticks:.1f} ticks, "
            f"comb best {a.best_period_ticks}, "
            f"bias est {a.bias_w_est:+.2f} W)",
            "detect node-offset "
            + ("SUSPECTED" if o.suspected else "clear")
            + f" ({o.persistent_nodes}/{o.n_nodes} persistent, "
            f"cv {100 * o.persistent_cv:.2f}%)",
            "detect entropy-drift "
            + ("SUSPECTED" if e.suspected else "clear")
            + f" (boundary jump {e.boundary_jump_w:.2f} W vs "
            f"interior {e.interior_step_w:.2f} W, x{e.jump_ratio:.1f})",
        ]


class AliasingDetector:
    """Detect duty-cycled (sample-and-hold) meters from repeat structure.

    A held reading repeats the previous *fleet* tick exactly — real
    power telemetry essentially never does.  The detector counts exact
    consecutive repeats of the fleet-mean series, estimates the meter
    period as ``ticks / stale-run count``, and re-averages with a phase
    comb: for each candidate period the per-phase means of the series
    are computed, and the best candidate is the one whose phases spread
    the most (the beat signature of a duty cycle).  The bias estimate
    is ``mean(all ticks) − mean(fresh ticks only)`` — what window-sweep
    re-averaging would remove.
    """

    def verdict(self, series_w: np.ndarray) -> AliasingVerdict:
        """Judge a fleet-mean-per-tick series (NaNs tolerated)."""
        v = np.asarray(series_w, dtype=float)
        finite = np.isfinite(v)
        prev, curr = v[:-1], v[1:]
        both = finite[:-1] & finite[1:]
        rep_pair = both & (prev == curr)
        n_pairs = int(both.sum())
        repeat_frac = float(rep_pair.sum()) / max(1, n_pairs)
        # A stale run starts where a repeat pair follows a non-repeat.
        starts = rep_pair & ~np.concatenate(([False], rep_pair[:-1]))
        stale_runs = int(starts.sum())
        period_est = v.size / stale_runs if stale_runs > 0 else 0.0
        # Fresh ticks: finite and not a repeat of their predecessor.
        stale = np.concatenate(([False], rep_pair))
        fresh = finite & ~stale
        raw_mean = float(v[finite].mean()) if finite.any() else 0.0
        fresh_mean = float(v[fresh].mean()) if fresh.any() else raw_mean
        bias_w_est = raw_mean - fresh_mean
        best_period, best_spread = 0, 0.0
        max_p = min(ALIAS_MAX_PERIOD_TICKS, max(2, v.size // 4))
        for p in range(2, max_p + 1):
            spreads = []
            for phase in range(p):
                comb = v[phase::p]
                comb = comb[np.isfinite(comb)]
                if comb.size:
                    spreads.append(float(comb.mean()))
            if len(spreads) >= 2:
                spread = max(spreads) - min(spreads)
                if spread > best_spread:
                    best_period, best_spread = p, spread
        suspected = (
            repeat_frac >= ALIAS_REPEAT_FRAC
            and stale_runs >= ALIAS_MIN_STALE_RUNS
        )
        return AliasingVerdict(
            suspected=suspected,
            repeat_frac=repeat_frac,
            stale_runs=stale_runs,
            period_est_ticks=period_est,
            best_period_ticks=best_period,
            phase_spread_w=best_spread,
            bias_w_est=bias_w_est,
        )


class PersistentOffsetDetector:
    """Detect persistent per-node offsets from segment-wise ratios.

    Each segment yields one power ratio per node (node segment mean over
    fleet segment mean).  A node is *persistent* when its mean ratio
    sits at least :data:`OFFSET_MIN_FRAC` from 1 **and** the ratio keeps
    the same sign in at least :data:`OFFSET_PERSIST_FRAC` of the
    segments it appears in.  ``persistent_cv`` — the cross-node
    standard deviation of the mean ratios — measures how much of the
    fleet's node CV is carried by such standing offsets; device spread
    inflates it directly, which is why the suspicion threshold
    (:data:`OFFSET_CV_THRESHOLD`) is on the CV, not on the node count.
    """

    def verdict(self, ratios: np.ndarray) -> OffsetVerdict:
        """Judge a ``(n_segments, n_nodes)`` matrix of node/fleet ratios."""
        r = np.asarray(ratios, dtype=float)
        if r.ndim != 2 or r.shape[0] < 2:
            return OffsetVerdict(
                suspected=False,
                persistent_nodes=0,
                n_nodes=0 if r.ndim != 2 else r.shape[1],
                persistent_cv=0.0,
            )
        finite = np.isfinite(r)
        seen = finite.sum(axis=0)
        dev = np.where(finite, r - 1.0, 0.0)
        mean_ratio = 1.0 + dev.sum(axis=0) / np.maximum(seen, 1)
        pos = (finite & (dev > 0.0)).sum(axis=0)
        neg = (finite & (dev < 0.0)).sum(axis=0)
        consistent = (
            np.maximum(pos, neg) >= OFFSET_PERSIST_FRAC * np.maximum(seen, 1)
        )
        offset = np.abs(mean_ratio - 1.0) >= OFFSET_MIN_FRAC
        persistent = consistent & offset & (seen >= 2)
        judged = mean_ratio[seen >= 2]
        cv = float(judged.std(ddof=1)) if judged.size >= 2 else 0.0
        return OffsetVerdict(
            suspected=cv >= OFFSET_CV_THRESHOLD,
            persistent_nodes=int(persistent.sum()),
            n_nodes=int(r.shape[1]),
            persistent_cv=cv,
        )


class EntropyDriftDetector:
    """Detect common-mode per-segment offsets from boundary jumps.

    An entropy-dependent offset is constant within a segment and steps
    at segment boundaries, so the fleet-mean series jumps anomalously
    exactly there.  The detector compares the *median* absolute
    fleet-mean step at hypothesised boundaries (every ``segment_ticks``)
    against the median *non-zero* interior step.  Medians on both
    sides: a genuine per-segment offset moves *every* boundary, while a
    workload phase transition (an HPL tail-off step) that happens to
    coincide with one boundary moves only that one — a mean would be
    dragged over the threshold by that single coincidence, a median is
    not.  Interior steps of exactly zero are excluded so a stacked
    aliasing meter's held ticks do not deflate the baseline.
    """

    def __init__(self, *, segment_ticks: int = 60) -> None:
        if segment_ticks < 2:
            raise ValueError("segment_ticks must be >= 2")
        self.segment_ticks = int(segment_ticks)

    def verdict(self, series_w: np.ndarray) -> EntropyVerdict:
        """Judge a fleet-mean-per-tick series (NaNs tolerated)."""
        v = np.asarray(series_w, dtype=float)
        steps = np.abs(np.diff(v))
        ok = np.isfinite(steps)
        # Step i is v[i+1] − v[i]; it crosses a boundary when i+1 is a
        # segment start.
        at_boundary = (np.arange(1, v.size) % self.segment_ticks) == 0
        jumps = steps[ok & at_boundary]
        interior = steps[ok & ~at_boundary]
        interior = interior[interior > 0.0]
        if jumps.size < 2 or interior.size < 2:
            return EntropyVerdict(
                suspected=False,
                boundary_jump_w=0.0,
                interior_step_w=0.0,
                jump_ratio=0.0,
            )
        jump_w = float(np.median(jumps))
        step_w = float(np.median(interior))
        ratio = jump_w / step_w if step_w > 0 else float("inf")
        return EntropyVerdict(
            suspected=ratio >= ENTROPY_JUMP_RATIO,
            boundary_jump_w=jump_w,
            interior_step_w=step_w,
            jump_ratio=ratio,
        )


class CorrelatedDetectors:
    """Streaming front end bundling the three correlated detectors.

    Feed delivered batches through :meth:`observe` (duck-typed: anything
    with ``watts`` shaped ``(n_ticks, n_nodes)`` works, so both
    :class:`~repro.stream.ingest.SampleBatch` and raw matrices plug in),
    then call :meth:`verdict`.  State kept is O(ticks) for the fleet
    series plus O(segments × nodes) for the ratio matrix — never the
    full power matrix.
    """

    def __init__(self, *, segment_ticks: int = 60) -> None:
        self.aliasing = AliasingDetector()
        self.offset = PersistentOffsetDetector()
        self.entropy = EntropyDriftDetector(segment_ticks=segment_ticks)
        self.segment_ticks = int(segment_ticks)
        self._fleet_chunks: list[np.ndarray] = []
        # Rows of the segment currently filling; a segment is always
        # reduced in one fixed-shape call, so verdicts are exactly
        # invariant to how the stream was chunked into batches.
        self._seg_rows: list[np.ndarray] = []
        self._ratio_rows: list[np.ndarray] = []
        self.ticks_seen = 0

    @staticmethod
    def _ratio_row(segment_watts: np.ndarray) -> np.ndarray | None:
        """One node/fleet ratio row from a full segment matrix."""
        valid = np.isfinite(segment_watts)
        counts = valid.sum(axis=0)
        sums = np.where(valid, segment_watts, 0.0).sum(axis=0)
        node_mean_w = sums / np.maximum(counts, 1)
        observed = counts > 0
        if not observed.any():
            return None
        fleet_w = float(node_mean_w[observed].mean())
        if fleet_w <= 0:
            return None
        row = np.full(node_mean_w.shape, np.nan)
        row[observed] = node_mean_w[observed] / fleet_w
        return row

    def observe(self, batch) -> None:
        """Fold one delivered batch into the detector state."""
        watts = np.asarray(batch.watts, dtype=float)
        self._fleet_chunks.append(_fleet_means(watts))
        self.ticks_seen += int(watts.shape[0])
        lo = 0
        n_ticks = watts.shape[0]
        while lo < n_ticks:
            filled = sum(r.shape[0] for r in self._seg_rows)
            hi = min(n_ticks, lo + self.segment_ticks - filled)
            self._seg_rows.append(watts[lo:hi].copy())
            if filled + (hi - lo) >= self.segment_ticks:
                row = self._ratio_row(np.concatenate(self._seg_rows))
                if row is not None:
                    self._ratio_rows.append(row)
                self._seg_rows = []
            lo = hi

    def verdict(self) -> CorrelatedVerdict:
        """Judge everything observed so far (pure; observe can continue)."""
        series = (
            np.concatenate(self._fleet_chunks)
            if self._fleet_chunks
            else np.empty(0)
        )
        rows = list(self._ratio_rows)
        # Include the partial trailing segment without consuming it.
        if self._seg_rows:
            partial = np.concatenate(self._seg_rows)
            if partial.shape[0] >= 2:
                row = self._ratio_row(partial)
                if row is not None:
                    rows.append(row)
        ratios = (
            np.stack(rows) if rows else np.empty((0, 0))
        )
        return CorrelatedVerdict(
            aliasing=self.aliasing.verdict(series),
            offset=self.offset.verdict(ratios),
            entropy=self.entropy.verdict(series),
        )

"""Self-healing ingestion: retry, detect, repair, quarantine, label.

The clean pipeline (:mod:`repro.stream.ingest`) assumes every sample
arrives finite and on time.  This module is the hardened version a real
collector needs, in four deterministic pieces:

* :class:`RetryPolicy` + :class:`RetryingSource` — transient
  delivery failures (:class:`TransientMeterError`) are absorbed by
  bounded retry with exponential backoff and seeded jitter, all on the
  :class:`~repro.stream.ingest.SimClock`; after ``max_retries`` the
  batch is abandoned, *counted*, and the source moves on.
* :class:`FlakySource` — a deterministic fault wrapper that makes any
  batch source raise a seeded number of transient failures per batch;
  the chaos harness's delivery-failure channel.
* :class:`RecoveryPipeline` — per-sample detection (NaN dropouts,
  stuck-at-last-value repeats, spike glitches), configurable gap
  policies (``hold`` / ``interpolate`` / ``exclude``), per-node
  quarantine after sustained outages, a circuit breaker that downgrades
  the run's compliance level instead of failing, and one-pass masked
  statistics feeding a :class:`~repro.faults.quality.QualityReport`.
* :class:`~repro.stream.estimators.MaskedRunningMoments` — the
  per-node accumulator that tolerates holes: each node keeps its own
  count, so a missing cell simply doesn't advance that node's moments.

Recovery runs only where input can be faulty: the chaos, wire-chaos and
pathology harnesses and the wire path.  The shard kernel folds the
simulator's own stream, which holds no faults, without it.  Two
builders render the label with one set of fleet-statistics
definitions: :func:`build_quality_report` for a pipeline, and
:func:`fold_quality_report` for a fold that repaired nothing (a sharded
session, or a served session that writes gap frames off whole).

Everything is a pure function of ``(inputs, seed)``; nothing here reads
the wall clock or global RNG state, and a replay of the same faulty
stream produces a bit-identical report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.faults.quality import QualityReport
from repro.rng import stream
from repro.stream.estimators import MaskedRunningMoments, RunningMoments
from repro.stream.ingest import SampleBatch, SimClock

__all__ = [
    "breaker_level",
    "TransientMeterError",
    "RetryPolicy",
    "FlakySource",
    "RetryingSource",
    "GAP_POLICIES",
    "RecoveryPipeline",
    "build_quality_report",
    "fold_quality_report",
]

#: Supported gap-repair policies.
GAP_POLICIES = ("hold", "interpolate", "exclude")

#: Retry backoff: attempt ``k`` (0-based) waits
#: ``BACKOFF_BASE_S * BACKOFF_FACTOR**k``, perturbed by
#: ±``BACKOFF_JITTER_FRAC``.
BACKOFF_BASE_S = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER_FRAC = 0.1

#: A finite reading above this multiple of the node's last trusted
#: reading is a spike glitch.
SPIKE_RATIO = 4.0


class TransientMeterError(RuntimeError):
    """A retryable delivery failure (collector timeout, bus glitch)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    Attempt ``k`` (0-based) waits ``BACKOFF_BASE_S * BACKOFF_FACTOR**k``,
    perturbed by ±``BACKOFF_JITTER_FRAC`` (drawn from the caller's
    seeded stream so replays back off identically).
    """

    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def delay_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        nominal_s = BACKOFF_BASE_S * BACKOFF_FACTOR ** attempt
        jitter = 1.0 + BACKOFF_JITTER_FRAC * (2.0 * rng.random() - 1.0)
        return nominal_s * jitter


class FlakySource:
    """Wrap a batch iterator with deterministic transient failures.

    Each underlying batch is preceded by a seeded geometric number of
    :class:`TransientMeterError` raises (``failure_rate`` is the
    per-attempt failure probability).  The wrapper is itself a batch
    iterator, so it drops straight into :class:`RetryingSource` — or
    straight into a plain ``for`` loop, where the first failure crashes
    the run and motivates this module.
    """

    def __init__(
        self,
        batches,
        *,
        failure_rate: float,
        seed: int | None = None,
        label: str = "flaky-source",
    ) -> None:
        if not (0.0 <= failure_rate < 1.0):
            raise ValueError(
                f"failure_rate must be in [0, 1), got {failure_rate}"
            )
        self._inner = iter(batches)
        self._rate = failure_rate
        self._rng = stream(seed, label)
        self._pending: SampleBatch | None = None
        self._fails_left = 0
        self.failures_raised = 0

    def __iter__(self) -> "FlakySource":
        return self

    def _draw_failures(self) -> int:
        k = 0
        while self._rate > 0 and self._rng.random() < self._rate:
            k += 1
        return k

    def __next__(self) -> SampleBatch:
        if self._pending is None:
            self._pending = next(self._inner)
            self._fails_left = self._draw_failures()
        if self._fails_left > 0:
            self._fails_left -= 1
            self.failures_raised += 1
            raise TransientMeterError(
                "simulated transient delivery failure"
            )
        batch = self._pending
        self._pending = None
        return batch

    def abandon_current(self) -> SampleBatch | None:
        """Give up on the pending batch; returns it (for accounting)."""
        batch = self._pending
        self._pending = None
        self._fails_left = 0
        return batch


class RetryingSource:
    """A batch source that survives transient delivery failures.

    Wraps any batch iterator.  When ``next(source)`` raises
    :class:`TransientMeterError` the :class:`RetryPolicy` kicks in:
    back off on the simulated clock, retry, and after ``max_retries``
    abandon the batch (via the source's ``abandon_current`` hook when it
    has one) and move on.  Every retry, abandonment and lost sample is
    counted — faults never disappear silently.  It is itself a batch
    iterator, so a driver folds it with a plain ``for`` loop.
    """

    def __init__(
        self,
        source,
        *,
        clock: SimClock,
        policy: RetryPolicy | None = None,
        seed: int | None = None,
    ) -> None:
        self._source = iter(source)
        self._clock = clock
        self._policy = policy if policy is not None else RetryPolicy()
        self._rng = stream(seed, "resilient-ingest:retry-jitter")
        self.retries = 0
        self.backoff_ticks = 0
        self.batches_abandoned = 0
        self.samples_abandoned = 0
        #: Abandoned batches, kept for exact fault reconciliation.
        self.abandoned: list[SampleBatch] = []

    def __iter__(self) -> "RetryingSource":
        return self

    def __next__(self) -> SampleBatch:
        attempt = 0
        while True:
            try:
                return next(self._source)
            except TransientMeterError:
                if attempt >= self._policy.max_retries:
                    self._abandon()
                    attempt = 0
                    continue
                delay_s = self._policy.delay_s(attempt, self._rng)
                ticks = max(1, math.ceil(delay_s / self._clock.dt_s))
                self._clock.advance(ticks)
                self.backoff_ticks += ticks
                self.retries += 1
                attempt += 1

    def _abandon(self) -> None:
        self.batches_abandoned += 1
        abandon = getattr(self._source, "abandon_current", None)
        if abandon is None:
            return
        batch = abandon()
        if batch is not None:
            self.samples_abandoned += batch.n_samples
            self.abandoned.append(batch)


def breaker_level(
    original_level: int, coverage: float, any_quarantined: bool
) -> int:
    """Grade surviving coverage into an effective compliance level."""
    level = original_level
    if coverage < 0.995 or any_quarantined:
        level = min(level, 2)
    if coverage < 0.98:
        level = min(level, 1)
    if coverage < 0.60:
        level = 0
    return level


def _fleet_statistics(
    node_means: np.ndarray, node_stds: np.ndarray
) -> dict:
    """The label's fleet statistics over the nodes it uses.

    ``fleet_mean_w`` is the mean of the node means, ``sigma_node_w``
    their ddof=1 std and ``sigma_tick_w`` the mean per-node ddof=1
    std; below two nodes only the mean is defined.
    """
    n_used = int(node_means.size)
    if n_used < 2:
        return dict(
            fleet_mean_w=float(node_means[0]) if n_used else 0.0,
            node_cv=0.0,
            sigma_node_w=0.0,
            sigma_tick_w=0.0,
            n_nodes_used=n_used,
        )
    fleet_mean_w = float(node_means.mean())
    sigma_node_w = float(node_means.std(ddof=1))
    return dict(
        fleet_mean_w=fleet_mean_w,
        node_cv=sigma_node_w / fleet_mean_w if fleet_mean_w > 0 else 0.0,
        sigma_node_w=sigma_node_w,
        sigma_tick_w=float(node_stds.mean()),
        n_nodes_used=n_used,
    )


def build_quality_report(
    pipeline: "RecoveryPipeline",
    *,
    expected_ticks: int,
    batches_retried: int = 0,
    batches_abandoned: int = 0,
) -> QualityReport:
    """Render a recovery pipeline's state into its quality label.

    :meth:`RecoveryPipeline.finalize` calls it once tail gaps are
    flushed.  ``expected_ticks`` is the planned horizon (what a perfect
    meter would have delivered); the gap between it and what arrived is
    attributed to truncation/abandonment (``samples_never_arrived``).
    """
    if expected_ticks < pipeline.ticks_seen:
        raise ValueError(
            "expected_ticks cannot be below the ticks actually seen"
        )
    quarantined = pipeline._nodes.quarantined
    kept = ~quarantined
    n = pipeline._node_ids.size
    samples_expected = int(expected_ticks) * n
    samples_arrived = pipeline.ticks_seen * n
    coverage = float(pipeline._usable_per_node[kept].sum()) / max(
        samples_expected, 1
    )
    # Fleet statistics over surviving nodes.
    moments = pipeline._moments
    used = kept & (moments.count >= 2)
    return QualityReport(
        samples_expected=samples_expected,
        samples_arrived=samples_arrived,
        samples_missing=pipeline.samples_missing,
        samples_never_arrived=samples_expected - samples_arrived,
        samples_stuck=pipeline.samples_stuck,
        samples_spiked=pipeline.samples_spiked,
        samples_held=pipeline.samples_held,
        samples_interpolated=pipeline.samples_interpolated,
        samples_excluded=pipeline.samples_excluded,
        nodes_quarantined=tuple(pipeline._node_ids[quarantined].tolist()),
        batches_retried=batches_retried,
        batches_abandoned=batches_abandoned,
        effective_coverage=coverage,
        original_level=pipeline.original_level,
        effective_level=breaker_level(
            pipeline.original_level, coverage, bool(quarantined.any())
        ),
        **_fleet_statistics(moments.mean[used], moments.std[used]),
    )


def fold_quality_report(
    node_moments: RunningMoments,
    *,
    cells_folded: int,
    cells_written_off: int,
    original_level: int,
) -> QualityReport:
    """Label a fold that repaired nothing.

    ``cells_folded`` cells reached the fold's per-node ``node_moments``;
    ``cells_written_off`` arrived but were refused whole (a served
    session's gap frames) and count as missing and excluded.  Nothing
    was flagged, held, interpolated, quarantined or retried, so the
    breaker grades coverage alone.  The fleet statistics are
    :func:`build_quality_report`'s, over every node of the fold.
    """
    arrived = cells_folded + cells_written_off
    coverage = cells_folded / arrived if arrived else 0.0
    node_means = node_moments.mean
    node_stds = (
        node_moments.std()
        if node_moments.count >= 2
        else np.zeros_like(node_means)
    )
    return QualityReport(
        samples_expected=arrived,
        samples_arrived=arrived,
        samples_missing=cells_written_off,
        samples_never_arrived=0,
        samples_stuck=0,
        samples_spiked=0,
        samples_held=0,
        samples_interpolated=0,
        samples_excluded=cells_written_off,
        nodes_quarantined=(),
        batches_retried=0,
        batches_abandoned=0,
        effective_coverage=coverage,
        original_level=original_level,
        effective_level=breaker_level(original_level, coverage, False),
        **_fleet_statistics(node_means, node_stds),
    )


class _NodeState:
    """Cross-batch per-node recovery state (arrays over nodes)."""

    def __init__(self, n_nodes: int) -> None:
        self.last_raw = np.full(n_nodes, np.nan)      # last finite reading
        self.last_good = np.full(n_nodes, np.nan)     # last trusted reading
        self.repeat_run = np.zeros(n_nodes, dtype=np.int64)
        self.missing_run = np.zeros(n_nodes, dtype=np.int64)
        self.quarantined = np.zeros(n_nodes, dtype=bool)
        self.gap_len = np.zeros(n_nodes, dtype=np.int64)  # interpolate only


class RecoveryPipeline:
    """Detect, repair and label a degraded per-node sample stream.

    Feed it :class:`~repro.stream.ingest.SampleBatch` objects (NaN
    marks a missing reading) via :meth:`observe`; call :meth:`finalize`
    with the planned horizon to get the :class:`QualityReport`.

    Detection — per cell, in order:

    1. **missing**: the reading is NaN.
    2. **stuck**: the reading exactly equals the node's previous finite
       reading for at least ``stuck_min_repeats`` consecutive ticks (a
       latched meter; genuine continuous readings never repeat
       exactly).
    3. **spiked**: the reading exceeds :data:`SPIKE_RATIO` × the
       node's last trusted reading (an isolated ADC glitch).

    Repair — what a flagged/missing cell contributes to statistics:

    * ``hold``: the node's last trusted reading.
    * ``interpolate``: linear fill once the gap closes (tail gaps fall
      back to hold).
    * ``exclude``: nothing — the cell is excised.

    A node whose readings go missing for ``quarantine_after``
    consecutive ticks is quarantined (sticky): its column is dropped
    from the final statistics and reported in the quality label.  The
    circuit breaker then grades the surviving coverage into an
    effective compliance level — a degraded run downgrades (L3 → L2 →
    L1 → 0) instead of failing.
    """

    def __init__(
        self,
        *,
        gap_policy: str = "hold",
        stuck_min_repeats: int = 1,
        quarantine_after: int = 30,
        original_level: int = 2,
    ) -> None:
        if gap_policy not in GAP_POLICIES:
            raise ValueError(
                f"gap_policy must be one of {GAP_POLICIES}, got {gap_policy!r}"
            )
        if stuck_min_repeats < 1:
            raise ValueError("stuck_min_repeats must be >= 1")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.gap_policy = gap_policy
        self.stuck_min_repeats = int(stuck_min_repeats)
        self.quarantine_after = int(quarantine_after)
        self.original_level = int(original_level)
        # Established on the first batch.
        self._nodes: _NodeState | None = None
        self._moments: MaskedRunningMoments | None = None
        self._node_ids: np.ndarray | None = None
        self._usable_per_node: np.ndarray | None = None
        # Counters.
        self.ticks_seen = 0
        self.samples_missing = 0
        self.samples_stuck = 0
        self.samples_spiked = 0
        self.samples_held = 0
        self.samples_interpolated = 0
        self.samples_excluded = 0

    # ------------------------------------------------------------------
    def _start(self, batch: SampleBatch) -> None:
        n = batch.n_nodes
        self._nodes = _NodeState(n)
        self._moments = MaskedRunningMoments(n)
        self._node_ids = np.asarray(batch.node_ids, dtype=np.int64).copy()
        self._usable_per_node = np.zeros(n, dtype=np.int64)

    def observe(self, batch: SampleBatch) -> None:
        """Fold one (possibly faulty) batch into the pipeline.

        Two whole-batch paths skip the per-tick loop, each bit-identical
        to it: a batch :meth:`_is_clean` accepts, and a batch with no
        finite reading at all (the gap batch a
        :class:`~repro.wire.session.WireReader` emits for a lost frame),
        which :meth:`_observe_missing` folds.  Any other batch goes
        through :meth:`_observe_row` tick by tick.
        """
        if self._nodes is None:
            self._start(batch)
        elif not np.array_equal(batch.node_ids, self._node_ids):
            raise ValueError("batch node_ids changed mid-stream")
        watts = np.asarray(batch.watts, dtype=float)
        if watts.shape[0] == 0:
            return
        if self._is_clean(watts):
            self._observe_clean(watts)
        elif not np.isfinite(watts).any():
            self._observe_missing(watts)
        else:
            for row in watts:
                self._observe_row(row)

    def _is_clean(self, watts: np.ndarray) -> bool:
        """Whether every cell of a non-empty batch is plainly usable.

        True when every reading is finite, none is a :data:`SPIKE_RATIO`
        jump past the previous reading, none can be stuck, no node is
        quarantined and no interpolation gap is open.  Each row's
        references are then the row before it (or the node's last
        reading), because every earlier row is usable too.  No reading
        can be stuck when none exactly repeats the node's previous one,
        or when no node's repeat run can reach ``stuck_min_repeats``
        within the batch, so every repeat stays usable.  A batch with no
        finite reading is not clean either; :meth:`observe` then folds
        it whole through :meth:`_observe_missing`.
        """
        nodes = self._nodes
        if nodes.quarantined.any():
            return False
        if self.gap_policy == "interpolate" and nodes.gap_len.any():
            return False
        if not np.isfinite(watts).all():
            return False
        first, rest, prev = watts[0], watts[1:], watts[:-1]
        can_stick = (
            nodes.repeat_run.max() + watts.shape[0] >= self.stuck_min_repeats
        )
        if can_stick and (
            (first == nodes.last_raw).any() or (rest == prev).any()
        ):
            return False
        # NaN references (no reading yet) compare False, quietly.
        return not (
            (first > SPIKE_RATIO * nodes.last_good).any()
            or (rest > SPIKE_RATIO * prev).any()
        )

    def _observe_clean(self, watts: np.ndarray) -> None:
        """Fold a batch :meth:`_is_clean` accepted, all rows at once.

        Bit-identical to the per-tick loop: nothing is missing, stuck,
        spiked, repaired or quarantined, so every cell is valid, and one
        all-valid :meth:`MaskedRunningMoments.push_batch` adds the rows
        in the order the loop's row pushes would.  A node's repeat run
        ends as the loop leaves it: its trailing streak of exact
        repeats, on top of the run before the batch if every row
        repeats.
        """
        n_ticks = watts.shape[0]
        self._moments.push_batch(watts, np.ones(watts.shape, dtype=bool))
        nodes = self._nodes
        repeats = np.empty(watts.shape, dtype=bool)
        np.equal(watts[0], nodes.last_raw, out=repeats[0])
        np.equal(watts[1:], watts[:-1], out=repeats[1:])
        if repeats.any():
            moved = ~repeats[::-1]
            nodes.repeat_run = np.where(
                moved.any(axis=0),
                moved.argmax(axis=0),
                nodes.repeat_run + n_ticks,
            )
        else:
            nodes.repeat_run[:] = 0
        nodes.missing_run[:] = 0
        self._usable_per_node += n_ticks
        nodes.last_good = watts[-1].copy()
        nodes.last_raw = watts[-1].copy()
        self.ticks_seen += n_ticks

    def _observe_missing(self, watts: np.ndarray) -> None:
        """Fold a non-empty batch with no finite reading, all rows at once.

        Bit-identical to the per-tick loop.  No cell is usable, so no
        reading, repeat or trusted value moves, and row ``t`` (1-based)
        only extends each node's outage run to ``missing_run + t``.  A
        node is quarantined from the row where that run reaches
        ``quarantine_after`` (or throughout, if it already was); every
        other cell of a node with a trusted reading is repaired, and the
        rest are excluded.  Under ``hold`` the repaired cells are the
        node's last trusted reading, folded as one masked
        :meth:`MaskedRunningMoments.push_batch`, which adds them in the
        order the loop's row pushes would; under ``interpolate`` they
        lengthen the node's open gap.
        """
        nodes = self._nodes
        n_ticks = watts.shape[0]
        runs = nodes.missing_run + np.arange(1, n_ticks + 1)[:, None]
        quarantined = nodes.quarantined | (runs >= self.quarantine_after)
        if self.gap_policy == "exclude":
            repaired = np.zeros_like(quarantined)
        else:
            repaired = ~quarantined & np.isfinite(nodes.last_good)
        n_repaired = int(np.count_nonzero(repaired))
        self.samples_missing += watts.size
        self.samples_excluded += watts.size - n_repaired
        if self.gap_policy == "hold" and n_repaired:
            self.samples_held += n_repaired
            self._moments.push_batch(
                np.broadcast_to(nodes.last_good, watts.shape), repaired
            )
        elif self.gap_policy == "interpolate":
            nodes.gap_len += repaired.sum(axis=0)
        nodes.repeat_run[:] = 0
        nodes.missing_run = runs[-1].copy()
        nodes.quarantined |= quarantined[-1]
        self.ticks_seen += n_ticks

    def _observe_row(self, row: np.ndarray) -> None:
        """Detect, repair and fold one tick (the general path)."""
        nodes = self._nodes
        finite = np.isfinite(row)
        missing = ~finite
        self.samples_missing += int(np.count_nonzero(missing))
        # Stuck: exact repeat of the previous finite reading.
        eq = finite & np.isfinite(nodes.last_raw) & (row == nodes.last_raw)
        nodes.repeat_run = np.where(eq, nodes.repeat_run + 1, 0)
        stuck = eq & (nodes.repeat_run >= self.stuck_min_repeats)
        self.samples_stuck += int(np.count_nonzero(stuck))
        # Spike: a jump past SPIKE_RATIO x the last trusted reading.
        ref = nodes.last_good
        with np.errstate(invalid="ignore"):
            spiked = (
                finite
                & ~stuck
                & np.isfinite(ref)
                & (row > SPIKE_RATIO * ref)
            )
        self.samples_spiked += int(np.count_nonzero(spiked))
        usable = finite & ~stuck & ~spiked
        # Quarantine on sustained outage (sticky).
        nodes.missing_run = np.where(missing, nodes.missing_run + 1, 0)
        nodes.quarantined |= nodes.missing_run >= self.quarantine_after
        # Account + repair, as mask arithmetic over the tick's cells.
        # An unusable cell is excised when its node is quarantined or
        # has no trusted reading yet (always, under ``exclude``); the
        # rest are held in this tick's row push or deferred to an
        # interpolation gap.  A column's sums never read another column,
        # so one masked row push equals pushing cell by cell.
        active = usable & ~nodes.quarantined
        unusable = ~usable
        if self.gap_policy == "exclude":
            excluded = unusable
        else:
            excluded = unusable & (
                nodes.quarantined | ~np.isfinite(nodes.last_good)
            )
        repaired = unusable & ~excluded
        self.samples_excluded += int(np.count_nonzero(excluded))
        push_vals = np.where(active, row, 0.0)
        push_mask = active
        if self.gap_policy == "interpolate":
            self.samples_interpolated += self._fill_gaps(
                np.where(active, nodes.gap_len, 0), row
            )
            nodes.gap_len += repaired
        elif self.gap_policy == "hold":
            self.samples_held += int(np.count_nonzero(repaired))
            push_vals = np.where(repaired, nodes.last_good, push_vals)
            push_mask = active | repaired
        self._moments.push_row(push_vals, push_mask)
        self._usable_per_node += active
        nodes.last_good = np.where(usable, row, nodes.last_good)
        nodes.last_raw = np.where(finite, row, nodes.last_raw)
        self.ticks_seen += 1

    # ------------------------------------------------------------------
    def _fill_gaps(self, gaps: np.ndarray, end: np.ndarray | None) -> int:
        """Fold ``gaps[j]`` deferred cells into each column ``j`` and
        close those gaps; returns how many cells were filled.

        Fill step ``k`` of a gap of length ``g`` is
        ``lo + (end − lo)·k/(g + 1)``, ``lo`` being the node's last
        trusted reading (a linear fill towards the reading that closed
        the gap), or ``lo`` itself when ``end`` is None (a hold).  Step
        ``k`` of every column with ``g ≥ k`` goes into one masked row
        push; columns are independent in the update, so each sees the
        same updates, in the same order, as a cell-by-cell fill.
        """
        lo = self._nodes.last_good
        for k in range(1, int(gaps.max()) + 1):
            values = lo if end is None else lo + (end - lo) * k / (gaps + 1)
            self._moments.push_row(values, gaps >= k)
        filled = int(gaps.sum())
        self._nodes.gap_len -= gaps
        return filled

    def _flush_tail_gaps(self) -> None:
        """Hold-fill interpolation gaps still open at end of stream."""
        if self.gap_policy == "interpolate":
            self.samples_held += self._fill_gaps(self._nodes.gap_len, None)

    def finalize(
        self,
        *,
        expected_ticks: int,
        batches_retried: int = 0,
        batches_abandoned: int = 0,
    ) -> QualityReport:
        """Close the stream and emit the quality-labelled statistics.

        Holds still-open interpolation gaps (tail gaps), then renders
        this pipeline through :func:`build_quality_report`.
        """
        if self._nodes is None:
            raise ValueError("no batches observed")
        self._flush_tail_gaps()
        return build_quality_report(
            self,
            expected_ticks=expected_ticks,
            batches_retried=batches_retried,
            batches_abandoned=batches_abandoned,
        )

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
* :class:`MaskedRunningMoments` — the per-node Welford accumulator that
  tolerates holes: each node keeps its own count, so a missing cell
  simply doesn't advance that node's moments.

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
from repro.stream.estimators import axis0_sum
from repro.stream.ingest import SampleBatch, SimClock

__all__ = [
    "breaker_level",
    "TransientMeterError",
    "RetryPolicy",
    "FlakySource",
    "RetryingSource",
    "MaskedRunningMoments",
    "GAP_POLICIES",
    "RecoveryState",
    "RecoveryPipeline",
    "build_quality_report",
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
    straight into the plain :class:`~repro.stream.ingest.IngestLoop`,
    where the first failure crashes the run and motivates this module.
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
    iterator, so the plain :class:`~repro.stream.ingest.IngestLoop`
    drives it with its one put/drain schedule.
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


class MaskedRunningMoments:
    """Per-component Welford moments that tolerate missing samples.

    Like :class:`repro.stream.estimators.RunningMoments`, but each of
    the ``n_components`` columns keeps its *own* count: pushing a row
    with a validity mask advances only the valid columns.  Update order
    is strictly row-by-row, so the accumulated moments are bit-identical
    for any batching of the same row sequence.
    """

    __slots__ = ("_count", "_mean", "_m2")

    def __init__(self, n_components: int) -> None:
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self._count = np.zeros(n_components, dtype=np.int64)
        self._mean = np.zeros(n_components)
        self._m2 = np.zeros(n_components)

    @property
    def count(self) -> np.ndarray:
        """Valid samples per component."""
        return self._count.copy()

    def push_row(self, values: np.ndarray, valid: np.ndarray) -> None:
        """Fold one row in; only ``valid`` columns advance."""
        values = np.asarray(values, dtype=float)
        valid = np.asarray(valid, dtype=bool)
        if values.shape != self._mean.shape or valid.shape != values.shape:
            raise ValueError("row shape must match n_components")
        cnt = self._count + valid
        delta = np.where(valid, values - self._mean, 0.0)
        self._mean = self._mean + delta / np.maximum(cnt, 1)
        delta2 = np.where(valid, values - self._mean, 0.0)
        self._m2 = self._m2 + delta * delta2
        self._count = cnt

    def push_value(self, component: int, value: float) -> None:
        """Fold a single scalar into one component."""
        row = np.zeros_like(self._mean)
        valid = np.zeros_like(self._mean, dtype=bool)
        row[component] = value
        valid[component] = True
        self.push_row(row, valid)

    @classmethod
    def concat(cls, parts: list["MaskedRunningMoments"]) -> "MaskedRunningMoments":
        """Join component-partitioned estimators along the component axis.

        The shard reduction for masked moments: each component already
        keeps its own count, so joining node-disjoint shards is a pure
        array concatenation in node order — exact to the bit, with no
        floating-point combination at all.  Unlike
        :meth:`repro.stream.estimators.RunningMoments.concat` the parts
        may have *different* per-component counts (holes are per node).
        """
        if not parts:
            raise ValueError("concat needs at least one part")
        out = cls(sum(p._count.size for p in parts))
        out._count = np.concatenate([p._count for p in parts])
        out._mean = np.concatenate([p._mean for p in parts])
        out._m2 = np.concatenate([p._m2 for p in parts])
        return out

    @property
    def mean(self) -> np.ndarray:
        """Per-component mean (NaN where no samples)."""
        return np.where(self._count > 0, self._mean, np.nan)

    @property
    def variance(self) -> np.ndarray:
        """Per-component sample variance, ddof=1 (NaN below 2)."""
        return np.where(
            self._count > 1, self._m2 / np.maximum(self._count - 1, 1), np.nan
        )

    @property
    def std(self) -> np.ndarray:
        """Per-component sample standard deviation."""
        return np.sqrt(self.variance)


@dataclass(frozen=True)
class RecoveryState:
    """Snapshot of a recovery kernel's per-node state plus counters.

    The unit the shard layer reduces: a
    :class:`RecoveryPipeline` over node range ``[lo, hi)`` produces a
    ``RecoveryState`` whose arrays are exactly the ``[lo, hi)`` column
    slice of the state a full-fleet pipeline would hold — every
    detection, repair and quarantine decision reads only the node's own
    column.  :meth:`concat` therefore reassembles the fleet state bit
    for bit, and :func:`build_quality_report` renders either a serial
    or a merged state into the identical :class:`QualityReport`.
    """

    node_ids: np.ndarray
    quarantined: np.ndarray
    usable_per_node: np.ndarray
    moments: MaskedRunningMoments
    ticks_seen: int
    original_level: int
    samples_missing: int
    samples_stuck: int
    samples_spiked: int
    samples_held: int
    samples_interpolated: int
    samples_excluded: int

    @property
    def n_nodes(self) -> int:
        """Nodes covered by this state."""
        return int(self.node_ids.size)

    @staticmethod
    def concat(parts: list["RecoveryState"]) -> "RecoveryState":
        """Reassemble node-partitioned states in node order (exact).

        Per-node arrays concatenate; scalar fault counters add (each
        faulted cell is counted by exactly one shard); ``ticks_seen``
        and ``original_level`` must agree across shards because every
        shard replays the same tick grid.
        """
        if not parts:
            raise ValueError("concat needs at least one part")
        first = parts[0]
        for i, part in enumerate(parts):
            if part.ticks_seen != first.ticks_seen:
                raise ValueError(
                    f"part {i} saw {part.ticks_seen} ticks, part 0 saw "
                    f"{first.ticks_seen}; shards must cover the same ticks"
                )
            if part.original_level != first.original_level:
                raise ValueError("parts disagree on original_level")
        return RecoveryState(
            node_ids=np.concatenate([p.node_ids for p in parts]),
            quarantined=np.concatenate([p.quarantined for p in parts]),
            usable_per_node=np.concatenate(
                [p.usable_per_node for p in parts]
            ),
            moments=MaskedRunningMoments.concat([p.moments for p in parts]),
            ticks_seen=first.ticks_seen,
            original_level=first.original_level,
            samples_missing=sum(p.samples_missing for p in parts),
            samples_stuck=sum(p.samples_stuck for p in parts),
            samples_spiked=sum(p.samples_spiked for p in parts),
            samples_held=sum(p.samples_held for p in parts),
            samples_interpolated=sum(p.samples_interpolated for p in parts),
            samples_excluded=sum(p.samples_excluded for p in parts),
        )


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


def build_quality_report(
    state: RecoveryState,
    *,
    expected_ticks: int,
    batches_retried: int = 0,
    batches_abandoned: int = 0,
) -> QualityReport:
    """Render a recovery state into its quality-labelled statistics.

    The single rendering path for serial and sharded runs:
    :meth:`RecoveryPipeline.finalize` calls it on its own snapshot, and
    the shard reducer calls it on the :meth:`RecoveryState.concat` of
    the per-shard snapshots — so a sharded report is bit-identical to
    the serial one by construction, not by coincidence.

    ``expected_ticks`` is the planned horizon (what a perfect meter
    would have delivered); the gap between it and what arrived is
    attributed to truncation/abandonment (``samples_never_arrived``).
    """
    if expected_ticks < state.ticks_seen:
        raise ValueError(
            "expected_ticks cannot be below the ticks actually seen"
        )
    n = state.n_nodes
    kept = ~state.quarantined
    samples_expected = int(expected_ticks) * n
    samples_arrived = state.ticks_seen * n
    coverage = float(state.usable_per_node[kept].sum()) / max(
        samples_expected, 1
    )
    quarantined_ids = tuple(
        int(i) for i in state.node_ids[state.quarantined]
    )
    # Fleet statistics over surviving nodes.
    node_means = state.moments.mean
    node_stds = state.moments.std
    counts = state.moments.count
    used = kept & (counts >= 2)
    n_used = int(used.sum())
    if n_used >= 2:
        means = node_means[used]
        fleet_mean_w = float(means.mean())
        sigma_node_w = float(means.std(ddof=1))
        node_cv = sigma_node_w / fleet_mean_w
        sigma_tick_w = float(node_stds[used].mean())
    else:
        fleet_mean_w = float(node_means[used][0]) if n_used else 0.0
        sigma_node_w = 0.0
        node_cv = 0.0
        sigma_tick_w = 0.0
    return QualityReport(
        samples_expected=samples_expected,
        samples_arrived=samples_arrived,
        samples_missing=state.samples_missing,
        samples_never_arrived=samples_expected - samples_arrived,
        samples_stuck=state.samples_stuck,
        samples_spiked=state.samples_spiked,
        samples_held=state.samples_held,
        samples_interpolated=state.samples_interpolated,
        samples_excluded=state.samples_excluded,
        nodes_quarantined=quarantined_ids,
        batches_retried=batches_retried,
        batches_abandoned=batches_abandoned,
        effective_coverage=coverage,
        original_level=state.original_level,
        effective_level=breaker_level(
            state.original_level, coverage, bool(state.quarantined.any())
        ),
        fleet_mean_w=fleet_mean_w,
        node_cv=node_cv,
        sigma_node_w=sigma_node_w,
        sigma_tick_w=sigma_tick_w,
        n_nodes_used=n_used,
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

    def _push_stat(self, j: int, value: float) -> None:
        self._moments.push_value(j, value)

    def _repair_cell(self, j: int, nodes: _NodeState) -> bool:
        """Dispose of one unusable cell.

        Returns whether the node's last trusted reading stands in for
        the cell in the statistics (``hold``); the caller folds it into
        the tick's single vectorised moment push.
        """
        have_ref = bool(np.isfinite(nodes.last_good[j]))
        if nodes.quarantined[j] or not have_ref or (
            self.gap_policy == "exclude"
        ):
            self.samples_excluded += 1
            return False
        if self.gap_policy == "interpolate":
            # Defer: filled linearly when the gap closes (or held at
            # finalize for tail gaps).
            nodes.gap_len[j] += 1
            return False
        # hold
        self.samples_held += 1
        return True

    def _close_gap(self, j: int, nodes: _NodeState, new_value: float) -> None:
        """Linear-fill a closed interpolation gap into the statistics."""
        gap = int(nodes.gap_len[j])
        if gap == 0:
            return
        lo = float(nodes.last_good[j])
        for k in range(1, gap + 1):
            filled = lo + (new_value - lo) * k / (gap + 1)
            self._push_stat(j, filled)
        self.samples_interpolated += gap
        nodes.gap_len[j] = 0

    def observe(self, batch: SampleBatch) -> None:
        """Fold one (possibly faulty) batch into the pipeline."""
        if self._nodes is None:
            self._start(batch)
        elif not np.array_equal(batch.node_ids, self._node_ids):
            raise ValueError("batch node_ids changed mid-stream")
        watts = np.asarray(batch.watts, dtype=float)
        if self._is_clean(watts):
            self._observe_clean(watts)
            return
        for row in watts:
            self._observe_row(row)

    def _is_clean(self, watts: np.ndarray) -> bool:
        """Whether every cell of a non-empty batch is plainly usable.

        True when every reading is finite, none exactly repeats the
        node's previous reading, none is a :data:`SPIKE_RATIO` jump past
        the previous reading, no node is quarantined and no
        interpolation gap is open.  Each row's references are then the
        row before it (or the node's last reading), because every
        earlier row is usable too.  Any exact repeat falls back to the
        per-tick loop, whatever ``stuck_min_repeats`` is: below the
        threshold a repeat is usable but must still advance the node's
        repeat run, which only the loop tracks.
        """
        nodes = self._nodes
        if watts.shape[0] == 0 or nodes.quarantined.any():
            return False
        if self.gap_policy == "interpolate" and nodes.gap_len.any():
            return False
        if not np.isfinite(watts).all():
            return False
        first, rest, prev = watts[0], watts[1:], watts[:-1]
        if (first == nodes.last_raw).any() or (rest == prev).any():
            return False
        # NaN references (no reading yet) compare False, quietly.
        return not (
            (first > SPIKE_RATIO * nodes.last_good).any()
            or (rest > SPIKE_RATIO * prev).any()
        )

    def _observe_clean(self, watts: np.ndarray) -> None:
        """Fold a batch :meth:`_is_clean` accepted, all rows at once.

        Bit-identical to the per-tick loop: nothing is missing, stuck,
        spiked, repaired or quarantined, so every column takes the
        unmasked Welford update, which equals
        :meth:`MaskedRunningMoments.push_row` with an all-true mask.
        Only its mean recurrence is inherently sequential, so the loop
        runs just that, row by row, keeping every row's deltas and
        means; the ``m2`` increments ``delta · (x − mean)`` then come out
        of one vectorised product and fold in row order
        (:func:`~repro.stream.estimators.axis0_sum`).
        """
        n_ticks = watts.shape[0]
        moments = self._moments
        counts = (
            moments._count + np.arange(1, n_ticks + 1)[:, None]
        ).astype(float)
        means = np.empty((n_ticks + 1, watts.shape[1]))
        means[0] = moments._mean
        deltas = np.empty_like(watts)
        step = np.empty(watts.shape[1])
        sub, div, add = np.subtract, np.divide, np.add
        mean = means[0]
        for row, delta, count, nxt in zip(watts, deltas, counts, means[1:]):
            sub(row, mean, delta)
            div(delta, count, step)
            add(mean, step, nxt)
            mean = nxt
        increments = deltas * (watts - means[1:])
        moments._m2 = axis0_sum(
            np.concatenate((moments._m2[None, :], increments))
        )
        moments._mean = means[-1].copy()
        moments._count = moments._count + n_ticks
        nodes = self._nodes
        nodes.repeat_run[:] = 0
        nodes.missing_run[:] = 0
        self._usable_per_node += n_ticks
        nodes.last_good = watts[-1].copy()
        nodes.last_raw = watts[-1].copy()
        self.ticks_seen += n_ticks

    def _observe_row(self, row: np.ndarray) -> None:
        """Detect, repair and fold one tick (the general path)."""
        nodes = self._nodes
        finite = np.isfinite(row)
        missing = ~finite
        self.samples_missing += int(missing.sum())
        # Stuck: exact repeat of the previous finite reading.
        eq = finite & np.isfinite(nodes.last_raw) & (row == nodes.last_raw)
        nodes.repeat_run = np.where(eq, nodes.repeat_run + 1, 0)
        stuck = eq & (nodes.repeat_run >= self.stuck_min_repeats)
        self.samples_stuck += int(stuck.sum())
        # Spike: a jump past SPIKE_RATIO x the last trusted reading.
        ref = nodes.last_good
        with np.errstate(invalid="ignore"):
            spiked = (
                finite
                & ~stuck
                & np.isfinite(ref)
                & (row > SPIKE_RATIO * ref)
            )
        self.samples_spiked += int(spiked.sum())
        usable = finite & ~stuck & ~spiked
        # Quarantine on sustained outage (sticky).
        nodes.missing_run = np.where(missing, nodes.missing_run + 1, 0)
        nodes.quarantined |= nodes.missing_run >= self.quarantine_after
        # Account + repair.  Columns are independent in the Welford
        # update, so the tick's scalar pushes fold into one masked
        # row push — bit-identical to pushing column by column, but
        # O(n) per tick instead of O(n^2).
        active = usable & ~nodes.quarantined
        if self.gap_policy == "interpolate":
            for j in np.flatnonzero(active & (nodes.gap_len > 0)):
                self._close_gap(int(j), nodes, float(row[j]))
        push_vals = np.where(active, row, 0.0)
        push_mask = active.copy()
        for j in np.flatnonzero(~usable):
            j = int(j)
            if self._repair_cell(j, nodes):
                push_vals[j] = nodes.last_good[j]
                push_mask[j] = True
        self._moments.push_row(push_vals, push_mask)
        self._usable_per_node += active
        nodes.last_good = np.where(usable, row, nodes.last_good)
        nodes.last_raw = np.where(finite, row, nodes.last_raw)
        self.ticks_seen += 1

    # ------------------------------------------------------------------
    def _flush_tail_gaps(self) -> None:
        """Hold-fill interpolation gaps still open at end of stream."""
        if self._nodes is None or self.gap_policy != "interpolate":
            return
        nodes = self._nodes
        for j in range(nodes.gap_len.size):
            gap = int(nodes.gap_len[j])
            if gap == 0:
                continue
            for _ in range(gap):
                self._push_stat(j, float(nodes.last_good[j]))
            self.samples_held += gap
            nodes.gap_len[j] = 0

    def state_snapshot(self) -> RecoveryState:
        """Snapshot the per-node state + counters for shard reduction.

        Flushes still-open interpolation gaps first (tail gaps hold), so
        the snapshot is the same state :meth:`finalize` would render.
        The arrays are copies — the pipeline can keep streaming.
        """
        if self._nodes is None:
            raise ValueError("no batches observed")
        self._flush_tail_gaps()
        moments = MaskedRunningMoments(self._node_ids.size)
        moments._count = self._moments._count.copy()
        moments._mean = self._moments._mean.copy()
        moments._m2 = self._moments._m2.copy()
        return RecoveryState(
            node_ids=self._node_ids.copy(),
            quarantined=self._nodes.quarantined.copy(),
            usable_per_node=self._usable_per_node.copy(),
            moments=moments,
            ticks_seen=self.ticks_seen,
            original_level=self.original_level,
            samples_missing=self.samples_missing,
            samples_stuck=self.samples_stuck,
            samples_spiked=self.samples_spiked,
            samples_held=self.samples_held,
            samples_interpolated=self.samples_interpolated,
            samples_excluded=self.samples_excluded,
        )

    def finalize(
        self,
        *,
        expected_ticks: int,
        batches_retried: int = 0,
        batches_abandoned: int = 0,
    ) -> QualityReport:
        """Close the stream and emit the quality-labelled statistics.

        A thin wrapper over :func:`build_quality_report` on this
        pipeline's own :meth:`state_snapshot` — the same rendering path
        the shard reducer uses on merged state.
        """
        return build_quality_report(
            self.state_snapshot(),
            expected_ticks=expected_ticks,
            batches_retried=batches_retried,
            batches_abandoned=batches_abandoned,
        )

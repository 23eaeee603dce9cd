"""Live EE HPC WG rule compliance and per-node anomaly flags.

The batch pipeline judges a measurement after the fact; the monitor
answers the same questions per batch, while measuring:

* **sampling-interval adequacy** — Table 1 aspect 1a requires at least
  one reading per second at Levels 1/2; the monitor tracks the worst
  observed tick spacing.
* **window tracking** — the span covered so far, its fraction of the
  core phase (the post-2015 full-core rule wants 1.0), and whether the
  covered span would already constitute a *legal* pre-2015 Level 1
  window (:mod:`repro.core.windows` rules evaluated live).
* **per-node anomalies** — nodes whose running mean sits far from the
  fleet's node-to-node distribution (z-score), and nodes with transient
  excursions — the Fig. 4 L-CSC failure mode, where a fan-speed policy
  change moved one node's power by >100 W and skewed the fleet.
  Excursions are judged on the node's *power ratio to the
  contemporaneous fleet mean* — a scale-free statistic that is constant
  under machine-wide ramps (HPL tail-off, DVFS steps) but jumps when
  one node privately steps, so only genuinely private deviations flag.

All state is streaming: per-node moments of power and of the power
ratio (shifted running sums, vectorised across the fleet and the same
bits for any batching), the fleet power of the last
:data:`ROLLING_HORIZON_S` simulated seconds (at most
:data:`ROLLING_CAPACITY` ticks), scalar extremes, and the fleet power
quantile sketch and node-vs-fleet covariance every route reports.

:meth:`ComplianceMonitor.observe` is the one way a batch enters
per-node state: one check, :meth:`ComplianceMonitor._admit`, then a
copy onto a pending stack that every read folds in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.windows import (
    LEVEL1_MIN_SECONDS,
    MIDDLE_80,
    MeasurementWindow,
    is_legal_level1_window,
)
from repro.stream.estimators import (
    QuantileSketch,
    RunningCovariance,
    RunningMoments,
)
from repro.stream.ingest import SampleBatch

__all__ = ["NodeFlags", "MonitorReport", "ComplianceMonitor"]

#: |z| threshold on a node's running mean vs the fleet's node-to-node
#: distribution.  By Samuelson's bound no node of an ``n``-node fleet
#: can sit further than ``(n - 1) / sqrt(n)`` sample deviations from the
#: mean, so a lone hot node can flag only in fleets of 18 or more.
OUTLIER_Z = 4.0
#: Threshold, in units of a node's running σ of its power ratio to the
#: fleet, for a transient excursion (Fig. 4-style step changes).
EXCURSION_Z = 6.0
#: Floor on that σ (ratio units): a private step must move a node by at
#: least ``EXCURSION_Z × 0.5%`` of fleet power to flag, so near-identical
#: nodes do not flag on harmless shape noise.
EXCURSION_RATIO_FLOOR = 0.005
#: Warm-up sample count before anomaly flags are emitted — early means
#: are too noisy to accuse nodes with.
MIN_SAMPLES_FOR_FLAGS = 30
#: Smallest fleet mean, in watts, a power ratio is taken against.  A
#: tick below it carries no physical draw to compare with, so, like a
#: tick whose mean is not positive, every node's ratio there is 1; a
#: ratio against a vanishing mean would overflow the ratio moments.
FLEET_W_FLOOR = 1e-3
#: Length of the rolling fleet-power window reported live.
ROLLING_HORIZON_S = 60.0
#: Most ticks the rolling window holds; past it, the window is the last
#: this many ticks.
ROLLING_CAPACITY = 4096
#: Pending readings at which :meth:`ComplianceMonitor.observe` folds
#: what it holds without waiting for a read; it also bounds the rows a
#: fold keeps.  A stack of about this many folds fastest per reading: a
#: smaller one pays more numpy calls per reading, and on a 2-vCPU
#: x86-64 host a stack past ~24k readings page-faults its temporaries
#: on every fold.
PENDING_SAMPLES = 20_000


@dataclass(frozen=True)
class NodeFlags:
    """Anomaly state of one node at report time."""

    node_id: int
    z_score: float
    flagged_outlier: bool
    excursion_count: int


@dataclass(frozen=True)
class MonitorReport:
    """Snapshot of the monitor's verdicts.

    ``window_fraction_covered`` is measured-span ∩ core-phase over the
    core duration; ``full_core_compliant`` is the post-2015 rule,
    ``legal_level1_window`` the pre-2015 one evaluated on the span
    covered so far.

    ``insufficient_data`` is the degenerate-window flag: when no
    samples have been observed (an empty stream, or total dropout)
    there is nothing to judge, so every compliance field is pinned
    conservative (not-compliant) and this flag tells the reader the
    report is a *non-verdict*, not a failure.

    ``notes`` carries provenance caveats that are not verdicts.
    """

    t_now_s: float
    samples_seen: int
    nodes_seen: int
    interval_ok: bool
    worst_interval_s: float
    required_interval_s: float
    window_fraction_covered: float
    full_core_compliant: bool
    legal_level1_window: bool
    rolling_mean_w: float
    rolling_span_s: float
    outlier_nodes: tuple[NodeFlags, ...] = field(default_factory=tuple)
    excursion_nodes: tuple[NodeFlags, ...] = field(default_factory=tuple)
    insufficient_data: bool = False
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "t_now_s": self.t_now_s,
            "insufficient_data": self.insufficient_data,
            "notes": list(self.notes),
            "samples_seen": self.samples_seen,
            "nodes_seen": self.nodes_seen,
            "interval_ok": self.interval_ok,
            "worst_interval_s": self.worst_interval_s,
            "required_interval_s": self.required_interval_s,
            "window_fraction_covered": self.window_fraction_covered,
            "full_core_compliant": self.full_core_compliant,
            "legal_level1_window": self.legal_level1_window,
            "rolling_mean_w": self.rolling_mean_w,
            "rolling_span_s": self.rolling_span_s,
            "outlier_nodes": [
                {"node_id": f.node_id, "z_score": f.z_score,
                 "excursion_count": f.excursion_count}
                for f in self.outlier_nodes
            ],
            "excursion_nodes": [
                {"node_id": f.node_id, "z_score": f.z_score,
                 "excursion_count": f.excursion_count}
                for f in self.excursion_nodes
            ],
        }

    def lines(self) -> list[str]:
        """Human-readable verdict lines."""
        if self.insufficient_data:
            return [
                "insufficient data: no samples observed — "
                "no compliance verdict"
            ]
        ok = "ok" if self.interval_ok else "VIOLATION"
        out = [
            f"sampling interval: worst {self.worst_interval_s:.2f} s vs "
            f"required {self.required_interval_s:.2f} s [{ok}]",
            f"core-phase coverage: {self.window_fraction_covered:.1%} "
            f"({'full-core compliant' if self.full_core_compliant else 'partial'})",
            f"pre-2015 L1 window legal now: "
            f"{'yes' if self.legal_level1_window else 'no'}",
            f"rolling fleet mean ({self.rolling_span_s:.0f} s): "
            f"{self.rolling_mean_w:.1f} W/node",
        ]
        if self.outlier_nodes:
            worst = max(self.outlier_nodes, key=lambda f: abs(f.z_score))
            out.append(
                f"outlier nodes: {len(self.outlier_nodes)} "
                f"(worst node {worst.node_id} at z={worst.z_score:+.1f})"
            )
        if self.excursion_nodes:
            out.append(
                "excursion nodes: "
                + ", ".join(str(f.node_id) for f in self.excursion_nodes)
            )
        out.extend(f"note: {note}" for note in self.notes)
        return out


def _excursions(
    ratios: np.ndarray, starts: np.ndarray, means: np.ndarray, sds: np.ndarray
) -> np.ndarray | int:
    """Per node, the ratios more than :data:`EXCURSION_Z` spreads from
    the mean of their batch; batch ``k`` starts at row ``starts[k]`` and
    is judged against ``means[k]`` and ``sds[k]``.
    """
    # Rounding is monotonic, so no ratio deviates further than the
    # block's largest or smallest one does: when neither deviates past
    # the threshold from any batch's mean, no ratio flags.
    far = np.maximum(
        np.abs(ratios.max(axis=0) - means), np.abs(ratios.min(axis=0) - means)
    )
    if not (far / sds > EXCURSION_Z).any():
        return 0
    batch = np.repeat(
        np.arange(starts.size), np.diff(np.append(starts, ratios.shape[0]))
    )
    dev = np.abs(ratios - means[batch]) / sds[batch]
    return (dev > EXCURSION_Z).sum(axis=0)


class _Pending:
    """Copies of the ticks, readings and fleet series of the batches a
    monitor has taken but not folded, stacked in order."""

    __slots__ = ("watts", "fleet_w", "ticks", "starts", "rows", "lowest")

    def __init__(self, n_rows: int, n_nodes: int, after: float) -> None:
        self.watts = np.empty((n_rows, n_nodes))
        self.fleet_w = np.empty(n_rows)
        # ticks[0] is the tick the stack follows, ticks[1 + i] row i's.
        self.ticks = np.empty(n_rows + 1)
        self.ticks[0] = after
        self.starts: list[int] = []  # the row each batch starts at
        self.rows = 0
        self.lowest = math.inf  # the smallest reading

    def add(
        self, batch: SampleBatch, fleet_w: np.ndarray, lowest: float
    ) -> None:
        a, b = self.rows, self.rows + fleet_w.size
        self.watts[a:b] = batch.watts
        self.fleet_w[a:b] = fleet_w
        self.ticks[a + 1:b + 1] = batch.times
        self.starts.append(a)
        self.rows = b
        self.lowest = min(self.lowest, lowest)


class ComplianceMonitor:
    """Streaming methodology compliance plus fleet anomaly detection:
    the per-node fold every route shares.

    Parameters
    ----------
    core_window_s:
        Absolute ``(start, end)`` bounds of the core phase the stream
        measures against.
    required_interval_s:
        Maximum legal sample spacing (1 s for Levels 1/2).
    quantiles:
        Fleet power quantiles :meth:`quantiles_w` reads from the sketch.

    The anomaly thresholds are the module constants
    :data:`OUTLIER_Z`, :data:`EXCURSION_Z`,
    :data:`EXCURSION_RATIO_FLOOR` and :data:`MIN_SAMPLES_FOR_FLAGS`.

    :meth:`observe` judges each batch against ``fleet_w``, the per-tick
    fleet mean series: the batch's own for a whole-fleet stream, or
    the global reference slice for a shard, so a shard's monitor is
    the exact column slice of the full-fleet one (:meth:`merge_shards`).
    ``fleet_series`` holds that series' moments, the ``y`` side of the
    node-vs-fleet ``covar`` whose ``x`` side is ``node_moments``.

    The fold runs on read.  :meth:`observe` checks a batch, takes what
    the next check reads, and copies the batch onto a pending stack.
    Reading :attr:`node_moments`, :attr:`covar`, :attr:`fleet_series`
    or :attr:`sketch` — and so :meth:`report`, :meth:`quantiles_w`,
    :meth:`correlation`, :meth:`merge_shards` and a pickle — first
    folds the whole stack in one pass (:meth:`flush`).  So does a batch
    that brings the stack to :data:`PENDING_SAMPLES` readings; a batch
    that reaches that count alone is folded at once, without a copy.
    Each batch is still judged for excursions against the ratio moments
    before it, so the state has the bits of a fold batch by batch.
    """

    def __init__(
        self,
        core_window_s: tuple[float, float],
        *,
        required_interval_s: float = 1.0,
        quantiles: tuple[float, ...] = (0.5, 0.95),
    ) -> None:
        c0, c1 = float(core_window_s[0]), float(core_window_s[1])
        if not (math.isfinite(c0) and math.isfinite(c1) and c1 > c0):
            raise ValueError(
                "core window must have finite bounds and positive duration"
            )
        required_s = float(required_interval_s)
        if not (required_s > 0 and math.isfinite(required_s)):
            raise ValueError("required_interval_s must be positive and finite")
        for q in quantiles:
            if not (0.0 < q < 1.0):
                raise ValueError(f"quantiles must be in (0, 1), got {q}")
        self._core = (c0, c1)
        self._required_interval_s = required_s
        self.quantiles = tuple(quantiles)
        self._node_moments = RunningMoments()
        self._fleet_series = RunningMoments()
        self._covar = RunningCovariance()
        self._sketch = QuantileSketch()
        self._pending: _Pending | None = None
        self._ratio_moments = RunningMoments()
        # The rolling window: tick times and fleet means, oldest first.
        self._rolling_t = np.empty(0)
        self._rolling_w = np.empty(0)
        self._node_ids: np.ndarray | None = None
        # The node-id array of the last folded batch, so a stream that
        # hands over the same array every batch skips the comparison.
        self._ids_seen: np.ndarray | None = None
        self._excursions: np.ndarray | None = None
        self._span: tuple[float, float] | None = None
        # The latest tick folded, which the rolling window is cut at.
        self._newest_s = -math.inf
        self._worst_interval_s = 0.0
        self._samples = 0

    # ------------------------------------------------------------------
    @property
    def samples_seen(self) -> int:
        """Scalar samples observed so far."""
        return self._samples

    @property
    def node_moments(self) -> RunningMoments:
        """Per-node power moments, with every observed batch folded.

        Read it anew after :meth:`observe`: a reference kept from
        before does not see the pending readings.
        """
        self.flush()
        return self._node_moments

    @property
    def fleet_series(self) -> RunningMoments:
        """Moments of the fleet series, with every batch folded."""
        self.flush()
        return self._fleet_series

    @property
    def covar(self) -> RunningCovariance:
        """Node-vs-fleet cross sums, with every batch folded."""
        self.flush()
        return self._covar

    @property
    def sketch(self) -> QuantileSketch:
        """The fleet power sketch, with every batch folded."""
        self.flush()
        return self._sketch

    def __getstate__(self):
        """A pickle is a read: it folds the pending rows first, so a
        pickled monitor (a shard worker's result) carries none."""
        self.flush()
        return self.__dict__

    def observe(
        self, batch: SampleBatch, fleet_w: np.ndarray | None = None
    ) -> None:
        """Take one batch, judged against its per-tick fleet series.

        ``fleet_w`` is the per-tick fleet mean power to judge ratios
        (and feed the rolling window and covariance) against; the
        default is the batch's own across-node mean.  A shard-local
        monitor — one observing only a node slice of the fleet — must
        pass the *global* reference series here, so its state is
        exactly the column slice of what a full-fleet monitor would
        hold (the :meth:`merge_shards` contract).

        The batch is checked once, by :meth:`_admit`, and a refused
        batch changes nothing.  No array of the caller's is kept, so
        the caller may overwrite them once this returns.  Of the
        batch's tick state, this takes the node set and span end the
        next check reads, and the sample count; the worst interval,
        rolling window and readings wait on the stack for the fold.
        """
        fleet_w, lo = self._admit(batch, fleet_w)
        n_ticks, n_nodes = batch.n_ticks, batch.n_nodes
        if n_ticks == 0:
            return
        after = self._advance(batch)
        stack = self._pending
        if stack is not None and stack.rows + n_ticks > stack.fleet_w.size:
            self.flush()
            stack = None
        if stack is None:
            # The rows that hold PENDING_SAMPLES readings, or more.
            n_rows = -(-PENDING_SAMPLES // max(n_nodes, 1))
            if n_ticks >= n_rows:  # a full stack alone: fold it uncopied
                self._fold(
                    batch.watts, fleet_w, np.zeros(1, dtype=np.int64),
                    np.concatenate(([after], batch.times)), lo,
                )
                return
            stack = self._pending = _Pending(n_rows, n_nodes, after)
        stack.add(batch, fleet_w, lo)
        if stack.rows == stack.fleet_w.size:
            self.flush()

    def flush(self) -> None:
        """Fold every pending batch in one stacked pass."""
        stack = self._pending
        if stack is None:
            return
        self._pending = None
        n = stack.rows
        self._fold(
            stack.watts[:n], stack.fleet_w[:n], np.array(stack.starts),
            stack.ticks[:n + 1], stack.lowest,
        )

    def _admit(
        self, batch: SampleBatch, fleet_w: np.ndarray | None
    ) -> tuple[np.ndarray, float]:
        """Refuse a batch the fold cannot take; return ``fleet_w`` as a
        float array and the smallest reading (0 for none).

        ``fleet_w`` of ``None`` is the batch's own tick means.
        Refused: a non-finite or negative reading; a ``fleet_w`` that
        is not one finite mean per tick; and, for a batch with ticks, a
        node set other than the first batch's, a timestamp that is not
        finite or is more than 1e-12 s before the one it follows (within
        the batch or across batches), or a reading whose ratio to a ``fleet_w`` of at least
        :data:`FLEET_W_FLOOR` overflows when squared.  Nothing changes
        here.  A batch that carries the very node-id array of the last
        batch taken is the same node set without a comparison, so a
        caller must not rewrite that array in place with other ids.
        """
        w = batch.watts
        lo = hi = 0.0
        if w.size:  # the one min/max pair of SampleBatch.readings_valid
            lo, hi = float(w.min()), float(w.max())
            if not (lo >= 0.0 and math.isfinite(hi)):
                raise ValueError("readings must be finite and non-negative")
        fleet_w = np.asarray(
            batch.fleet_means() if fleet_w is None else fleet_w,
            dtype=np.float64,
        )
        if fleet_w.shape != (batch.n_ticks,):
            raise ValueError(
                "fleet_w must carry one finite reference mean per tick"
            )
        if batch.n_ticks == 0:
            return fleet_w, lo
        # A NaN anywhere makes the minimum NaN.
        f_lo, f_hi = float(fleet_w.min()), float(fleet_w.max())
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
            raise ValueError(
                "fleet_w must carry one finite reference mean per tick"
            )
        if (
            self._node_ids is not None
            and batch.node_ids is not self._ids_seen
            and not np.array_equal(self._node_ids, batch.node_ids)
        ):
            raise ValueError("batch node set changed mid-stream")
        t = batch.times
        # NaN fails every ``>=`` and an infinite tick between finite
        # ends breaks the order, so no non-finite tick gets through.
        if not (
            math.isfinite(t[0])
            and math.isfinite(t[-1])
            and (self._span is None or t[0] >= self._span[1] - 1e-12)
            and (t[1:] >= t[:-1] - 1e-12).all()
        ):
            raise ValueError("timestamps must be finite and non-decreasing")
        if w.size and f_hi >= FLEET_W_FLOOR:
            # A bound on every squared reading / fleet_w first; the
            # row-wise check runs only when that bound overflows.
            if f_lo < FLEET_W_FLOOR:
                f_lo = float(fleet_w[fleet_w >= FLEET_W_FLOOR].min())
            bound = hi / f_lo
            if not math.isfinite(bound * bound):
                judged = fleet_w >= FLEET_W_FLOOR
                with np.errstate(over="ignore"):
                    rows = w[judged].max(axis=1) / fleet_w[judged]
                    rows *= rows
                if not np.isfinite(rows).all():
                    raise ValueError(
                        "readings overflow their ratio to fleet_w"
                    )
        return fleet_w, lo

    def _advance(self, batch: SampleBatch) -> float:
        """Take from a batch with ticks that :meth:`_admit` accepted
        the node set and span end, which :meth:`_admit` checks the next
        batch against, and its sample count.  Return the tick the batch
        follows: the span end before it, or its own first tick if it
        opens the stream.  Its worst interval and rolling window wait
        for :meth:`_fold`, with its readings.
        """
        if self._node_ids is None:
            self._node_ids = batch.node_ids.copy()
            self._excursions = np.zeros(batch.n_nodes, dtype=np.int64)
        self._ids_seen = batch.node_ids
        times = batch.times
        if self._span is None:
            after = float(times[0])
            self._span = (after, float(times[-1]))
        else:
            after = self._span[1]
            self._span = (self._span[0], float(times[-1]))
        self._samples += batch.n_samples
        return after

    def _fold(
        self,
        watts: np.ndarray,
        fleet_w: np.ndarray,
        starts: np.ndarray,
        ticks: np.ndarray,
        lowest: float,
    ) -> None:
        """Fold the ticks and readings of one or more batches, stacked
        in order, that :meth:`_advance` has taken.

        ``starts`` holds the row each batch starts at (the first 0).
        ``ticks[1:]`` are the stacked ticks and ``ticks[0]`` the one
        they follow (what :meth:`_advance` returned for the first
        batch).  ``lowest`` is the smallest reading.
        """
        moments = self._node_moments
        # The covariance's x shift is the node moments' shift, so the
        # node deviations serve both, read before the node moments'
        # fold seeds them in place.
        d = moments._deviations(watts)
        self._covar._fold(d, fleet_w, moments._shift)
        self._fleet_series._fold(
            fleet_w, self._fleet_series._deviations(fleet_w)
        )
        if watts.size:
            self._sketch._fold(watts, lowest)

        # The worst interval is the largest step between ticks, the gap
        # from the tick the stack follows included.  The rolling window
        # keeps the newest ticks within the horizon of the latest tick
        # folded, at most ROLLING_CAPACITY of them: a cut at the
        # stack's end has the bits of a cut after every tick.
        self._worst_interval_s = max(
            self._worst_interval_s, float((ticks[1:] - ticks[:-1]).max())
        )
        times, cap = ticks[1:], ROLLING_CAPACITY
        self._newest_s = max(self._newest_s, float(times.max()))
        rolling_t = np.concatenate((self._rolling_t, times[-cap:]))[-cap:]
        rolling_w = np.concatenate((self._rolling_w, fleet_w[-cap:]))[-cap:]
        cutoff = self._newest_s - ROLLING_HORIZON_S - 1e-12
        cut = int(np.argmax(rolling_t >= cutoff))  # the first tick inside
        self._rolling_t, self._rolling_w = rolling_t[cut:], rolling_w[cut:]

        # Excursions are judged on each node's power *ratio* to the
        # fleet at the same tick (scale-free, so common-mode ramps
        # cancel), against the node's ratio history *before* its batch
        # folds in — a step change must not mask itself.  The ratio
        # moments before each batch are the running sums cut at its
        # first row, the bits a fold of one batch at a time would hold.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            ratios = watts / fleet_w[:, None]
        ratios[~(fleet_w >= FLEET_W_FLOOR)] = 1.0
        counts = self._ratio_moments.count + starts
        first = int(np.searchsorted(counts, MIN_SAMPLES_FOR_FLAGS))
        means, m2 = self._ratio_moments._fold_before(ratios, starts, first)
        if first < counts.size:
            sds = np.maximum(
                np.sqrt(m2 / (counts[first:, None] - 1)),
                EXCURSION_RATIO_FLOOR,
            )
            self._excursions += _excursions(
                ratios[starts[first]:], starts[first:] - starts[first],
                means, sds,
            )
        moments._fold(watts, d)

    def quantiles_w(self) -> dict[float, float]:
        """Current estimate of every tracked quantile."""
        return {q: self.sketch.quantile(q) for q in self.quantiles}

    def correlation(self) -> np.ndarray:
        """Each node's Pearson correlation with the fleet series."""
        return self.covar.correlation(self._node_moments, self._fleet_series)

    def mean_correlation(self) -> float:
        """The node-vs-fleet correlation averaged over the nodes.

        A degenerate stream (a single tick, or constant readings) has
        no correlation, not a zero one: it reads NaN.
        """
        try:
            correlation = self.correlation()
        except ValueError:
            return float("nan")
        return float(np.mean(correlation))

    @classmethod
    def merge_shards(
        cls, monitors: list["ComplianceMonitor"]
    ) -> "ComplianceMonitor":
        """Reassemble node-partitioned shard monitors (exact).

        Each input observed a disjoint, contiguous node slice of the
        same tick stream, with :meth:`observe` given the global fleet
        reference.  All per-node state (moments, ratio moments,
        covariance, excursion counts) is then column-independent, so
        the fleet monitor is the node-ordered concatenation of the
        shard arrays — bit-identical to a single monitor over the whole
        fleet, for any shard count.  The shards must agree on the core
        window, the tick span and the quantiles, or the merge is
        refused.  The worst interval is the shards' largest and the
        quantile sketches add their counts.  The rolling window and the
        fleet series moments are functions of the ticks and the global
        reference alone, so the first shard's are adopted without a
        check.
        """
        if not monitors:
            raise ValueError("merge_shards needs at least one monitor")
        first = monitors[0]
        for i, m in enumerate(monitors):
            m.flush()
            if m._node_ids is None:
                raise ValueError(f"shard monitor {i} saw no samples")
            if m._core != first._core:
                raise ValueError("shard monitors disagree on core window")
            if m._span != first._span:
                raise ValueError(
                    f"shard monitor {i} covered a different tick span; "
                    "shards must replay the same stream"
                )
            if m.quantiles != first.quantiles:
                raise ValueError(f"shard {i} tracked different quantiles")
        out = cls(
            first._core,
            required_interval_s=first._required_interval_s,
            quantiles=first.quantiles,
        )
        out._node_moments = RunningMoments.concat(
            [m._node_moments for m in monitors]
        )
        out._fleet_series = first._fleet_series
        out._covar = RunningCovariance.concat([m._covar for m in monitors])
        for m in monitors:
            out._sketch.merge(m._sketch)
        out._ratio_moments = RunningMoments.concat(
            [m._ratio_moments for m in monitors]
        )
        out._node_ids = np.concatenate([m._node_ids for m in monitors])
        out._excursions = np.concatenate([m._excursions for m in monitors])
        out._span, out._newest_s = first._span, first._newest_s
        out._worst_interval_s = max(m._worst_interval_s for m in monitors)
        out._samples = sum(m._samples for m in monitors)
        out._rolling_t, out._rolling_w = first._rolling_t, first._rolling_w
        return out

    # ------------------------------------------------------------------
    def _coverage(self) -> float:
        if self._span is None:
            return 0.0
        c0, c1 = self._core
        lo = max(self._span[0], c0)
        hi = min(self._span[1], c1)
        return max(hi - lo, 0.0) / (c1 - c0)

    def _legal_level1_now(self) -> bool:
        if self._span is None:
            return False
        c0, c1 = self._core
        core_s = c1 - c0
        f0 = (self._span[0] - c0) / core_s
        f1 = (self._span[1] - c0) / core_s
        lo, hi = MIDDLE_80
        f0c, f1c = max(f0, lo), min(f1, hi)
        if f1c - f0c < LEVEL1_MIN_SECONDS / core_s:
            return False
        return is_legal_level1_window(MeasurementWindow(f0c, f1c), core_s)

    def _flagged_nodes(
        self,
    ) -> tuple[tuple[NodeFlags, ...], tuple[NodeFlags, ...]]:
        """``(outlier_nodes, excursion_nodes)`` in node order, post
        warm-up (else empty); a node flagged both ways is one object in
        both."""
        if (
            self._node_ids is None
            or self._node_moments.count < MIN_SAMPLES_FOR_FLAGS
        ):
            return (), ()
        means = np.asarray(self._node_moments.mean)
        fleet_mu = float(means.mean())
        fleet_sd = float(means.std(ddof=1)) if means.size > 1 else 0.0
        if fleet_sd > 0:
            z = (means - fleet_mu) / fleet_sd
        else:
            z = np.zeros_like(means)
        outlier = np.abs(z) > OUTLIER_Z
        idx = np.flatnonzero(outlier | (self._excursions > 0))
        flags = [
            NodeFlags(
                node_id=nid,
                z_score=zi,
                flagged_outlier=out,
                excursion_count=exc,
            )
            for nid, zi, out, exc in zip(
                self._node_ids[idx].tolist(),
                z[idx].tolist(),
                outlier[idx].tolist(),
                self._excursions[idx].tolist(),
            )
        ]
        return (
            tuple(f for f in flags if f.flagged_outlier),
            tuple(f for f in flags if f.excursion_count > 0),
        )

    def report(self) -> MonitorReport:
        """Render the current verdicts.

        Its cost in Python objects follows the flagged nodes, not the
        fleet: only outlier and excursion nodes get a :class:`NodeFlags`.

        With zero observed samples there is no basis for a verdict:
        the report comes back with ``insufficient_data=True`` and every
        compliance field conservative instead of vacuously passing
        (an all-dropout window must not read as "interval ok").
        Pending batches are folded first.
        """
        self.flush()
        if self._samples == 0:
            return MonitorReport(
                t_now_s=0.0,
                samples_seen=0,
                nodes_seen=0,
                interval_ok=False,
                worst_interval_s=float("inf"),
                required_interval_s=self._required_interval_s,
                window_fraction_covered=0.0,
                full_core_compliant=False,
                legal_level1_window=False,
                rolling_mean_w=0.0,
                rolling_span_s=0.0,
                insufficient_data=True,
            )
        outliers, excursions = self._flagged_nodes()
        coverage = self._coverage()
        rolling_t, rolling_w = self._rolling_t, self._rolling_w
        worst = (
            self._worst_interval_s
            if self._worst_interval_s > 0
            else self._required_interval_s
        )
        return MonitorReport(
            t_now_s=self._span[1],
            samples_seen=self._samples,
            nodes_seen=(0 if self._node_ids is None else self._node_ids.size),
            interval_ok=bool(worst <= self._required_interval_s + 1e-9),
            worst_interval_s=float(worst),
            required_interval_s=self._required_interval_s,
            window_fraction_covered=float(coverage),
            full_core_compliant=bool(coverage >= 1.0 - 1e-9),
            legal_level1_window=bool(self._legal_level1_now()),
            rolling_mean_w=float(rolling_w.mean()) if rolling_w.size else 0.0,
            rolling_span_s=(
                float(rolling_t[-1] - rolling_t[0]) if rolling_t.size else 0.0
            ),
            outlier_nodes=outliers,
            excursion_nodes=excursions,
        )

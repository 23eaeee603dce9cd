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
:data:`ROLLING_CAPACITY` ticks), and scalar extremes.

Every batch passes one check, :meth:`ComplianceMonitor._admit`, before
it folds, whether it comes through :meth:`ComplianceMonitor.observe`
or :meth:`repro.stream.session.FleetFold.push`.
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
from repro.stream.estimators import RunningMoments
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
#: Length of the rolling fleet-power window reported live.
ROLLING_HORIZON_S = 60.0
#: Most ticks the rolling window holds; past it, the window is the last
#: this many ticks.
ROLLING_CAPACITY = 4096


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


class ComplianceMonitor:
    """Streaming methodology compliance plus fleet anomaly detection.

    Parameters
    ----------
    core_window_s:
        Absolute ``(start, end)`` bounds of the core phase the stream
        measures against.
    required_interval_s:
        Maximum legal sample spacing (1 s for Levels 1/2).

    The anomaly thresholds are the module constants
    :data:`OUTLIER_Z`, :data:`EXCURSION_Z`,
    :data:`EXCURSION_RATIO_FLOOR` and :data:`MIN_SAMPLES_FOR_FLAGS`.
    """

    def __init__(
        self,
        core_window_s: tuple[float, float],
        *,
        required_interval_s: float = 1.0,
    ) -> None:
        c0, c1 = float(core_window_s[0]), float(core_window_s[1])
        if not (math.isfinite(c0) and math.isfinite(c1) and c1 > c0):
            raise ValueError(
                "core window must have finite bounds and positive duration"
            )
        required_s = float(required_interval_s)
        if not (required_s > 0 and math.isfinite(required_s)):
            raise ValueError("required_interval_s must be positive and finite")
        self._core = (c0, c1)
        self._required_interval_s = required_s
        self.node_moments = RunningMoments()
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
        self._worst_interval_s = 0.0
        self._samples = 0

    # ------------------------------------------------------------------
    @property
    def samples_seen(self) -> int:
        """Scalar samples observed so far."""
        return self._samples

    def observe(
        self, batch: SampleBatch, fleet_w: np.ndarray | None = None
    ) -> None:
        """Fold one batch into the monitor's state.

        ``fleet_w`` optionally supplies the per-tick fleet mean power
        to judge ratios (and feed the rolling window) against; the
        default is the batch's own across-node mean.  A shard-local
        monitor — one observing only a node slice of the fleet — must
        pass the *global* reference series here, so its excursion and
        rolling state is exactly the column slice of what a full-fleet
        monitor would hold (the :meth:`merge_shards` contract).

        The batch is checked by :meth:`_admit`, the one check
        :class:`~repro.stream.session.FleetFold` runs too, and a
        refused batch changes nothing.
        """
        fleet_w, _ = self._admit(batch, fleet_w)
        if batch.n_ticks:
            d = self.node_moments._deviations(batch.watts)
            self._fold(batch, fleet_w, d)

    def _admit(
        self, batch: SampleBatch, fleet_w: np.ndarray | None
    ) -> tuple[np.ndarray, float]:
        """Refuse a batch the fold cannot take; return ``fleet_w`` as a
        float array and the smallest reading (0 for none).

        ``fleet_w`` of ``None`` is the batch's own tick means.
        Refused: a non-finite or negative reading; a ``fleet_w`` that
        is not one finite mean per tick; and, for a batch with ticks, a
        node set other than the first batch's, a timestamp more than
        1e-12 s before the one it follows (within the batch or across
        batches), or a reading whose ratio to a positive ``fleet_w``
        overflows.  Nothing changes here.  A batch that carries the
        very node-id array of the last folded batch is the same node
        set without a comparison, so a caller must not rewrite that
        array in place with other ids.
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
        if fleet_w.shape != (batch.n_ticks,) or not np.isfinite(fleet_w).all():
            raise ValueError(
                "fleet_w must carry one finite reference mean per tick"
            )
        if batch.n_ticks == 0:
            return fleet_w, lo
        if (
            self._node_ids is not None
            and batch.node_ids is not self._ids_seen
            and not np.array_equal(self._node_ids, batch.node_ids)
        ):
            raise ValueError("batch node set changed mid-stream")
        t = batch.times
        if (self._span is not None and t[0] < self._span[1] - 1e-12) or (
            t[1:] < t[:-1] - 1e-12
        ).any():
            raise ValueError("timestamps must be non-decreasing")
        positive = fleet_w > 0
        if w.size and positive.any():
            # A bound on every reading / fleet_w first; the row-wise
            # check runs only when that bound overflows.
            if not math.isfinite(hi / float(fleet_w[positive].min())):
                with np.errstate(over="ignore"):
                    rows = w[positive].max(axis=1) / fleet_w[positive]
                if not np.isfinite(rows).all():
                    raise ValueError(
                        "readings overflow their ratio to fleet_w"
                    )
        return fleet_w, lo

    def _fold(
        self, batch: SampleBatch, fleet_w: np.ndarray, d: np.ndarray
    ) -> None:
        """Fold a batch with ticks that :meth:`_admit` accepted.

        ``d`` is the node moments' deviations of its readings
        (``node_moments._deviations``), consumed here.
        """
        if self._node_ids is None:
            self._node_ids = batch.node_ids.copy()
            self._excursions = np.zeros(batch.n_nodes, dtype=np.int64)
        self._ids_seen = batch.node_ids

        # Sampling cadence and span: spacing within the batch and across
        # the gap from the previous batch.
        times = batch.times
        if self._span is None:
            self._span = (float(times[0]), float(times[-1]))
        else:
            gap = float(times[0] - self._span[1])
            self._worst_interval_s = max(self._worst_interval_s, gap)
            self._span = (self._span[0], float(times[-1]))
        if times.size >= 2:
            self._worst_interval_s = max(
                self._worst_interval_s, float(np.diff(times).max())
            )

        # Excursions are judged on each node's power *ratio* to the
        # fleet at the same tick (scale-free, so common-mode ramps
        # cancel), against the node's ratio history *before* this batch
        # folds in — a step change must not mask itself.
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = batch.watts / fleet_w[:, None]
        ratios[~(fleet_w > 0)] = 1.0
        if self._ratio_moments.count >= MIN_SAMPLES_FOR_FLAGS:
            mean = np.asarray(self._ratio_moments.mean)
            sd = np.maximum(
                np.asarray(self._ratio_moments.std()), EXCURSION_RATIO_FLOOR
            )
            dev = np.abs(ratios - mean) / sd
            self._excursions += (dev > EXCURSION_Z).sum(axis=0)

        self.node_moments._fold(batch.watts, d)
        # Only the ratio mean and spread are read, so no extremes.
        self._ratio_moments._fold(
            ratios, self._ratio_moments._deviations(ratios), extremes=False
        )
        # The rolling window keeps the newest ticks within the horizon
        # of the batch's latest one, at most ROLLING_CAPACITY of them.
        cap = ROLLING_CAPACITY
        rolling_t = np.concatenate((self._rolling_t, times))[-cap:]
        rolling_w = np.concatenate((self._rolling_w, fleet_w))[-cap:]
        cutoff = times.max() - ROLLING_HORIZON_S - 1e-12
        cut = int(np.argmax(rolling_t >= cutoff))  # the first tick inside
        self._rolling_t, self._rolling_w = rolling_t[cut:], rolling_w[cut:]
        self._samples += batch.n_samples

    @classmethod
    def merge_shards(
        cls, monitors: list["ComplianceMonitor"]
    ) -> "ComplianceMonitor":
        """Reassemble node-partitioned shard monitors (exact).

        Each input observed a disjoint, contiguous node slice of the
        same tick stream, with :meth:`observe` given the global fleet
        reference.  All per-node state (moments, ratio moments,
        excursion counts) is then column-independent, so the fleet
        monitor is the node-ordered concatenation of the shard arrays —
        bit-identical to a single monitor over the whole fleet, for
        any shard count.  The shards must agree on the core window and
        the tick span, or the merge is refused.  The worst interval is
        the shards' largest.  The rolling window is a function of the
        ticks and the global reference alone, so the first shard's is
        adopted without a check.
        """
        if not monitors:
            raise ValueError("merge_shards needs at least one monitor")
        first = monitors[0]
        for i, m in enumerate(monitors):
            if m._node_ids is None:
                raise ValueError(f"shard monitor {i} saw no samples")
            if m._core != first._core:
                raise ValueError("shard monitors disagree on core window")
            if m._span != first._span:
                raise ValueError(
                    f"shard monitor {i} covered a different tick span; "
                    "shards must replay the same stream"
                )
        out = cls(first._core, required_interval_s=first._required_interval_s)
        out.node_moments = RunningMoments.concat(
            [m.node_moments for m in monitors]
        )
        out._ratio_moments = RunningMoments.concat(
            [m._ratio_moments for m in monitors]
        )
        out._node_ids = np.concatenate([m._node_ids for m in monitors])
        out._excursions = np.concatenate([m._excursions for m in monitors])
        out._span = first._span
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
            or self.node_moments.count < MIN_SAMPLES_FOR_FLAGS
        ):
            return (), ()
        means = np.asarray(self.node_moments.mean)
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
        """
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

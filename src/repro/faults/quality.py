"""Data-quality provenance for fault-degraded aggregates.

A degraded measurement is only honest if it says *how* degraded it is.
:class:`QualityReport` is the label the recovery layer attaches to
every aggregate it emits: exactly how many samples were expected, how
many arrived, what was repaired and how, which nodes were written off,
and — crucially — a conservative bound on how far the reported fleet
statistics can sit from the fault-free truth.  The chaos harness
(:mod:`repro.faults.chaos`) closes the loop by checking both sides:
the counts must reconcile *exactly* against the injector's
:class:`~repro.faults.models.FaultLedger`, and the observed estimate
errors must fall inside the report's stated bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["QualityReport", "COMPLIANCE_LEVELS"]

#: EE HPC WG measurement-quality levels, best to worst.
COMPLIANCE_LEVELS = (3, 2, 1, 0)

#: Conservative sigma multiplier for the stated error bounds.  The
#: bounds are engineering guarantees ("the degraded estimate is within
#: this much of truth"), not confidence intervals, so we take z = 4:
#: they must hold for the worst surviving node draw, not on average.
_BOUND_Z = 4.0


@dataclass(frozen=True)
class QualityReport:
    """Provenance label carried by every fault-degraded aggregate.

    Sample accounting (all counts are matrix *cells*, i.e. one node at
    one tick):

    - ``samples_expected``: what a perfect meter would have delivered
      over the planned horizon.
    - ``samples_arrived``: cells actually delivered (finite or NaN).
    - ``samples_missing``: cells delivered as NaN (meter dropout, node
      loss).
    - ``samples_never_arrived``: cells that never showed up at all
      (truncated tails, batches abandoned after retry exhaustion).
    - ``samples_stuck`` / ``samples_spiked``: finite-but-wrong cells the
      detectors flagged.
    - ``samples_held`` / ``samples_interpolated`` / ``samples_excluded``:
      how flagged/missing cells were repaired, by gap policy.

    Recovery accounting:

    - ``nodes_quarantined``: node ids written off after sustained
      missing runs; their cells are excluded from fleet statistics.
    - ``batches_retried`` / ``batches_abandoned``: transient delivery
      failures absorbed by bounded retry, and batches dropped after
      retry exhaustion.

    Verdict:

    - ``effective_coverage``: fraction of expected cells that informed
      the final statistics.
    - ``original_level`` / ``effective_level``: the compliance level the
      run aimed for and the level the circuit breaker actually granted.
    - ``fleet_mean_w`` / ``node_cv`` / ``sigma_node_w`` / ``n_nodes_used``:
      the degraded statistics this report labels.

    Wire provenance (defaulted so pre-wire call sites are unchanged):

    - ``codec``: wire codec spec the samples crossed (``""`` when the
      aggregate never left process memory).
    - ``codec_error_bound_w``: the codec's per-sample error bound in
      watts (0 for lossless codecs); folded into the stated error
      bounds below.
    - ``frames_dropped`` / ``frames_corrupt``: transport-level frame
      losses the reader detected via sequence gaps and CRC failures.
    - ``notes``: provenance caveats that do not fit a count.

    Correlated-fault provenance (defaulted so pre-pathology call sites
    are unchanged):

    - ``correlated_bias_w``: magnitude of the common-mode (fleet-wide)
      mean bias injected by correlated pathologies, in watts — the
      per-node time-mean bias averaged across nodes.
    - ``correlated_cv_extra``: extra across-node spread carried by
      persistent per-node biases, as a fraction of the fleet mean (the
      standard deviation of per-node time-mean biases over the mean).
    - ``correlated_models``: labels of the pathology models the terms
      come from; required non-empty whenever either term is non-zero.

    When all three are at their defaults the error bounds below assume
    *independent* per-cell errors — an assumption, not a fact — and
    :attr:`stated_notes` says so explicitly.
    """

    samples_expected: int
    samples_arrived: int
    samples_missing: int
    samples_never_arrived: int
    samples_stuck: int
    samples_spiked: int
    samples_held: int
    samples_interpolated: int
    samples_excluded: int
    nodes_quarantined: tuple[int, ...]
    batches_retried: int
    batches_abandoned: int
    effective_coverage: float
    original_level: int
    effective_level: int
    fleet_mean_w: float
    node_cv: float
    sigma_node_w: float
    sigma_tick_w: float
    n_nodes_used: int
    codec: str = ""
    codec_error_bound_w: float = 0.0
    frames_dropped: int = 0
    frames_corrupt: int = 0
    notes: tuple[str, ...] = ()
    correlated_bias_w: float = 0.0
    correlated_cv_extra: float = 0.0
    correlated_models: tuple[str, ...] = ()

    #: Caveat rendered whenever the bounds carry no correlated terms:
    #: the z-bounds below are only valid if meter errors really are
    #: independent per cell, and nothing in the data can prove that.
    INDEPENDENCE_NOTE = (
        "error bounds assume independent per-cell meter errors; "
        "correlated pathologies (aliasing, common-mode offsets, device "
        "spread) are not covered"
    )

    def __post_init__(self) -> None:
        if self.samples_expected < 0 or self.samples_arrived < 0:
            raise ValueError("sample counts must be non-negative")
        if self.samples_arrived > self.samples_expected:
            raise ValueError(
                "cannot deliver more samples than were expected"
            )
        if not (0.0 <= self.effective_coverage <= 1.0):
            raise ValueError("effective_coverage must be in [0, 1]")
        for level in (self.original_level, self.effective_level):
            if level not in COMPLIANCE_LEVELS:
                raise ValueError(f"unknown compliance level {level}")
        if self.codec_error_bound_w < 0.0:
            raise ValueError("codec_error_bound_w must be non-negative")
        if self.frames_dropped < 0 or self.frames_corrupt < 0:
            raise ValueError("frame counts must be non-negative")
        if self.codec_error_bound_w > 0.0 and not self.codec:
            raise ValueError(
                "a non-zero codec error bound requires naming the codec"
            )
        if self.correlated_bias_w < 0.0 or self.correlated_cv_extra < 0.0:
            raise ValueError("correlated terms must be non-negative")
        if (
            self.correlated_bias_w > 0.0 or self.correlated_cv_extra > 0.0
        ) and not self.correlated_models:
            raise ValueError(
                "non-zero correlated terms require naming the models "
                "in correlated_models"
            )

    # -- accounting identities -----------------------------------------
    @property
    def samples_flagged(self) -> int:
        """Finite-but-wrong cells the detectors caught."""
        return self.samples_stuck + self.samples_spiked

    @property
    def samples_repaired(self) -> int:
        """Cells replaced or excised by the gap policy."""
        return (
            self.samples_held
            + self.samples_interpolated
            + self.samples_excluded
        )

    @property
    def samples_unusable(self) -> int:
        """Cells that could not contribute a trustworthy reading."""
        return (
            self.samples_missing
            + self.samples_never_arrived
            + self.samples_flagged
        )

    def downgraded(self) -> bool:
        """Did the circuit breaker reduce the compliance level?"""
        return self.effective_level < self.original_level

    @property
    def assumes_independence(self) -> bool:
        """Are the bounds computed with no correlated-fault terms?"""
        return (
            self.correlated_bias_w <= 0.0
            and self.correlated_cv_extra <= 0.0
            and not self.correlated_models
        )

    @property
    def stated_notes(self) -> tuple[str, ...]:
        """Notes as rendered: ``notes`` plus the independence caveat.

        A computed view, not a mutation of :attr:`notes` — callers that
        compare raw ``notes`` tuples are unaffected, but every human-
        or JSON-facing rendering states
        the independence assumption whenever the bounds rely on it.
        """
        if self.assumes_independence:
            return self.notes + (self.INDEPENDENCE_NOTE,)
        return self.notes

    # -- stated error bounds -------------------------------------------
    def error_bound_fleet_mean(self) -> float:
        """Relative bound on the degraded fleet-mean power estimate.

        Two degradation channels: (a) dropping ``k`` of ``n`` nodes
        shifts the mean of the survivors by at most about
        ``z * (sigma_node/mu) * sqrt(k) / n`` (the removed nodes are a
        draw from the node distribution, each within ``z`` sigma of the
        fleet mean); (b) unusable cells — repaired, excised or never
        delivered — perturb the time average by at most ``z`` per-tick
        sigma on the unusable fraction (covers the worst case of an
        entire truncated tail sitting at the extreme of the within-run
        power swing).  A lossy wire codec adds a third channel: every
        surviving sample may sit up to ``codec_error_bound_w`` from its
        true value, shifting the mean by at most that much — relative
        term ``e / mu``.
        """
        n_total = self.n_nodes_used + len(self.nodes_quarantined)
        if n_total == 0 or self.fleet_mean_w <= 0:
            return math.inf
        cv_node = self.sigma_node_w / self.fleet_mean_w
        k_lost = len(self.nodes_quarantined)
        subset_term = _BOUND_Z * cv_node * math.sqrt(max(k_lost, 0)) / n_total
        repair_frac = self.samples_unusable / max(self.samples_expected, 1)
        if repair_frac >= 1.0:
            return math.inf
        cv_tick = self.sigma_tick_w / self.fleet_mean_w
        repair_term = _BOUND_Z * cv_tick * repair_frac / (1.0 - repair_frac)
        codec_term = self.codec_error_bound_w / self.fleet_mean_w
        if self.correlated_bias_w >= self.fleet_mean_w:
            return math.inf
        # The observed mean is (clean + bias); the relative error is
        # judged against the *clean* truth, so the worst case divides
        # the bias by (observed − bias), not by the observed mean.
        correlated_term = self.correlated_bias_w / (
            self.fleet_mean_w - self.correlated_bias_w
        )
        return subset_term + repair_term + codec_term + correlated_term

    def error_bound_node_cv(self) -> float:
        """Relative bound on the degraded sigma/mu (node CV) estimate.

        Channels: (a) estimating sigma from ``n_eff`` instead of ``n``
        nodes has relative sampling error about
        ``z * sqrt(k_lost / (2 (n_eff - 1)))``; (b) repairs bias each
        node's time average by at most ``delta = cv_tick * repair_frac``
        of the mean, which perturbs the node CV by about
        ``(delta/cv)^2 / 2 + z * delta / (cv * sqrt(n_eff))``; (c) a
        lossy wire codec perturbs each node's time average by at most
        ``e = codec_error_bound_w``, moving the across-node sigma by at
        most ``2e`` and the mean by at most ``e`` — relative term
        ``2e / sigma_node + e / mu``.
        """
        n_eff = self.n_nodes_used
        if n_eff < 2 or self.node_cv <= 0 or self.fleet_mean_w <= 0:
            return math.inf
        k_lost = len(self.nodes_quarantined)
        sigma_term = _BOUND_Z * math.sqrt(
            max(k_lost, 0) / (2.0 * (n_eff - 1))
        )
        repair_frac = self.samples_unusable / max(self.samples_expected, 1)
        if repair_frac >= 1.0:
            return math.inf
        cv_tick = self.sigma_tick_w / self.fleet_mean_w
        delta = cv_tick * repair_frac / (1.0 - repair_frac)
        bias_term = (delta / self.node_cv) ** 2 / 2.0
        noise_term = _BOUND_Z * delta / (self.node_cv * math.sqrt(n_eff))
        codec_term = 0.0
        if self.codec_error_bound_w > 0.0:
            if self.sigma_node_w <= 0.0:
                return math.inf
            codec_term = (
                2.0 * self.codec_error_bound_w / self.sigma_node_w
                + self.codec_error_bound_w / self.fleet_mean_w
            )
        correlated_term = 0.0
        if not self.assumes_independence:
            # Persistent per-node biases add up to correlated_cv_extra
            # of across-node spread (triangle inequality on the node
            # sigma: |sigma(m + b) - sigma(m)| <= sigma(b)), so the
            # clean CV can sit as low as (node_cv - extra); a common-
            # mode bias additionally shifts the mean in the CV's
            # denominator.  Either channel exhausting its budget makes
            # the bound honest but useless: infinity.
            if self.correlated_cv_extra >= self.node_cv:
                return math.inf
            if self.correlated_bias_w >= self.fleet_mean_w:
                return math.inf
            correlated_term = self.correlated_cv_extra / (
                self.node_cv - self.correlated_cv_extra
            ) + self.correlated_bias_w / (
                self.fleet_mean_w - self.correlated_bias_w
            )
        return sigma_term + bias_term + noise_term + codec_term + correlated_term

    # -- rendering ------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-friendly rendering (bounds included)."""
        return {
            "samples_expected": self.samples_expected,
            "samples_arrived": self.samples_arrived,
            "samples_missing": self.samples_missing,
            "samples_never_arrived": self.samples_never_arrived,
            "samples_stuck": self.samples_stuck,
            "samples_spiked": self.samples_spiked,
            "samples_held": self.samples_held,
            "samples_interpolated": self.samples_interpolated,
            "samples_excluded": self.samples_excluded,
            "nodes_quarantined": list(self.nodes_quarantined),
            "batches_retried": self.batches_retried,
            "batches_abandoned": self.batches_abandoned,
            "effective_coverage": self.effective_coverage,
            "original_level": self.original_level,
            "effective_level": self.effective_level,
            "fleet_mean_w": self.fleet_mean_w,
            "node_cv": self.node_cv,
            "sigma_node_w": self.sigma_node_w,
            "sigma_tick_w": self.sigma_tick_w,
            "n_nodes_used": self.n_nodes_used,
            "codec": self.codec,
            "codec_error_bound_w": self.codec_error_bound_w,
            "frames_dropped": self.frames_dropped,
            "frames_corrupt": self.frames_corrupt,
            "notes": list(self.stated_notes),
            "correlated_bias_w": self.correlated_bias_w,
            "correlated_cv_extra": self.correlated_cv_extra,
            "correlated_models": list(self.correlated_models),
            "error_bound_fleet_mean": self.error_bound_fleet_mean(),
            "error_bound_node_cv": self.error_bound_node_cv(),
        }

    def lines(self) -> list[str]:
        """Human-readable summary block."""
        cov_pct = 100.0 * self.effective_coverage
        out = [
            "data quality",
            f"  coverage            {cov_pct:.2f}% of "
            f"{self.samples_expected} expected samples",
            f"  missing / flagged   {self.samples_missing} missing, "
            f"{self.samples_stuck} stuck, {self.samples_spiked} spiked",
            f"  never arrived       {self.samples_never_arrived}",
            f"  repairs             {self.samples_held} held, "
            f"{self.samples_interpolated} interpolated, "
            f"{self.samples_excluded} excluded",
            f"  retries             {self.batches_retried} batch retries, "
            f"{self.batches_abandoned} abandoned",
        ]
        if self.nodes_quarantined:
            ids = ", ".join(str(i) for i in self.nodes_quarantined)
            out.append(f"  quarantined nodes   {ids}")
        if self.codec:
            out.append(
                f"  wire codec          {self.codec} "
                f"(+/-{self.codec_error_bound_w:g} W/sample), "
                f"{self.frames_dropped} frames dropped, "
                f"{self.frames_corrupt} corrupt"
            )
        if self.correlated_models:
            names = ", ".join(self.correlated_models)
            out.append(
                f"  correlated faults   {names}: common-mode bias "
                f"{self.correlated_bias_w:.2f} W, node spread "
                f"+{100 * self.correlated_cv_extra:.2f}% of mean"
            )
        for note in self.stated_notes:
            out.append(f"  note                {note}")
        level_note = (
            f"L{self.original_level} -> L{self.effective_level}"
            if self.downgraded()
            else f"L{self.effective_level}"
        )
        out.append(f"  compliance          {level_note}")
        bound_mean = self.error_bound_fleet_mean()
        bound_cv = self.error_bound_node_cv()
        if math.isfinite(bound_mean):
            out.append(
                f"  stated error bound  mean +/-{100 * bound_mean:.2f}%, "
                f"sigma/mu +/-{100 * bound_cv:.2f}% (relative)"
            )
        else:
            out.append("  stated error bound  unavailable (degenerate run)")
        return out

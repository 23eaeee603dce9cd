"""Correlated meter pathologies: aliasing, entropy power, device spread.

The models in :mod:`repro.faults.models` are wrong *independently* —
each faulted cell is an isolated NaN, latch or glitch, which is exactly
the structure the :class:`~repro.faults.quality.QualityReport` z-bounds
assume.  The related literature says the dangerous errors are
*correlated*:

* **Sampling-window aliasing** ("Part-time Power Measurements:
  nvidia-smi's Lack of Attention"): the meter itself is duty-cycled —
  it reads for ``on`` ticks out of every ``period`` and holds the last
  reading in between.  Every average computed from the stream is then
  biased by the beat between the meter's duty cycle and the workload's
  power trajectory, in the *same direction for every node at once*.
  :class:`AliasingMeter` models the hold; the exact per-cell bias goes
  into the ledger.
* **Input-entropy-dependent power** ("Understanding the Impact of Input
  Entropy on FPU, CPU, and GPU Power"): two nominally identical runs
  draw different power because the data they chew differs.
  :class:`EntropyPowerModel` applies a seeded per-segment fleet-wide
  offset — a common-mode error no per-node detector can see.
* **Per-accelerator spread** ("Not All GPUs Are Created Equal"):
  binning gives each device a persistent efficiency multiplier, so node
  CV and fleet mean shift *jointly* and permanently.
  :class:`DeviceSpreadModel` draws one multiplicative factor per node.

All three live under the existing :class:`~repro.faults.models.FaultPlan`
determinism and disjointness contracts.  :class:`AliasingMeter` is a
value corruption and *claims* the cells it overwrites;
:class:`EntropyPowerModel` and :class:`DeviceSpreadModel` are *ambient*
transforms — they perturb every cell without claiming any, and
therefore must run before any claiming model (enforced with a clear
error).  Every model records its exact injected bias in the
:class:`~repro.faults.models.FaultLedger` and the per-cell ``bias_w``
matrix, which is what lets :func:`run_pathology` audit that the
correlation-widened :class:`~repro.faults.quality.QualityReport` bounds
actually cover the observed estimate errors — and that the *unwidened*
(independence-assuming) bounds do not.

:func:`gaming_assessment` and :func:`sampling_cost` close the loop back
to the paper: what do the Level 1–3 reporting rules let a strategic
submitter shave off the reported power under each pathology, and how
many extra Eq. 1–5 samples does the pathology cost against the Table 5
grid?
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.gaming import optimal_window_gain
from repro.core.sampling import recommend_sample_size
from repro.faults.chaos import AuditOutcome, _inject_and_recover, clean_truth
from repro.faults.detectors import CorrelatedDetectors, CorrelatedVerdict
from repro.faults.models import (
    FaultModel,
    FaultPlan,
    NodeLoss,
    SampleDropout,
    SpikeGlitch,
    _InjectionState,
)
from repro.traces.powertrace import PowerTrace

__all__ = [
    "AliasingMeter",
    "EntropyPowerModel",
    "DeviceSpreadModel",
    "PathologyScenario",
    "PathologyOutcome",
    "GamingAssessment",
    "SamplingCost",
    "run_pathology",
    "gaming_assessment",
    "sampling_cost",
    "standard_scenarios",
]


def _require_unclaimed(state: _InjectionState, label: str) -> None:
    """Ambient pathologies must see a fully unclaimed matrix."""
    if state.taken.any():
        n = int(state.taken.sum())
        raise ValueError(
            f"{label}: {n} cells already claimed by an earlier model; "
            "ambient pathology models perturb every cell and must run "
            "before any claiming model (FaultPlan.canonical orders them "
            "correctly)"
        )


@dataclass(frozen=True)
class AliasingMeter(FaultModel):
    """Duty-cycled sampling-window meter (nvidia-smi-style aliasing).

    The meter reads during the first ``round(duty_frac * period_ticks)``
    ticks of every ``period_ticks``-long cycle (shifted by
    ``phase_ticks``) and *holds the last on-window reading* for the off
    ticks — all nodes at once, because the duty cycle belongs to the
    collector, not the node.  On any trending trace the held readings
    are systematically stale, so every average computed downstream is
    biased by the beat between the meter period and the workload's
    power trajectory.

    Off-window cells are value corruptions: they are claimed under the
    disjointness contract, flagged in ``aliased_mask``, and their exact
    bias (held − true) is recorded per cell in ``bias_w`` and summed in
    the ledger.  ``duty_frac = 1.0`` is the identity: the meter is
    always on and the matrix passes through bit-identical.
    """

    period_ticks: int
    duty_frac: float
    phase_ticks: int = 0
    tag: str = ""
    canonical_rank = 50

    def __post_init__(self) -> None:
        if self.period_ticks < 1:
            raise ValueError("period_ticks must be >= 1")
        if not (0.0 < self.duty_frac <= 1.0):
            raise ValueError(
                f"duty_frac must be in (0, 1], got {self.duty_frac}"
            )
        if self.phase_ticks < 0:
            raise ValueError("phase_ticks must be >= 0")

    @property
    def on_ticks(self) -> int:
        """Ticks per cycle the meter actually reads."""
        return min(
            self.period_ticks,
            max(1, int(round(self.duty_frac * self.period_ticks))),
        )

    def _apply(self, state: _InjectionState, rng: np.random.Generator) -> None:
        if self.on_ticks >= self.period_ticks:
            return  # always-on meter: exact identity
        n_ticks = state.watts.shape[0]
        ticks = np.arange(n_ticks)
        on = (ticks + self.phase_ticks) % self.period_ticks < self.on_ticks
        # Source row for every tick: the latest on tick at or before it.
        src = np.maximum.accumulate(np.where(on, ticks, -1))
        stale = ~on & (src >= 0)
        if not stale.any():
            return
        mask = np.zeros(state.watts.shape, dtype=bool)
        mask[stale] = True
        if (state.taken & mask).any():
            n = int((state.taken & mask).sum())
            raise ValueError(
                f"{self.label}: {n} off-window cells already claimed by "
                "an earlier model; a duty-cycled meter overwrites whole "
                "ticks and cannot share them under the disjointness "
                "contract"
            )
        held = state.watts[src[stale], :]
        bias = held - state.watts[stale, :]
        state.watts[stale, :] = held
        state.aliased |= mask
        state.taken |= mask
        state.bias_w[stale, :] += bias
        state.tally(
            samples_aliased=state.ledger.samples_aliased + int(mask.sum()),
            aliasing_bias_w_sum=state.ledger.aliasing_bias_w_sum
            + float(bias.sum()),
            aliasing_bias_abs_max_w=max(
                state.ledger.aliasing_bias_abs_max_w,
                float(np.abs(bias).max()),
            ),
        )


@dataclass(frozen=True)
class EntropyPowerModel(FaultModel):
    """Input-entropy-dependent power: a seeded per-segment offset.

    The run is split into segments of ``segment_ticks``; segment ``k``
    processes input of entropy ``e_k`` drawn uniformly from
    ``(entropy_lo, entropy_hi)``, and the whole fleet's power shifts by

        ``offset_w(k) = 2 * amplitude_w * (e_k - (lo + hi) / 2)``

    so offsets span ±``amplitude_w * (hi − lo)`` around zero.  The
    offset is *common-mode*: every node in a segment moves together,
    which is why per-node outlier detectors cannot see it.

    Ambient (non-claiming): cells keep their claimability, but the
    exact offset is recorded per cell in ``bias_w`` and summed in the
    ledger.  Constant entropy (``lo == hi``) or ``amplitude_w = 0``
    makes every offset exactly zero — the identity.
    """

    amplitude_w: float
    segment_ticks: int = 60
    entropy_lo: float = 0.0
    entropy_hi: float = 1.0
    tag: str = ""
    canonical_rank = 40

    def __post_init__(self) -> None:
        if self.amplitude_w < 0.0:
            raise ValueError("amplitude_w must be non-negative")
        if self.segment_ticks < 1:
            raise ValueError("segment_ticks must be >= 1")
        if self.entropy_hi < self.entropy_lo:
            raise ValueError("entropy_hi must be >= entropy_lo")

    def _apply(self, state: _InjectionState, rng: np.random.Generator) -> None:
        n_ticks, n_nodes = state.watts.shape
        n_segments = math.ceil(n_ticks / self.segment_ticks)
        entropy = rng.uniform(self.entropy_lo, self.entropy_hi, n_segments)
        mid = 0.5 * (self.entropy_lo + self.entropy_hi)
        offsets_w = 2.0 * self.amplitude_w * (entropy - mid)
        tick_offset_w = offsets_w[np.arange(n_ticks) // self.segment_ticks]
        shifted = np.abs(tick_offset_w) > 0.0
        if not shifted.any():
            return  # constant entropy or zero amplitude: exact identity
        _require_unclaimed(state, self.label)
        state.watts += tick_offset_w[:, None]
        state.bias_w += tick_offset_w[:, None]
        state.tally(
            samples_entropy_shifted=state.ledger.samples_entropy_shifted
            + int(shifted.sum()) * n_nodes,
            entropy_bias_w_sum=state.ledger.entropy_bias_w_sum
            + float(tick_offset_w.sum()) * n_nodes,
            entropy_bias_abs_max_w=max(
                state.ledger.entropy_bias_abs_max_w,
                float(np.abs(tick_offset_w).max()),
            ),
        )


@dataclass(frozen=True)
class DeviceSpreadModel(FaultModel):
    """Persistent per-node efficiency draws (accelerator binning).

    Node ``j``'s meter-visible power is rescaled by a persistent factor
    ``1 + spread_frac * z_j`` with ``z_j`` a seeded standard-normal
    draw clipped to ±``clip_sigma`` (keeps factors positive and bounds
    the worst node).  The factors survive the whole run — identical
    workloads genuinely draw different power per device — so the node
    CV and the fleet mean shift *jointly*, which is exactly what the
    independent-error bounds cannot cover.

    Ambient (non-claiming); the exact per-cell rescaling bias lands in
    ``bias_w`` and the ledger.  ``spread_frac = 0`` is the identity.
    """

    spread_frac: float
    clip_sigma: float = 4.0
    tag: str = ""
    canonical_rank = 30

    def __post_init__(self) -> None:
        if not (0.0 <= self.spread_frac <= 0.2):
            raise ValueError(
                f"spread_frac must be in [0, 0.2], got {self.spread_frac}"
            )
        if self.clip_sigma <= 0.0:
            raise ValueError("clip_sigma must be positive")

    def _apply(self, state: _InjectionState, rng: np.random.Generator) -> None:
        n_nodes = state.watts.shape[1]
        z = np.clip(
            rng.standard_normal(n_nodes), -self.clip_sigma, self.clip_sigma
        )
        factors = 1.0 + self.spread_frac * z
        off = np.abs(factors - 1.0) > 0.0
        if not off.any():
            return  # zero spread: exact identity
        _require_unclaimed(state, self.label)
        bias = state.watts * (factors[None, :] - 1.0)
        state.watts *= factors[None, :]
        state.bias_w += bias
        state.tally(
            nodes_spread=state.ledger.nodes_spread + int(off.sum()),
            spread_max_abs_frac=max(
                state.ledger.spread_max_abs_frac,
                float(np.abs(factors - 1.0).max()),
            ),
            spread_bias_w_sum=state.ledger.spread_bias_w_sum
            + float(bias.sum()),
        )


@dataclass(frozen=True)
class PathologyScenario:
    """A named pathology bundle, stackable with independent faults.

    All intensities default to off; :meth:`models` switches on only the
    non-trivial channels, and :meth:`plan` orders them canonically
    (spread → entropy → aliasing → spikes → node loss → dropout).
    """

    name: str = "pathology"
    aliasing_period_ticks: int = 0
    aliasing_duty_frac: float = 1.0
    aliasing_phase_ticks: int = 0
    entropy_amplitude_w: float = 0.0
    entropy_segment_ticks: int = 60
    entropy_lo: float = 0.0
    entropy_hi: float = 1.0
    spread_frac: float = 0.0
    dropout_rate: float = 0.0
    spike_rate: float = 0.0
    spike_factor: float = 8.0
    node_loss: int = 0

    def models(self) -> list[FaultModel]:
        """The fault models this scenario switches on."""
        out: list[FaultModel] = []
        if self.spread_frac > 0:
            out.append(DeviceSpreadModel(spread_frac=self.spread_frac))
        if self.entropy_amplitude_w > 0:
            out.append(
                EntropyPowerModel(
                    amplitude_w=self.entropy_amplitude_w,
                    segment_ticks=self.entropy_segment_ticks,
                    entropy_lo=self.entropy_lo,
                    entropy_hi=self.entropy_hi,
                )
            )
        if (
            self.aliasing_period_ticks > 0
            and self.aliasing_duty_frac < 1.0
        ):
            out.append(
                AliasingMeter(
                    period_ticks=self.aliasing_period_ticks,
                    duty_frac=self.aliasing_duty_frac,
                    phase_ticks=self.aliasing_phase_ticks,
                )
            )
        if self.spike_rate > 0:
            out.append(
                SpikeGlitch(rate=self.spike_rate, factor=self.spike_factor)
            )
        if self.node_loss > 0:
            out.append(NodeLoss(count=self.node_loss))
        if self.dropout_rate > 0:
            out.append(SampleDropout(rate=self.dropout_rate))
        return out

    def plan(self, seed: int | None) -> FaultPlan:
        """Canonical seeded fault plan for this scenario."""
        return FaultPlan.canonical(self.models(), seed)

    @property
    def any_pathology(self) -> bool:
        """Whether any correlated channel is switched on."""
        return (
            self.spread_frac > 0
            or self.entropy_amplitude_w > 0
            or (
                self.aliasing_period_ticks > 0
                and self.aliasing_duty_frac < 1.0
            )
        )


def standard_scenarios(
    kinds: tuple[str, ...] = ("aliasing", "entropy", "spread"),
    *,
    intensity: str = "high",
) -> list[PathologyScenario]:
    """The named pathology grid the CLI, smoke and X-PATH share.

    ``intensity`` is ``"low"`` or ``"high"``; the low cells sit near
    the paper's λ = 1% accuracy target, the high cells well past it.
    """
    if intensity not in ("low", "high"):
        raise ValueError(f"intensity must be 'low' or 'high', got {intensity!r}")
    high = intensity == "high"
    table = {
        "aliasing": PathologyScenario(
            name=f"aliasing-{intensity}",
            aliasing_period_ticks=10,
            aliasing_duty_frac=0.2 if high else 0.6,
        ),
        "entropy": PathologyScenario(
            name=f"entropy-{intensity}",
            entropy_amplitude_w=60.0 if high else 15.0,
            entropy_segment_ticks=30,
        ),
        "spread": PathologyScenario(
            name=f"spread-{intensity}",
            spread_frac=0.06 if high else 0.02,
        ),
    }
    unknown = [k for k in kinds if k not in table]
    if unknown:
        raise ValueError(
            f"unknown pathology kind(s) {unknown}; "
            f"choose from {sorted(table)}"
        )
    return [table[k] for k in kinds]


# ---------------------------------------------------------------------------
# Gaming and sampling-cost analysis
# ---------------------------------------------------------------------------

#: Pre-2015 Level 1 instrumented fraction (1/64 of the machine) and the
#: Level 2 fraction (1/8); Level 3 is the whole machine.
_LEVEL_NODE_FRACTIONS = {1: 1.0 / 64.0, 2: 1.0 / 8.0, 3: 1.0}


@dataclass(frozen=True)
class GamingAssessment:
    """What the Level 1–3 rules let a strategic submitter report.

    All powers are per-node watts (multiply by the fleet size for
    machine watts).  Per level, ``reported_w`` is the best legal
    submission on the *delivered* (possibly pathological) stream:

    * **Level 1** (pre-2015): instrument the cheapest legal node subset
      (1/64 of the machine) and place the best legal 20% window in the
      middle 80% of the core phase.
    * **Level 2**: the cheapest legal 1/8 subset, full core window.
    * **Level 3**: the whole machine, full core window — only the
      meter pathology itself can shave here.

    ``shave_w`` is ``true_mean_w − reported_w``: watts per node shaved
    off the honest whole-machine average.
    """

    true_mean_w: float
    reported_w: dict[int, float]
    subset_nodes: dict[int, int]

    def shave_w(self, level: int) -> float:
        """Watts per node shaved at ``level`` (positive = understated)."""
        return self.true_mean_w - self.reported_w[level]

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "true_mean_w": self.true_mean_w,
            "reported_w": {str(k): v for k, v in self.reported_w.items()},
            "shave_w": {
                str(level): self.shave_w(level) for level in self.reported_w
            },
            "subset_nodes": {
                str(k): v for k, v in self.subset_nodes.items()
            },
        }


def gaming_assessment(
    times_s: np.ndarray,
    delivered_watts: np.ndarray,
    true_mean_w: float,
) -> GamingAssessment:
    """Best legal Level 1–3 submissions on a delivered node matrix.

    ``delivered_watts`` is the (finite) faulted matrix the submitter's
    meters produced; ``true_mean_w`` is the honest fault-free
    whole-machine per-node average the shave is judged against.  The
    adversary picks the lowest-power legal node subset for each level
    and, at Level 1, additionally the optimal legal window via
    :func:`repro.analysis.gaming.optimal_window_gain`.
    """
    watts = np.asarray(delivered_watts, dtype=float)
    if not np.all(np.isfinite(watts)):
        raise ValueError(
            "gaming_assessment needs a finite delivered matrix; repair "
            "or exclude missing cells first"
        )
    n_nodes = watts.shape[1]
    node_means = watts.mean(axis=0)
    order = np.argsort(node_means, kind="stable")
    reported_w: dict[int, float] = {}
    subset_nodes: dict[int, int] = {}
    for level, fraction in _LEVEL_NODE_FRACTIONS.items():
        k = max(2, math.ceil(fraction * n_nodes - 1e-9))
        k = min(k, n_nodes)
        subset = order[:k]
        subset_trace_w = watts[:, subset].mean(axis=1)
        if level == 1:
            trace = PowerTrace(np.asarray(times_s, dtype=float), subset_trace_w)
            reported_w[level] = optimal_window_gain(trace).best_average
        else:
            reported_w[level] = float(subset_trace_w.mean())
        subset_nodes[level] = int(k)
    return GamingAssessment(
        true_mean_w=float(true_mean_w),
        reported_w=reported_w,
        subset_nodes=subset_nodes,
    )


@dataclass(frozen=True)
class SamplingCost:
    """Extra Eq. 1–5 samples a pathology costs against Table 5.

    ``n_clean`` / ``n_delivered`` are the Eq. 5 recommended sample
    sizes (``N = 10 000``, λ, 95%) at the clean and the delivered node
    CV — the "corresponding Table 5 cell" before and after the
    pathology.  ``restorable`` says whether more sampling can restore
    the λ verdict at all: a correlated *bias* of more than λ of the
    mean cannot be sampled away, only a variance inflation can.
    """

    accuracy_frac: float
    cv_clean: float
    cv_delivered: float
    n_clean: int
    n_delivered: int
    bias_frac: float
    population: int = 10_000

    @property
    def multiplier(self) -> float:
        """Required-sample multiplier vs the clean Table 5 cell."""
        return self.n_delivered / self.n_clean

    @property
    def extra_samples(self) -> int:
        """Extra nodes to instrument to keep the λ verdict."""
        return self.n_delivered - self.n_clean

    @property
    def restorable(self) -> bool:
        """Can extra sampling restore the verdict (bias below λ)?"""
        return self.bias_frac <= self.accuracy_frac

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "accuracy_frac": self.accuracy_frac,
            "cv_clean": self.cv_clean,
            "cv_delivered": self.cv_delivered,
            "n_clean": self.n_clean,
            "n_delivered": self.n_delivered,
            "multiplier": self.multiplier,
            "extra_samples": self.extra_samples,
            "bias_frac": self.bias_frac,
            "restorable": self.restorable,
            "population": self.population,
        }


def sampling_cost(
    cv_clean: float,
    cv_delivered: float,
    bias_frac: float,
    *,
    accuracy_frac: float = 0.01,
    population: int = 10_000,
) -> SamplingCost:
    """Eq. 5 sampling cost of a pathology vs the Table 5 grid."""
    n_clean = recommend_sample_size(
        population, cv_clean, accuracy_frac
    ).n
    n_delivered = recommend_sample_size(
        population, cv_delivered, accuracy_frac
    ).n
    return SamplingCost(
        accuracy_frac=accuracy_frac,
        cv_clean=float(cv_clean),
        cv_delivered=float(cv_delivered),
        n_clean=n_clean,
        n_delivered=n_delivered,
        bias_frac=abs(float(bias_frac)),
        population=population,
    )


# ---------------------------------------------------------------------------
# End-to-end pathology harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathologyOutcome(AuditOutcome):
    """One pathology trial: audit verdicts, detection, gaming, cost."""

    scenario: PathologyScenario
    gap_policy: str
    seed: int | None
    ledger_dict: dict
    detection: CorrelatedVerdict
    gaming: GamingAssessment | None
    cost: SamplingCost | None

    #: Audit slack.  Wider than the chaos harness's 1e-12: the exact
    #: correlated bias term makes the widened mean bound *tight* (the
    #: error equals the bound up to float summation order), so the
    #: slack must absorb running-sum-vs-matrix-mean rounding differences.
    _BOUND_EPS = 1e-9

    @property
    def independent_bound_mean_violated(self) -> bool:
        """Would the unwidened (independence-assuming) bound have lied?

        Strips the correlated terms from the report and re-evaluates the
        fleet-mean bound: under a real pathology the observed error
        escapes it — the demonstration that independent-error z-bounds
        are invalid under correlated faults.
        """
        stripped = replace(
            self.report,
            correlated_bias_w=0.0,
            correlated_cv_extra=0.0,
            correlated_models=(),
        )
        return (
            self.rel_err_fleet_mean
            > stripped.error_bound_fleet_mean() + self._BOUND_EPS
        )

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "scenario": self.scenario.name,
            "gap_policy": self.gap_policy,
            "seed": self.seed,
            **self._audit_rows(),
            "independent_bound_mean_violated": (
                self.independent_bound_mean_violated
            ),
            "report": self.report.to_dict(),
            "ledger": dict(self.ledger_dict),
            "detection": self.detection.to_dict(),
            "gaming": None if self.gaming is None else self.gaming.to_dict(),
            "cost": None if self.cost is None else self.cost.to_dict(),
        }

    def lines(self) -> list[str]:
        """Human-readable verdict block."""
        out = [
            f"pathology {self.scenario.name} (policy={self.gap_policy})",
            *self._audit_lines(),
            "  independence-only bound would have "
            + (
                "LIED (violated)"
                if self.independent_bound_mean_violated
                else "held"
            ),
            *("  " + line for line in self.detection.lines()),
        ]
        if self.gaming is not None:
            for level in sorted(self.gaming.reported_w):
                out.append(
                    f"  gaming L{level}   reported "
                    f"{self.gaming.reported_w[level]:.2f} W/node "
                    f"({self.gaming.subset_nodes[level]} nodes), shave "
                    f"{self.gaming.shave_w(level):+.2f} W/node"
                )
        if self.cost is not None:
            out.append(
                f"  sampling cost n {self.cost.n_clean} -> "
                f"{self.cost.n_delivered} "
                f"(x{self.cost.multiplier:.2f}, "
                f"{'restorable' if self.cost.restorable else 'NOT restorable'}"
                f" at lambda={self.cost.accuracy_frac:.1%})"
            )
        out.extend("  " + line for line in self.report.lines())
        return out


def _bias_terms(injection) -> tuple[float, float, tuple[str, ...]]:
    """Exact correlated bound terms from the injector's bias matrix.

    Per-node time-mean bias ``b_j`` over the delivered ticks decomposes
    the pathology into a common-mode mean shift (``|mean_j b_j|``) and
    a node-spread shift (``std_j b_j``, in watts).  These are what the
    correlation-aware :class:`~repro.faults.quality.QualityReport`
    bounds consume.
    """
    models: list[str] = []
    ledger = injection.ledger
    if ledger.samples_aliased > 0:
        models.append("AliasingMeter")
    if ledger.samples_entropy_shifted > 0:
        models.append("EntropyPowerModel")
    if ledger.nodes_spread > 0:
        models.append("DeviceSpreadModel")
    if not models or injection.bias_w is None:
        return 0.0, 0.0, ()
    node_bias_w = injection.bias_w.mean(axis=0)
    common_bias_w = abs(float(node_bias_w.mean()))
    if node_bias_w.size >= 2:
        spread_sigma_w = float(node_bias_w.std(ddof=1))
    else:
        spread_sigma_w = 0.0
    return common_bias_w, spread_sigma_w, tuple(models)


def run_pathology(
    run,
    scenario: PathologyScenario,
    *,
    gap_policy: str = "hold",
    seed: int | None = None,
    ticks_per_batch: int = 60,
    node_indices: np.ndarray | None = None,
) -> PathologyOutcome:
    """Inject a pathology, recover, detect, and audit the widened label.

    Pure function of its arguments, like
    :func:`repro.faults.chaos.run_chaos`.  Differences from the
    independent-fault harness:

    * the per-cell **stuck detector is disabled** — a duty-cycled
      meter's held readings are exact repeats by construction, and
      flagging them per cell would double-count what the ledger already
      records as aliasing; the stream-level
      :class:`~repro.faults.detectors.AliasingDetector` owns repeat
      structure instead (pathology scenarios therefore never stack
      ``StuckAtLastValue``);
    * the :class:`~repro.faults.quality.QualityReport` is widened with
      the exact correlated bias terms from the injection ledger, and
      the audit checks both that the widened bounds hold and (for
      real pathologies) that the unwidened bounds would not;
    * the delivered stream also feeds the
      :class:`~repro.faults.detectors.CorrelatedDetectors`, and the
      verdict rides along in the outcome;
    * when the pathology is pure (no missing cells), the Level 1–3
      gaming deltas and the Table 5 sampling cost are computed on the
      delivered matrix.
    """
    t0_s, t1_s = run.core_window
    clean_mean_w, clean_cv = clean_truth(
        run.node_power_matrix(t0_s, t1_s, node_indices)[1]
    )
    injection, _, report = _inject_and_recover(
        run,
        scenario.plan(seed),
        seed=seed,
        ticks_per_batch=ticks_per_batch,
        node_indices=node_indices,
        gap_policy=gap_policy,
        stuck_min_repeats=10**9,
    )
    common_bias_w, spread_sigma_w, correlated_models = _bias_terms(injection)
    if correlated_models:
        report = replace(
            report,
            correlated_bias_w=common_bias_w,
            correlated_cv_extra=(
                spread_sigma_w / report.fleet_mean_w
                if report.fleet_mean_w > 0
                else 0.0
            ),
            correlated_models=correlated_models,
        )
    ledger = injection.ledger
    bias_matrix_sum_w = float(injection.bias_w.sum())
    ledger_bias_sum_w = (
        ledger.aliasing_bias_w_sum
        + ledger.entropy_bias_w_sum
        + ledger.spread_bias_w_sum
    )
    scale_w = max(abs(bias_matrix_sum_w), abs(ledger_bias_sum_w), 1.0)
    reconciliation = {
        "missing": report.samples_missing
        == int(injection.missing_mask.sum()),
        "spiked": report.samples_spiked
        == int(injection.spike_mask.sum()),
        "stuck_detector_idle": report.samples_stuck == 0,
        "never_arrived": report.samples_never_arrived
        == ledger.samples_truncated,
        "repairs": report.samples_repaired
        == report.samples_missing + report.samples_flagged,
        "aliased_cells": ledger.samples_aliased
        == int(injection.aliased_mask.sum()),
        "bias_ledger_matches_matrix": (
            abs(bias_matrix_sum_w - ledger_bias_sum_w) / scale_w <= 1e-9
        ),
        "quarantine_covers_lost": set(ledger.nodes_lost)
        <= set(report.nodes_quarantined),
    }
    detectors = CorrelatedDetectors(
        segment_ticks=max(2, scenario.entropy_segment_ticks)
    )
    for batch in injection.batches(ticks_per_batch):
        detectors.observe(batch)
    gaming = None
    cost = None
    if not injection.missing_mask.any():
        gaming = gaming_assessment(
            injection.times, injection.watts, clean_mean_w
        )
        cost = sampling_cost(
            cv_clean=clean_cv,
            cv_delivered=report.node_cv,
            bias_frac=(
                abs(report.fleet_mean_w - clean_mean_w) / clean_mean_w
            ),
        )
    return PathologyOutcome(
        scenario=scenario,
        gap_policy=gap_policy,
        seed=seed,
        clean_fleet_mean_w=clean_mean_w,
        clean_node_cv=clean_cv,
        report=report,
        ledger_dict=ledger.to_dict(),
        reconciliation=reconciliation,
        detection=detectors.verdict(),
        gaming=gaming,
        cost=cost,
    )

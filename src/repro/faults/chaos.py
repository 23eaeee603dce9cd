"""Chaos harness: inject faults end-to-end and audit the recovery.

:func:`run_chaos` wires the whole degraded pipeline together — fault a
simulated run (:mod:`repro.faults.models`), stream it through the
self-healing ingest (:mod:`repro.faults.recovery`), and then put the
result on trial twice:

* **reconciliation** — the emitted
  :class:`~repro.faults.quality.QualityReport` must account for every
  injected fault *exactly*: detected-missing equals injected-missing
  on the cells that arrived, detected-stuck equals injected-stuck,
  and so on, category by category against the injector's
  :class:`~repro.faults.models.FaultLedger`.
* **bounds** — the degraded fleet mean and node σ/μ must sit within
  the error bounds the report itself states, measured against the
  fault-free ground truth of the same run.

Everything is a pure function of ``(run, scenario, seed)``; the
X-FAULT experiment and the ``repro chaos`` CLI are thin shells over
:func:`run_chaos`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.faults.models import (
    BurstDropout,
    ClockDrift,
    ClockJitter,
    FaultInjection,
    FaultLedger,
    FaultModel,
    FaultPlan,
    NodeLoss,
    SampleDropout,
    SpikeGlitch,
    StuckAtLastValue,
    TruncatedTail,
    inject_run,
)
from repro.faults.quality import QualityReport
from repro.faults.recovery import (
    FlakySource,
    RecoveryPipeline,
    RetryingSource,
    RetryPolicy,
)
from repro.stream.ingest import SimClock

__all__ = [
    "AuditOutcome",
    "ChaosScenario",
    "ChaosOutcome",
    "clean_truth",
    "run_chaos",
]


@dataclass(frozen=True)
class ChaosScenario:
    """A named bundle of fault intensities (all default to off)."""

    name: str = "chaos"
    dropout_rate: float = 0.0
    burst_rate: float = 0.0
    burst_mean_ticks: float = 5.0
    stuck_rate: float = 0.0
    stuck_mean_ticks: float = 4.0
    spike_rate: float = 0.0
    spike_factor: float = 8.0
    jitter_sd_s: float = 0.0
    drift_frac: float = 0.0
    node_loss: int = 0
    node_loss_at_frac: float = 0.5
    truncate_frac: float = 0.0
    delivery_failure_rate: float = 0.0

    def models(self) -> list[FaultModel]:
        """The matrix-level fault models this scenario switches on."""
        out: list[FaultModel] = []
        if self.truncate_frac > 0:
            out.append(TruncatedTail(frac=self.truncate_frac))
        if self.drift_frac != 0:
            out.append(ClockDrift(drift_frac=self.drift_frac))
        if self.jitter_sd_s > 0:
            out.append(ClockJitter(sd_s=self.jitter_sd_s))
        if self.stuck_rate > 0:
            out.append(
                StuckAtLastValue(
                    rate=self.stuck_rate, mean_ticks=self.stuck_mean_ticks
                )
            )
        if self.spike_rate > 0:
            out.append(
                SpikeGlitch(rate=self.spike_rate, factor=self.spike_factor)
            )
        if self.node_loss > 0:
            out.append(
                NodeLoss(count=self.node_loss, at_frac=self.node_loss_at_frac)
            )
        if self.burst_rate > 0:
            out.append(
                BurstDropout(
                    rate=self.burst_rate, mean_ticks=self.burst_mean_ticks
                )
            )
        if self.dropout_rate > 0:
            out.append(SampleDropout(rate=self.dropout_rate))
        return out

    def plan(self, seed: int | None) -> FaultPlan:
        """Canonical seeded fault plan for this scenario."""
        return FaultPlan.canonical(self.models(), seed)


@dataclass(frozen=True, kw_only=True)
class AuditOutcome:
    """The verdict every chaos harness renders, whatever it broke.

    Degraded estimates in ``report`` are judged twice: against the
    clean truth of the same run (each error must sit inside the bound
    the report itself states) and against the injected faults
    (``reconciliation``: named exact-accounting checks).  The sample,
    wire and pathology harnesses subclass it with their own provenance.
    """

    clean_fleet_mean_w: float
    clean_node_cv: float
    report: QualityReport
    reconciliation: dict = field(default_factory=dict)

    #: Slack for comparing errors against a stated bound of 0.0: a
    #: fault-free run's running-sum statistics differ from the direct
    #: numpy truth in the last bit or two.
    _BOUND_EPS = 1e-12

    @property
    def rel_err_fleet_mean(self) -> float:
        """|degraded − clean| / clean for the fleet-mean estimate."""
        return abs(
            self.report.fleet_mean_w - self.clean_fleet_mean_w
        ) / self.clean_fleet_mean_w

    @property
    def rel_err_node_cv(self) -> float:
        """|degraded − clean| / clean for the node σ/μ estimate.

        Infinite when the clean σ/μ is not positive: no relative error
        is defined, and none can sit inside a finite bound.
        """
        if self.clean_node_cv <= 0:
            return math.inf
        return abs(
            self.report.node_cv - self.clean_node_cv
        ) / self.clean_node_cv

    @property
    def mean_within_bound(self) -> bool:
        """Does the fleet-mean error sit inside the stated bound?"""
        bound = self.report.error_bound_fleet_mean()
        return self.rel_err_fleet_mean <= bound + self._BOUND_EPS

    @property
    def cv_within_bound(self) -> bool:
        """Does the σ/μ error sit inside the stated bound?"""
        bound = self.report.error_bound_node_cv()
        return self.rel_err_node_cv <= bound + self._BOUND_EPS

    @property
    def reconciled(self) -> bool:
        """Did every exact-accounting check pass?"""
        return all(self.reconciliation.values())

    def ok(self) -> bool:
        """Reconciled *and* within both stated bounds."""
        return (
            self.reconciled and self.mean_within_bound and self.cv_within_bound
        )

    def _audit_rows(self) -> dict:
        """The verdict rows every outcome's ``to_dict`` carries."""
        return {
            "clean_fleet_mean_w": self.clean_fleet_mean_w,
            "clean_node_cv": self.clean_node_cv,
            "rel_err_fleet_mean": self.rel_err_fleet_mean,
            "rel_err_node_cv": self.rel_err_node_cv,
            "mean_within_bound": self.mean_within_bound,
            "cv_within_bound": self.cv_within_bound,
            "reconciliation": dict(self.reconciliation),
        }

    def _audit_lines(self) -> list[str]:
        """Fleet-mean, node σ/μ and reconciliation verdict lines."""
        bound_mean = self.report.error_bound_fleet_mean()
        bound_cv = self.report.error_bound_node_cv()
        return [
            f"  fleet mean    {self.report.fleet_mean_w:.2f} W degraded "
            f"vs {self.clean_fleet_mean_w:.2f} W clean "
            f"(err {100 * self.rel_err_fleet_mean:.3f}% <= "
            f"bound {100 * bound_mean:.3f}%: "
            f"{'ok' if self.mean_within_bound else 'VIOLATED'})",
            f"  node sigma/mu {100 * self.report.node_cv:.3f}% degraded "
            f"vs {100 * self.clean_node_cv:.3f}% clean "
            f"(err {100 * self.rel_err_node_cv:.3f}% <= "
            f"bound {100 * bound_cv:.3f}%: "
            f"{'ok' if self.cv_within_bound else 'VIOLATED'})",
            f"  reconciliation {'exact' if self.reconciled else 'FAILED'} ("
            + ", ".join(
                f"{k}={'ok' if v else 'FAIL'}"
                for k, v in self.reconciliation.items()
            )
            + ")",
        ]


@dataclass(frozen=True)
class ChaosOutcome(AuditOutcome):
    """One chaos trial: degraded estimates, label, and both verdicts."""

    scenario: ChaosScenario
    gap_policy: str
    seed: int | None
    ledger: FaultLedger
    retries: int = 0
    batches_abandoned: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "scenario": self.scenario.name,
            "gap_policy": self.gap_policy,
            "seed": self.seed,
            **self._audit_rows(),
            "retries": self.retries,
            "batches_abandoned": self.batches_abandoned,
            "report": self.report.to_dict(),
            "ledger": self.ledger.to_dict(),
        }

    def lines(self) -> list[str]:
        """Human-readable verdict block."""
        return [
            f"scenario {self.scenario.name} (policy={self.gap_policy})",
            *self._audit_lines(),
            *("  " + line for line in self.report.lines()),
        ]


def clean_truth(watts: np.ndarray) -> tuple[float, float]:
    """Fleet mean and node σ/μ of a fault-free ``(ticks, nodes)`` matrix."""
    node_means = watts.mean(axis=0)
    fleet_mean_w = float(node_means.mean())
    node_cv = float(node_means.std(ddof=1)) / fleet_mean_w
    return fleet_mean_w, node_cv


def _inject_and_recover(
    run,
    plan: FaultPlan,
    *,
    seed: int | None,
    ticks_per_batch: int,
    node_indices: np.ndarray | None,
    retry_policy: RetryPolicy | None = None,
    delivery_failure_rate: float = 0.0,
    delivery_label: str = "",
    **pipeline_options,
) -> tuple[FaultInjection, RetryingSource, QualityReport]:
    """Inject ``plan``, stream the result through recovery, finalize.

    The step every matrix-fault harness shares: the faulted batches
    (optionally behind a :class:`FlakySource`) pass through a
    :class:`RetryingSource` into a :class:`RecoveryPipeline` built from
    ``pipeline_options``.
    """
    injection = inject_run(run, plan, node_indices=node_indices)
    batches = injection.batches(ticks_per_batch)
    if delivery_failure_rate > 0:
        batches = FlakySource(
            batches,
            failure_rate=delivery_failure_rate,
            seed=seed,
            label=delivery_label,
        )
    source = RetryingSource(
        batches, clock=SimClock(run.dt), policy=retry_policy, seed=seed
    )
    pipeline = RecoveryPipeline(**pipeline_options)
    for batch in source:
        pipeline.observe(batch)
    report = pipeline.finalize(
        expected_ticks=injection.ledger.n_ticks_planned,
        batches_retried=source.retries,
        batches_abandoned=source.batches_abandoned,
    )
    return injection, source, report


def run_chaos(
    run,
    scenario: ChaosScenario,
    *,
    gap_policy: str = "hold",
    seed: int | None = None,
    ticks_per_batch: int = 60,
    node_indices: np.ndarray | None = None,
    original_level: int = 2,
    retry_policy: RetryPolicy | None = None,
) -> ChaosOutcome:
    """Inject ``scenario`` into ``run``, recover, and audit the label.

    Pure function of its arguments: the same ``(run, scenario, seed)``
    produces a bit-identical :class:`ChaosOutcome` on every call.
    """
    t0_s, t1_s = run.core_window
    clean_mean_w, clean_cv = clean_truth(
        run.node_power_matrix(t0_s, t1_s, node_indices)[1]
    )
    injection, source, report = _inject_and_recover(
        run,
        scenario.plan(seed),
        seed=seed,
        ticks_per_batch=ticks_per_batch,
        node_indices=node_indices,
        retry_policy=retry_policy,
        delivery_failure_rate=scenario.delivery_failure_rate,
        delivery_label=f"chaos:{scenario.name}:delivery",
        gap_policy=gap_policy,
        original_level=original_level,
    )
    # Which delivered ticks actually arrived (abandoned batches never
    # reached the pipeline)?  Needed to reconcile exactly: the report
    # can only account for faults on cells it was shown.
    arrived = np.ones(injection.n_ticks, dtype=bool)
    for batch in source.abandoned:
        lo = int(np.searchsorted(injection.times, batch.t0_s))
        arrived[lo: lo + batch.n_ticks] = False
    ledger = injection.ledger
    reconciliation = {
        "missing": report.samples_missing
        == int(injection.missing_mask[arrived].sum()),
        "stuck": report.samples_stuck
        == int(injection.stuck_mask[arrived].sum()),
        "spiked": report.samples_spiked
        == int(injection.spike_mask[arrived].sum()),
        "never_arrived": report.samples_never_arrived
        == ledger.samples_truncated + source.samples_abandoned,
        "repairs": report.samples_repaired
        == report.samples_missing + report.samples_flagged,
        "quarantine_covers_lost": set(ledger.nodes_lost)
        <= set(report.nodes_quarantined),
    }
    return ChaosOutcome(
        scenario=scenario,
        gap_policy=gap_policy,
        seed=seed,
        clean_fleet_mean_w=clean_mean_w,
        clean_node_cv=clean_cv,
        report=report,
        ledger=ledger,
        reconciliation=reconciliation,
        retries=source.retries,
        batches_abandoned=source.batches_abandoned,
    )


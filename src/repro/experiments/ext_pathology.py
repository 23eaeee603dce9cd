"""Extension X-PATH — correlated meter pathologies, audited end to end.

X-FAULT certified the recovery pipeline against *independent* faults;
this experiment runs the correlated pathologies the related literature
says real fleets actually have — duty-cycled aliasing meters,
input-entropy-dependent power, per-accelerator efficiency spread
(:mod:`repro.faults.pathology`) — and audits four claims per
pathology × intensity cell:

* **honest labels** — the injector's ledger reconciles exactly (bias
  included, to float summation order) and both degraded estimates sit
  inside the *correlation-widened* QualityReport bounds, while the
  pre-pathology independence-assuming bounds are demonstrably violated.
* **detection** — the stream-level correlated-excursion detectors
  (:mod:`repro.faults.detectors`) flag exactly the pathology present
  and stay quiet on the clean run.
* **gaming** — what the paper's Level 1–3 reporting rules let a
  strategic submitter shave off the reported per-node power, as a
  *delta* against the same adversary on the clean stream: how much
  extra shaving the meter pathology itself donates.
* **sampling cost** — the Eq. 1–5 / Table 5 required-sample multiplier
  at the delivered node CV, and whether extra sampling can restore the
  λ = 1% verdict at all (a correlated bias above λ cannot be sampled
  away).

Plus the identity contract (an all-off pathology is bit-identical to
the clean path), a *stacked* run (all three pathologies + dropout +
spikes in one plan, still exactly reconciled), and bit-identical
replay, which is what admits X-PATH to the golden contract and the
parallel runner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import Table
from repro.cluster.registry import get_trace_setup
from repro.experiments.base import Comparison, ExperimentResult
from repro.faults.models import FaultPlan, inject_run
from repro.faults.pathology import (
    AliasingMeter,
    DeviceSpreadModel,
    EntropyPowerModel,
    PathologyOutcome,
    PathologyScenario,
    run_pathology,
    standard_scenarios,
)
from repro.traces.synth import simulate_run
from repro.workloads.hpl import HplWorkload

__all__ = ["PathologyResult", "run"]

#: Pathology kinds in the grid, each run at both intensities.
_KINDS = ("aliasing", "entropy", "spread")

#: Which detector verdict is expected to fire for each pathology kind.
_EXPECTED_DETECTOR = {
    "aliasing": "aliasing",
    "entropy": "entropy",
    "spread": "offset",
}


def _detector_flag(outcome: PathologyOutcome, which: str) -> bool:
    return bool(getattr(outcome.detection, which).suspected)


@dataclass
class PathologyResult(ExperimentResult):
    """Grid of correlated-pathology audits plus the clean baseline."""

    #: cell name (``kind-intensity``) → outcome, in grid order.
    cells: dict[str, PathologyOutcome]
    #: Pathology-free baseline (gaming/cost reference, detector control).
    clean: PathologyOutcome
    #: All three pathologies + dropout + spikes in one stacked plan.
    stacked: PathologyOutcome
    #: All-off pathology scenario replays the clean path bit-for-bit.
    identity_matches_clean: bool
    #: Whether two full grid-cell executions agreed bit-for-bit.
    deterministic: bool

    experiment_id = "X-PATH"
    artifact = "correlated meter-pathology audit (extension)"

    def gaming_delta_w(self, name: str, level: int) -> float:
        """Extra watts/node shaved at ``level`` vs the clean adversary."""
        cell = self.cells[name]
        if cell.gaming is None or self.clean.gaming is None:
            return float("nan")
        return cell.gaming.shave_w(level) - self.clean.gaming.shave_w(level)

    def comparisons(self) -> list[Comparison]:
        out = []
        for name, cell in self.cells.items():
            kind = name.split("-")[0]
            out.append(
                Comparison(
                    label=f"[{name}] ledger reconciliation exact",
                    paper=1.0,
                    measured=float(cell.reconciled),
                    abs_tol=0.0,
                )
            )
            out.append(
                Comparison(
                    label=f"[{name}] fleet-mean error within widened bound",
                    paper=cell.report.error_bound_fleet_mean(),
                    measured=cell.rel_err_fleet_mean,
                    mode="at_most",
                    abs_tol=1e-9,
                )
            )
            out.append(
                Comparison(
                    label=f"[{name}] sigma/mu error within widened bound",
                    paper=cell.report.error_bound_node_cv(),
                    measured=cell.rel_err_node_cv,
                    mode="at_most",
                    abs_tol=1e-9,
                )
            )
            out.append(
                Comparison(
                    label=f"[{name}] independence-only bound violated",
                    paper=1.0,
                    measured=float(cell.independent_bound_mean_violated),
                    abs_tol=0.0,
                )
            )
            out.append(
                Comparison(
                    label=f"[{name}] matching detector fires",
                    paper=1.0,
                    measured=float(
                        _detector_flag(cell, _EXPECTED_DETECTOR[kind])
                    ),
                    abs_tol=0.0,
                )
            )
            out.append(
                Comparison(
                    label=f"[{name}] gaming delta emitted (finite)",
                    paper=1.0,
                    measured=float(
                        all(
                            np.isfinite(self.gaming_delta_w(name, level))
                            for level in (1, 2, 3)
                        )
                    ),
                    abs_tol=0.0,
                )
            )
            out.append(
                Comparison(
                    label=f"[{name}] required-sample multiplier >= 1",
                    paper=1.0,
                    measured=(
                        float("nan")
                        if cell.cost is None
                        else cell.cost.multiplier
                    ),
                    mode="at_least",
                )
            )
        out.append(
            Comparison(
                label="clean: detectors stay quiet",
                paper=1.0,
                measured=float(not self.clean.detection.any_suspected),
                abs_tol=0.0,
            )
        )
        out.append(
            Comparison(
                label="clean: report still carries independence note",
                paper=1.0,
                measured=float(
                    self.clean.report.INDEPENDENCE_NOTE
                    in self.clean.report.stated_notes
                ),
                abs_tol=0.0,
            )
        )
        out.append(
            Comparison(
                label="clean: L1 gaming shave >= L2 >= L3",
                paper=1.0,
                measured=float(
                    self.clean.gaming is not None
                    and self.clean.gaming.shave_w(1)
                    >= self.clean.gaming.shave_w(2)
                    >= self.clean.gaming.shave_w(3)
                ),
                abs_tol=0.0,
            )
        )
        spread_high = self.cells["spread-high"]
        out.append(
            Comparison(
                label="spread-high: bias not restorable by extra sampling",
                paper=0.0,
                measured=float(
                    spread_high.cost is not None
                    and spread_high.cost.restorable
                ),
                abs_tol=0.0,
            )
        )
        out.append(
            Comparison(
                label="spread-high: sample multiplier exceeds 2x Table 5",
                paper=2.0,
                measured=(
                    0.0
                    if spread_high.cost is None
                    else spread_high.cost.multiplier
                ),
                mode="at_least",
            )
        )
        out.append(
            Comparison(
                label="stacked: pathology + dropout + spikes reconcile",
                paper=1.0,
                measured=float(self.stacked.reconciled),
                abs_tol=0.0,
            )
        )
        out.append(
            Comparison(
                label="stacked: errors within widened bounds",
                paper=1.0,
                measured=float(
                    self.stacked.mean_within_bound
                    and self.stacked.cv_within_bound
                ),
                abs_tol=0.0,
            )
        )
        out.append(
            Comparison(
                label="identity: all-off pathology is bit-identical",
                paper=1.0,
                measured=float(self.identity_matches_clean),
                abs_tol=0.0,
            )
        )
        out.append(
            Comparison(
                label="replayed pathology grid is bit-identical",
                paper=1.0,
                measured=float(self.deterministic),
                abs_tol=0.0,
            )
        )
        return out

    def report(self) -> str:
        lines = [
            "X-PATH — correlated meter pathologies: detection, gaming, "
            "sampling cost",
            "",
        ]
        table = Table(
            [
                "cell",
                "mean err",
                "widened bound",
                "indep. bound",
                "detector",
                "dL1 W",
                "dL2 W",
                "dL3 W",
                "n mult",
                "restorable",
            ],
            title="pathology grid (errors vs clean truth; gaming deltas "
            "vs clean adversary, W/node)",
        )
        for name, cell in self.cells.items():
            kind = name.split("-")[0]
            fired = _detector_flag(cell, _EXPECTED_DETECTOR[kind])
            table.add_row(
                [
                    name,
                    f"{cell.rel_err_fleet_mean:.3%}",
                    f"{cell.report.error_bound_fleet_mean():.3%}",
                    "violated"
                    if cell.independent_bound_mean_violated
                    else "held",
                    _EXPECTED_DETECTOR[kind] if fired else "MISSED",
                    f"{self.gaming_delta_w(name, 1):+.2f}",
                    f"{self.gaming_delta_w(name, 2):+.2f}",
                    f"{self.gaming_delta_w(name, 3):+.2f}",
                    "-"
                    if cell.cost is None
                    else f"x{cell.cost.multiplier:.2f}",
                    "-"
                    if cell.cost is None
                    else ("yes" if cell.cost.restorable else "NO"),
                ]
            )
        lines.append(table.render())
        lines.append("")
        if self.clean.gaming is not None:
            gm = self.clean.gaming
            lines.append(
                "clean adversary baseline: "
                + ", ".join(
                    f"L{level} shave {gm.shave_w(level):+.2f} W/node "
                    f"({gm.subset_nodes[level]} nodes)"
                    for level in sorted(gm.reported_w)
                )
            )
        lines.append(
            "stacked (spread+entropy+aliasing+dropout+spikes): "
            f"reconciled={self.stacked.reconciled}, "
            f"mean err {self.stacked.rel_err_fleet_mean:.3%} <= "
            f"bound {self.stacked.report.error_bound_fleet_mean():.3%}"
        )
        lines.append(
            f"identity (all-off == clean): {self.identity_matches_clean}"
        )
        lines.append(f"bit-identical replay: {self.deterministic}")
        lines.append("")
        lines.extend(self.cells["aliasing-high"].lines())
        return "\n".join(lines)


def run(
    *,
    system_name: str = "l-csc",
    dt_s: float = 2.0,
    core_s: float = 900.0,
    seed: int = 2025,
    n_nodes: int = 24,
) -> PathologyResult:
    """Audit the correlated-pathology subsystem end to end.

    Parameters
    ----------
    system_name:
        Trace-registry system whose node model is degraded.
    dt_s / core_s:
        Sample spacing and core-phase length of the simulated GPU HPL
        run (in-core ρ, pronounced tail-off — a trending trace, so the
        duty-cycled meter produces real beat bias).
    seed:
        Root seed for the run, every pathology plan and the detectors.
    n_nodes:
        Fleet slice size (keeps the 6-cell grid tractable).
    """
    system, _ = get_trace_setup(system_name)
    workload = HplWorkload.gpu_in_core(core_s=core_s)
    sim = simulate_run(system, workload, dt=dt_s, seed=seed)
    nodes = np.arange(n_nodes)

    def one(scenario: PathologyScenario) -> PathologyOutcome:
        return run_pathology(sim, scenario, seed=seed, node_indices=nodes)

    cells: dict[str, PathologyOutcome] = {}
    for intensity in ("low", "high"):
        for scenario in standard_scenarios(_KINDS, intensity=intensity):
            cells[scenario.name] = one(scenario)

    clean = one(PathologyScenario(name="clean"))

    # Identity contract: the *models themselves* at their identity
    # settings (duty 1.0, zero amplitude, zero spread) must pass the
    # matrix through bit-for-bit — not merely be skipped by the
    # scenario builder.
    t0_s, t1_s = sim.core_window
    times, watts = sim.node_power_matrix(t0_s, t1_s, nodes)
    identity_plan = FaultPlan.canonical(
        [
            AliasingMeter(period_ticks=10, duty_frac=1.0),
            EntropyPowerModel(amplitude_w=0.0),
            DeviceSpreadModel(spread_frac=0.0),
        ],
        seed,
    )
    identity = inject_run(sim, identity_plan, node_indices=nodes)
    identity_matches_clean = bool(
        np.array_equal(identity.watts, watts)
        and np.array_equal(identity.times, times)
        and not np.abs(identity.bias_w).any()
        and not identity.ledger.any_correlated
    )

    stacked = one(
        PathologyScenario(
            name="stacked",
            aliasing_period_ticks=10,
            aliasing_duty_frac=0.6,
            entropy_amplitude_w=20.0,
            entropy_segment_ticks=30,
            spread_frac=0.02,
            dropout_rate=0.02,
            spike_rate=0.005,
        )
    )

    replay = one(standard_scenarios(("aliasing",), intensity="high")[0])
    deterministic = replay.to_dict() == cells["aliasing-high"].to_dict()

    return PathologyResult(
        cells=cells,
        clean=clean,
        stacked=stacked,
        identity_matches_clean=identity_matches_clean,
        deterministic=deterministic,
    )

"""Experiment F3 — paper Figure 3: confidence-interval coverage.

Runs the bootstrap calibration study on a 516-node pilot drawn from the
(simulated) LRZ fleet — matching the paper's "pilot sample of 516 nodes
of the LRZ supercomputer" — with 80/95/99% intervals, a range of sample
sizes, and (by default) 100 000 replicates per point.

The paper's findings, asserted here:

* the procedure is well calibrated "even as low as n = 5";
* "for any sample of size n ≥ 3, violations of the normality assumption
  don't cause miscalibration of 80%, 95%, or 99% confidence intervals".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table
from repro.cluster.registry import get_system, workload_utilisation
from repro.core.coverage import CoverageResult, coverage_study
from repro.experiments.base import Comparison, ExperimentResult
from repro.rng import stream

__all__ = ["Figure3Result", "run", "run_all_systems", "PILOT_SIZE"]

#: Figure 3's caption: a pilot of 516 LRZ nodes.
PILOT_SIZE = 516


@dataclass
class Figure3Result(ExperimentResult):
    """Coverage curves for one system's pilot."""

    coverage: CoverageResult
    pilot_size: int

    experiment_id = "F3"
    artifact = "Figure 3"

    #: Calibration tolerance: empirical coverage within ±1.5 points of
    #: nominal at every (level, n) — generous vs the Monte-Carlo SE but
    #: strict vs real miscalibration (z at n=5 misses 95% by ~5 points).
    TOLERANCE = 0.015

    def comparisons(self) -> list[Comparison]:
        out = []
        for i, conf in enumerate(self.coverage.confidences):
            for j, n in enumerate(self.coverage.sample_sizes):
                out.append(
                    Comparison(
                        label=f"coverage of {conf:.0%} CI at n={n}",
                        paper=conf,
                        measured=float(self.coverage.coverage[i, j]),
                        rel_tol=0.0,
                        abs_tol=self.TOLERANCE,
                    )
                )
        out.append(
            Comparison(
                label="max |empirical - nominal| across all points",
                paper=self.TOLERANCE,
                measured=self.coverage.max_miscalibration(),
                mode="at_most",
            )
        )
        return out

    def report(self) -> str:
        table = Table(
            ["n", *[f"{c:.0%} CI" for c in self.coverage.confidences]],
            title=(
                f"Figure 3 — CI coverage, {self.coverage.system} pilot of "
                f"{self.pilot_size} nodes, N={self.coverage.population}, "
                f"{self.coverage.n_sims} sims/point ({self.coverage.method}-"
                "intervals)"
            ),
        )
        for j, n in enumerate(self.coverage.sample_sizes):
            table.add_row(
                [n, *[f"{self.coverage.coverage[i, j]:.4f}"
                      for i in range(len(self.coverage.confidences))]]
            )
        lines = [table.render(), ""]
        from repro.analysis.ascii_plot import multi_line_plot
        import numpy as np

        ns = np.asarray(self.coverage.sample_sizes, dtype=float)
        curves = {
            f"{c:.0%} empirical": self.coverage.coverage[i]
            for i, c in enumerate(self.coverage.confidences)
        }
        lines.append(
            multi_line_plot(
                ns, curves, height=12,
                title="empirical coverage vs sample size n "
                      "(targets: the nominal levels)",
            )
        )
        lines.append("")
        lines += self.summary_lines()
        return "\n".join(lines)


def run_all_systems(
    *,
    n_sims: int = 40_000,
    sample_sizes=(5, 10, 20),
    seed: int = 0,
) -> dict:
    """The paper's closing Section 4.2 claim, across every fleet:
    "Simulation studies on the other systems reveal that the normality
    assumption is appropriate for all systems we have tested, with good
    calibration as low as n = 5 on all systems."

    Returns ``{system: CoverageResult}`` for all six node-variability
    fleets; callers assert
    :meth:`~repro.core.coverage.CoverageResult.max_miscalibration`.
    """
    from repro.cluster.registry import NODE_VARIABILITY_SYSTEMS

    out = {}
    for name in NODE_VARIABILITY_SYSTEMS:
        model = get_system(name)
        sample = model.node_sample(workload_utilisation(name))
        rng = stream(seed, f"figure3-all-{name}")
        pilot = sample.random_subset(
            min(PILOT_SIZE, len(sample)), rng
        )
        out[name] = coverage_study(
            pilot.watts,
            population=model.n_nodes,
            sample_sizes=sample_sizes,
            n_sims=n_sims,
            rng=rng,
            system=name,
        )
    return out


def run(
    *,
    system: str = "lrz",
    n_sims: int = 100_000,
    sample_sizes=(3, 5, 10, 15, 20, 30),
    pilot_size: int = PILOT_SIZE,
    method: str = "t",
    seed: int = 0,
) -> Figure3Result:
    """Run the Figure 3 study.

    Parameters
    ----------
    system:
        Which paper system's fleet to draw the pilot from.
    n_sims:
        Replicates per (n, level) point; the paper uses 100 000.
    pilot_size:
        Pilot sample size (516 per the figure caption).
    method:
        ``"t"`` (Eq. 1, the paper's procedure) or ``"z"``.
    """
    model = get_system(system)
    sample = model.node_sample(workload_utilisation(system))
    rng = stream(seed, f"figure3-{system}")
    pilot = sample.random_subset(min(pilot_size, len(sample)), rng)
    result = coverage_study(
        pilot.watts,
        population=model.n_nodes,
        sample_sizes=sample_sizes,
        n_sims=n_sims,
        method=method,
        rng=rng,
        system=system,
    )
    return Figure3Result(coverage=result, pilot_size=len(pilot))

"""Sequential sample-size decisions (paper Eqs. 1–5, evaluated online).

The batch rule sizes a subset up front from an assumed σ/μ
(:mod:`repro.core.sampling`).  Streaming inverts the workflow: nodes
come online one by one, their time-averaged powers accumulate, and the
site wants a *stop signal* — "your subset now supports the requested
accuracy at the requested confidence" — the moment it becomes true.

:class:`SequentialStopper` evaluates the Eq. 1 t-based confidence
interval with the finite-population correction after every update and
stops once the relative half-width reaches the target λ.  With a known
coefficient of variation and the z-quantile (``method="z"``,
``cv_override=...``) the stopping boundary reduces *exactly* to the
Eq. 5 rule, so the sequential procedure reproduces Table 5's node
counts cell for cell — the cross-check
:mod:`repro.experiments.ext_streaming` runs.

:meth:`SequentialStopper.decide` is the decision every stream route
reads: the t-rule over a fold's node means in node order, so it depends
on the means alone, not on how the samples were batched or sharded.

A sequential caveat the docstring must carry: repeatedly testing a 95%
interval and stopping at the first success is an optional-stopping
procedure, so realised coverage at the stopping time is slightly below
nominal.  The paper's two-step pilot plan has the same character; for
site practice the t-quantile's conservatism at small ``n`` is the
compensating margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.core.confidence import ConfidenceInterval, z_quantile
from repro.core.sampling import recommend_sample_size
from repro.stream.estimators import RunningMoments

__all__ = ["StoppingDecision", "SequentialStopper"]


@dataclass(frozen=True)
class StoppingDecision:
    """Outcome of one sequential evaluation.

    Attributes
    ----------
    should_stop:
        Whether the accuracy target is met at this update.
    n_observed:
        Nodes contributing measurements so far.
    achieved_lambda:
        Relative CI half-width at this update (``inf`` before the
        minimum node count).
    projected_n:
        Eq. 5 projection of the total nodes needed, using the current
        σ/μ estimate (the live re-plan a site acts on).
    interval:
        The Eq. 1 interval itself (``None`` before two nodes).
    """

    should_stop: bool
    n_observed: int
    achieved_lambda: float
    projected_n: int
    interval: ConfidenceInterval | None

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "should_stop": self.should_stop,
            "n_observed": self.n_observed,
            "achieved_lambda": self.achieved_lambda,
            "projected_n": self.projected_n,
            "mean_w": None if self.interval is None else self.interval.mean,
            "half_width_w": (
                None if self.interval is None else self.interval.half_width
            ),
        }


class SequentialStopper:
    """Stop a node-sampling campaign once Eq. 1–5 accuracy is reached.

    Parameters
    ----------
    accuracy:
        Target relative half-width λ (the paper's ±1% is 0.01).
    population:
        Fleet size ``N`` for the finite-population correction.
    confidence:
        Nominal CI coverage (default 95%).
    method:
        ``"t"`` (Eq. 1 — the honest small-sample choice) or ``"z"``
        (Eq. 2 — the large-``n`` approximation Table 5 is built from).
    cv_override:
        Evaluate the boundary at this fixed σ/μ instead of the sample
        estimate.  With ``method="z"`` this makes the stopping time a
        deterministic function of ``n`` — exactly Eq. 5.
    min_nodes:
        Never stop before this many nodes (2 is the algebraic floor; 4
        keeps the t-quantile out of its wildest regime).
    """

    def __init__(
        self,
        *,
        accuracy: float,
        population: int,
        confidence: float = 0.95,
        method: str = "t",
        cv_override: float | None = None,
        min_nodes: int = 4,
    ) -> None:
        if not accuracy > 0:
            raise ValueError(f"accuracy must be positive, got {accuracy}")
        if population < 2:
            raise ValueError("population must be >= 2")
        if method not in ("t", "z"):
            raise ValueError(f"method must be 't' or 'z', got {method!r}")
        if cv_override is not None and not cv_override > 0:
            raise ValueError("cv_override must be positive")
        if min_nodes < 2:
            raise ValueError("min_nodes must be >= 2")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        self.accuracy = float(accuracy)
        self.population = int(population)
        self.confidence = float(confidence)
        self.method = method
        self.cv_override = cv_override
        self.min_nodes = int(min_nodes)
        self.node_means = RunningMoments()
        self._stopped_at: int | None = None

    # ------------------------------------------------------------------
    @property
    def n_observed(self) -> int:
        """Nodes contributing so far."""
        return self.node_means.count

    @property
    def stopped_at(self) -> int | None:
        """Node count at the first stop signal (``None`` if not yet)."""
        return self._stopped_at

    @classmethod
    def decide(cls, node_mean_watts, **rule) -> StoppingDecision:
        """The decision of a stopper built from ``rule`` that has taken
        in the node means, in node order.

        The one stopping decision every route reads — a live stream
        state, the telemetry service and the shard engine — so equal
        node means give equal decisions however the samples were
        batched or sharded.  The means are pushed once and the boundary
        is evaluated once, with the bits :meth:`update_many` would give.
        """
        stopper = cls(**rule)
        stopper.node_means.push_batch(stopper._admissible(node_mean_watts))
        return stopper.evaluate()

    def update(self, node_mean_watts: float) -> StoppingDecision:
        """Add one node's time-averaged power and re-evaluate."""
        return self.update_many((node_mean_watts,))

    def update_many(self, node_mean_watts) -> StoppingDecision:
        """Admit several nodes' means in order; returns the final decision.

        The batch is evaluated at once, bit-identical to admitting the
        nodes one at a time: one seeded cumulative sum
        (:meth:`RunningMoments.push_each`) gives every prefix's moments,
        one vectorised quantile call gives every
        prefix's achieved λ (which sets :attr:`stopped_at`), and one
        :meth:`evaluate` builds the returned decision.  A prefix whose
        mean is not positive does not meet the target.  Invalid input —
        a non-finite or negative mean, more nodes than the population —
        raises with the stopper unchanged.
        """
        arr = self._admissible(node_mean_watts)
        counts, means, m2s = self.node_means.push_each(arr)
        ready = (counts >= self.min_nodes) & (means > 0)
        if self._stopped_at is None and ready.any():
            n = counts[ready]
            sd = np.sqrt(m2s[ready] / (n - 1))
            _, _, met = self._boundary(n, means[ready], sd)
            hit = np.flatnonzero(met)
            if hit.size:
                self._stopped_at = int(n[hit[0]])
        return self.evaluate()

    def _admissible(self, node_mean_watts) -> np.ndarray:
        """The means as a flat array, or a ValueError if any is not
        finite and >= 0 or they would overfill the population."""
        arr = np.asarray(node_mean_watts, dtype=float).ravel()
        bad = ~(np.isfinite(arr) & (arr >= 0))
        if bad.any():
            raise ValueError(
                "node mean power must be finite and >= 0, "
                f"got {arr[np.argmax(bad)]}"
            )
        if self.n_observed + arr.size > self.population:
            raise ValueError("more node measurements than the population")
        return arr

    def evaluate(self) -> StoppingDecision:
        """Evaluate the boundary at the current state (no new data).

        Fewer than two nodes, or a mean that is not positive, cannot
        assess accuracy: the target reads as not met, with ``inf`` as
        the achieved λ and no interval.
        """
        n = self.n_observed
        mu = float(np.asarray(self.node_means.mean)) if n else 0.0
        if n < 2 or mu <= 0:
            return StoppingDecision(
                should_stop=False,
                n_observed=n,
                achieved_lambda=float("inf"),
                projected_n=self.population,
                interval=None,
            )
        sd = float(np.asarray(self.node_means.std()))
        cv, achieved, met = self._boundary(n, mu, sd)
        interval = ConfidenceInterval(
            mean=mu,
            half_width=float(achieved * mu),
            confidence=self.confidence,
            method=self.method,
        )
        if cv > 0:
            projected = recommend_sample_size(
                self.population, cv, self.accuracy, self.confidence
            ).n
        else:
            projected = self.min_nodes
        return StoppingDecision(
            should_stop=bool(n >= self.min_nodes and met),
            n_observed=n,
            achieved_lambda=float(achieved),
            projected_n=int(projected),
            interval=interval,
        )

    def scan(self, node_mean_watts) -> int:
        """Admit every node mean in order; return the stopping node count.

        The count is :attr:`stopped_at`, the first node count at which
        the target was met.  Raises if the target is never reached — the
        caller's fleet was too small for the requested accuracy at this
        σ/μ.
        """
        self.update_many(node_mean_watts)
        if self._stopped_at is None:
            raise ValueError(
                f"accuracy {self.accuracy:.3%} not reached after "
                f"{self.n_observed} of {self.population} nodes"
            )
        return self._stopped_at

    def _boundary(self, n, mean, sd):
        """σ/μ, the Eq. 1 relative half-width at ``n`` nodes, and whether
        it meets the target.

        Vectorised: ``n``, ``mean`` and ``sd`` may be per-prefix arrays
        (one quantile call covers them all) or scalars.
        """
        cv = self.cv_override if self.cv_override is not None else sd / mean
        if self.method == "t":
            alpha = 1.0 - self.confidence
            q = special.stdtrit(n - 1, 1.0 - alpha / 2.0)
        else:
            q = z_quantile(self.confidence)
        fpc = np.sqrt((self.population - n) / (self.population - 1.0))
        achieved = q * cv / np.sqrt(n) * fpc
        return cv, achieved, achieved <= self.accuracy + 1e-12


"""Confidence-interval machinery (paper Eqs. 1–2).

Given time-averaged power measurements :math:`X_1, \\ldots, X_n` on a
random node subset, the paper's Equation 1 interval for the true
per-node mean is

.. math::

    \\mathrm{CI} = \\hat\\mu \\pm
        \\frac{t_{n-1,\\,1-\\alpha/2}\\,\\hat\\sigma}{\\sqrt{n}}

with the normal-quantile approximation (Eq. 2) for large ``n``, and an
optional finite-population correction
:math:`\\sqrt{(N - n)/(N - 1)}` when the subset is not small relative
to the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "z_quantile",
    "t_quantile",
    "finite_population_correction",
    "ConfidenceInterval",
    "mean_confidence_interval",
]


def _check_confidence(confidence: float) -> None:
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def z_quantile(confidence: float) -> float:
    """Two-sided standard-normal quantile :math:`z_{1-\\alpha/2}`.

    ``z_quantile(0.95)`` ≈ 1.96.
    """
    _check_confidence(confidence)
    alpha = 1.0 - confidence
    return float(special.ndtri(1.0 - alpha / 2.0))


def t_quantile(confidence: float, dof: int) -> float:
    """Two-sided Student-t quantile :math:`t_{\\nu,\\,1-\\alpha/2}`."""
    _check_confidence(confidence)
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    alpha = 1.0 - confidence
    return float(special.stdtrit(dof, 1.0 - alpha / 2.0))


def finite_population_correction(n: int, population: int) -> float:
    """FPC factor :math:`\\sqrt{(N-n)/(N-1)}` for sampling without
    replacement from a population of ``population`` units."""
    if population < 2:
        raise ValueError("population must be >= 2")
    if not (1 <= n <= population):
        raise ValueError(f"need 1 <= n <= {population}, got n={n}")
    return float(np.sqrt((population - n) / (population - 1.0)))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a mean.

    Attributes
    ----------
    mean:
        Point estimate :math:`\\hat\\mu`.
    half_width:
        Interval half-width in the same units as ``mean``.
    confidence:
        Nominal coverage level, e.g. 0.95.
    method:
        ``"t"`` or ``"z"`` — which quantile built the interval.
    """

    mean: float
    half_width: float
    confidence: float
    method: str = "t"

    def __post_init__(self) -> None:
        _check_confidence(self.confidence)
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")
        if self.method not in ("t", "z"):
            raise ValueError(f"method must be 't' or 'z', got {self.method!r}")

    @property
    def lower(self) -> float:
        """Lower interval bound."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper interval bound."""
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean — the paper's λ."""
        if self.mean == 0:
            raise ValueError("relative half-width undefined for zero mean")
        return self.half_width / abs(self.mean)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper

    def scaled(self, factor: float) -> "ConfidenceInterval":
        """Interval for a linear rescaling of the mean (e.g. ×N nodes)."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        return ConfidenceInterval(
            self.mean * factor, self.half_width * factor, self.confidence,
            self.method,
        )

    def __str__(self) -> str:
        return (
            f"{self.mean:.2f} ± {self.half_width:.2f} "
            f"({self.confidence * 100:.0f}% {self.method}-CI)"
        )


def mean_confidence_interval(
    measurements,
    *,
    confidence: float = 0.95,
    method: str = "t",
    population: int | None = None,
) -> ConfidenceInterval:
    """Confidence interval for the mean of node power measurements.

    Parameters
    ----------
    measurements:
        The subset's time-averaged per-node powers (length >= 2).
    confidence:
        Nominal coverage, default the paper's conventional 95%.
    method:
        ``"t"`` (Eq. 1, exact under normality) or ``"z"`` (Eq. 2, the
        large-``n`` approximation whose under-coverage at small ``n``
        Section 4.2 quantifies).
    population:
        Fleet size ``N``; when given, the half-width is shrunk by the
        finite-population correction (the sampled fraction carries no
        sampling error).
    """
    x = np.asarray(measurements, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least two measurements for an interval")
    if not np.all(np.isfinite(x)):
        raise ValueError("measurements contain non-finite values")
    n = x.size
    mu = float(x.mean())
    sd = float(x.std(ddof=1))
    if method == "t":
        q = t_quantile(confidence, n - 1)
    elif method == "z":
        q = z_quantile(confidence)
    else:
        raise ValueError(f"method must be 't' or 'z', got {method!r}")
    hw = q * sd / np.sqrt(n)
    if population is not None:
        hw *= finite_population_correction(n, population)
    return ConfidenceInterval(mu, float(hw), confidence, method)

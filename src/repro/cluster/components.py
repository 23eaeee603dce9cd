"""Component-level power models.

Each model maps an activity level (and for processors an operating
point) to power in watts.  They follow the standard decomposition used
in the power-modeling literature the paper cites (Fan et al. [6],
Davis et al. [3]):

    P = P_static(leakage, voltage) + P_dynamic(C, f, V, utilisation)

with dynamic power ``C · f · V²`` scaled by utilisation, and static
(leakage) power growing with voltage.  All models are vectorised over
utilisation so a whole run's utilisation trace is evaluated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ComponentPowerModel",
    "CpuModel",
    "GpuModel",
    "DramModel",
    "NicModel",
    "FanModel",
]


def _checked_utilisation(name: str, utilisation):
    """``utilisation`` as floats clipped to ``[0, 1]``; an error beyond
    rounding slack (a 0-d input comes back as an ``np.float64``)."""
    u = np.asarray(utilisation, dtype=float)
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
        raise ValueError(f"{name}: utilisation outside [0, 1]")
    return np.clip(u, 0.0, 1.0)


@dataclass(frozen=True)
class ComponentPowerModel:
    """Base affine component model: ``P = idle + util^gamma · (peak − idle)``.

    ``gamma`` models the mild non-linearity of power vs. utilisation
    observed on real servers (Fan et al. report gamma slightly above 1
    for CPUs; DRAM is close to linear).

    Attributes
    ----------
    name:
        Component label used in reports.
    idle_watts:
        Power at zero utilisation.
    peak_watts:
        Power at full utilisation.
    gamma:
        Utilisation exponent; 1.0 gives the plain linear model.
    """

    name: str
    idle_watts: float
    peak_watts: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.idle_watts < 0:
            raise ValueError(f"{self.name}: idle power must be >= 0")
        if self.peak_watts < self.idle_watts:
            raise ValueError(
                f"{self.name}: peak power {self.peak_watts} below idle "
                f"{self.idle_watts}"
            )
        if self.gamma <= 0:
            raise ValueError(f"{self.name}: gamma must be positive")

    def power(self, utilisation):
        """Power in watts at the given utilisation in ``[0, 1]``.

        Accepts scalars or arrays; out-of-range utilisation is an error
        rather than being clipped, to surface workload-model bugs.
        """
        u = _checked_utilisation(self.name, utilisation)
        p = self.power_of_load(u ** self.gamma)
        return float(p) if np.ndim(utilisation) == 0 else p

    def power_of_load(self, load):
        """Power at ``load = u ** gamma`` (unchecked; broadcasts).

        :meth:`power` is this after its range check.  A caller that
        takes ``u ** gamma`` itself (the fleet grid evaluator in
        :mod:`repro.cluster.system`) shares the formula through it.
        """
        return self.idle_watts + load * (self.peak_watts - self.idle_watts)

    def with_multiplier(self, factor: float) -> "ComponentPowerModel":
        """Scale both idle and peak power — per-unit manufacturing spread."""
        if factor <= 0:
            raise ValueError("multiplier must be positive")
        return replace(
            self,
            idle_watts=self.idle_watts * factor,
            peak_watts=self.peak_watts * factor,
        )


@dataclass(frozen=True)
class _ProcessorModel(ComponentPowerModel):
    """Shared machinery for CPU/GPU models with explicit f/V dependence.

    ``idle_watts``/``peak_watts`` describe the *nominal* operating point
    (``nominal_mhz``, ``nominal_volts``).  :meth:`power_at` rescales the
    dynamic component by ``(f/f0)·(V/V0)²`` and the static component by
    the leakage-voltage law ``(V/V0)^leakage_exponent``, which captures
    the first-order behaviour of sub-threshold leakage without a full
    device model.
    """

    nominal_mhz: float = 2000.0
    nominal_volts: float = 1.0
    leakage_exponent: float = 2.0
    static_fraction: float = 0.3  # share of peak power that is leakage

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nominal_mhz <= 0 or self.nominal_volts <= 0:
            raise ValueError(f"{self.name}: nominal f/V must be positive")
        if not (0.0 <= self.static_fraction < 1.0):
            raise ValueError(f"{self.name}: static_fraction must be in [0, 1)")

    def power_at(self, utilisation, freq_mhz, volts):
        """Power at an arbitrary operating point.

        The nominal-point decomposition is::

            P_static0  = min(static_fraction · peak, idle)
            P_dyn_peak = peak − P_static0
            P_dyn_idle = idle − P_static0

        (static power can never exceed the observed idle power, so the
        static share is capped there; this also makes ``power_at`` at
        the nominal point coincide exactly with :meth:`power`), and each
        piece scales with (f, V) as described in the class docstring.
        All three arguments broadcast together, so a fleet's per-unit
        voltages can be evaluated in one call.
        """
        u = _checked_utilisation(self.name, utilisation)
        p = self.power_of_load_at(u ** self.gamma, freq_mhz, volts)
        scalar = (
            np.ndim(utilisation) == 0
            and np.ndim(freq_mhz) == 0
            and np.ndim(volts) == 0
        )
        return float(p) if scalar else p

    def power_of_load_at(self, load, freq_mhz, volts):
        """:meth:`power_at` with ``load = u ** gamma`` given (broadcasts).

        The operating point is still checked; the utilisation is the
        caller's to check.
        """
        f = np.asarray(freq_mhz, dtype=float)
        v = np.asarray(volts, dtype=float)
        if np.any(f <= 0) or np.any(v <= 0):
            raise ValueError(f"{self.name}: operating point must be positive")
        static0 = min(self.static_fraction * self.peak_watts, self.idle_watts)
        dyn_peak0 = self.peak_watts - static0
        dyn_idle0 = self.idle_watts - static0

        f_ratio = f / self.nominal_mhz
        v_ratio = v / self.nominal_volts
        dyn_scale = f_ratio * v_ratio**2
        static_scale = v_ratio**self.leakage_exponent

        dyn = dyn_idle0 + load * (dyn_peak0 - dyn_idle0)
        return static0 * static_scale + dyn * dyn_scale


@dataclass(frozen=True)
class CpuModel(_ProcessorModel):
    """A CPU socket.  Defaults approximate a ~130 W Xeon E5-class part."""

    name: str = "cpu"
    idle_watts: float = 25.0
    peak_watts: float = 130.0
    gamma: float = 1.1
    nominal_mhz: float = 2700.0
    nominal_volts: float = 1.0


@dataclass(frozen=True)
class GpuModel(_ProcessorModel):
    """A GPU accelerator.  Defaults approximate a ~235 W K20x-class part."""

    name: str = "gpu"
    idle_watts: float = 20.0
    peak_watts: float = 235.0
    gamma: float = 1.0
    nominal_mhz: float = 732.0
    nominal_volts: float = 1.0
    static_fraction: float = 0.25


@dataclass(frozen=True)
class DramModel(ComponentPowerModel):
    """DRAM power: mostly activity-linear with a refresh floor."""

    name: str = "dram"
    idle_watts: float = 4.0
    peak_watts: float = 12.0
    gamma: float = 1.0
    gib: float = 32.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gib <= 0:
            raise ValueError("dram capacity must be positive")

    @staticmethod
    def for_capacity(gib: float, watts_per_gib_idle: float = 0.125,
                     watts_per_gib_peak: float = 0.375) -> "DramModel":
        """Scale the default module model to a node's total capacity."""
        return DramModel(
            idle_watts=gib * watts_per_gib_idle,
            peak_watts=gib * watts_per_gib_peak,
            gib=gib,
        )


@dataclass(frozen=True)
class NicModel(ComponentPowerModel):
    """Network interface: nearly load-invariant (Fan et al.'s constant
    offset for networking components)."""

    name: str = "nic"
    idle_watts: float = 8.0
    peak_watts: float = 10.0
    gamma: float = 1.0


@dataclass(frozen=True)
class FanModel:
    """Node fan bank following the cube-law fan affinity relation.

    ``P(speed) = max_watts · speed³`` for a normalised speed in
    ``[min_speed, 1]``.  The paper's L-CSC case study measured >100 W of
    node-power spread attributable to automatic fan regulation — more
    than the ASIC variability itself — so fans get a first-class model
    rather than being folded into "other".
    """

    name: str = "fans"
    max_watts: float = 120.0
    min_speed: float = 0.3

    def __post_init__(self) -> None:
        if self.max_watts < 0:
            raise ValueError("fan max power must be >= 0")
        if not (0.0 < self.min_speed <= 1.0):
            raise ValueError("min_speed must be in (0, 1]")

    def power(self, speed):
        """Fan power at a normalised speed in ``[min_speed, 1]``."""
        s = np.asarray(speed, dtype=float)
        if np.any(s < self.min_speed - 1e-12) or np.any(s > 1.0 + 1e-12):
            raise ValueError(
                f"fan speed outside [{self.min_speed}, 1]"
            )
        s = np.clip(s, self.min_speed, 1.0)
        p = self.max_watts * s**3
        return float(p) if np.ndim(speed) == 0 else p

"""Fleet-level system model.

A :class:`SystemModel` is a population of nodes of one design, with
per-node manufacturing draws, inlet temperatures and (for GPU systems)
VID assignments held as *arrays* so that whole-fleet power evaluation is
a handful of vectorised expressions rather than ``N`` Python objects.
Sequoia-25's ~98k-node scale evaluates in milliseconds this way.

The affine structure the evaluation exploits::

    node_i(u) = fixed(u) + proc(u) · m_i + fan(it_i, T_i)

where ``m_i`` is node *i*'s aggregate processor multiplier and the fan
term is the only node-level non-linearity (cube-law in a clipped affine
speed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.components import GpuModel
from repro.cluster.node import Node, NodeConfig
from repro.cluster.dvfs import OperatingPoint
from repro.cluster.thermal import FanController, FanPolicy, ThermalEnvironment
from repro.cluster.variability import ManufacturingVariation, VidBinning, assign_vids
from repro.rng import SeededStreams
from repro.traces.nodeset import NodeSample

__all__ = ["SystemModel"]


@dataclass(frozen=True)
class _Fleet:
    """Materialised per-node draws for one system."""

    proc_mean_mult: np.ndarray  # (n_nodes,) mean CPU multiplier per node
    gpu_mults: np.ndarray  # (n_nodes, n_gpus) or (n_nodes, 0)
    gpu_vids: np.ndarray  # (n_nodes, n_gpus) int
    inlet_c: np.ndarray  # (n_nodes,)


class SystemModel:
    """A homogeneous supercomputer of ``n_nodes`` nodes.

    Parameters
    ----------
    name:
        System label (``"LRZ"``, ``"Titan"``...).
    n_nodes:
        Fleet size (the paper's ``N``).
    config:
        The node design.
    variation:
        Process-variation distribution for processors.
    environment:
        Machine-room thermal environment.
    fan_controller:
        Fan regulation policy; defaults to AUTO on ``config.fan``.
    seed:
        Root seed for this system's silicon lottery; fixed per system in
        the registry so Table 4 regenerates identically.
    power_scale:
        Global calibration multiplier applied to every node's power
        (used by the registry to pin the fleet mean to published values).
    """

    def __init__(
        self,
        name: str,
        n_nodes: int,
        config: NodeConfig,
        *,
        variation: ManufacturingVariation | None = None,
        environment: ThermalEnvironment | None = None,
        fan_controller: FanController | None = None,
        vid_binning: VidBinning | None = None,
        shared=None,
        seed: int = 0,
        power_scale: float = 1.0,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if power_scale <= 0:
            raise ValueError("power_scale must be positive")
        self.name = name
        self.n_nodes = int(n_nodes)
        self.config = config
        self.variation = variation or ManufacturingVariation()
        self.environment = environment or ThermalEnvironment()
        self.fan_controller = fan_controller or FanController(fan_model=config.fan)
        self.vid_binning = vid_binning or VidBinning()
        #: Optional :class:`~repro.cluster.shared.SharedInfrastructure`
        #: (interconnect, infrastructure nodes) participating in runs.
        self.shared = shared
        self.seed = int(seed)
        self.power_scale = float(power_scale)
        self._fleet_cache: _Fleet | None = None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        kind = "GPU" if self.config.n_gpus else "CPU"
        return (
            f"SystemModel({self.name!r}, n_nodes={self.n_nodes}, kind={kind}, "
            f"nominal_node={self.config.nominal_it_power(1.0):.0f} W)"
        )

    def _fleet(self) -> _Fleet:
        """Materialise (and memoise) the fleet's per-node draws."""
        if self._fleet_cache is not None:
            return self._fleet_cache
        streams = SeededStreams(self.seed)
        cfg = self.config
        n = self.n_nodes

        if cfg.n_cpus:
            cpu_rng = streams["cpu-variation"]
            cpu_m = self.variation.sample_multipliers(n * cfg.n_cpus, cpu_rng)
            proc_mean = cpu_m.reshape(n, cfg.n_cpus).mean(axis=1)
        else:
            proc_mean = np.zeros(n)

        if cfg.n_gpus:
            gpu_rng = streams["gpu-variation"]
            gpu_m = self.variation.sample_multipliers(n * cfg.n_gpus, gpu_rng)
            gpu_m = gpu_m.reshape(n, cfg.n_gpus)
            vid_rng = streams["vid-assignment"]
            vids = assign_vids(n * cfg.n_gpus, vid_rng, self.vid_binning)
            vids = vids.reshape(n, cfg.n_gpus)
        else:
            gpu_m = np.empty((n, 0))
            vids = np.empty((n, 0), dtype=np.int64)

        inlet = self.environment.sample_inlet_temperatures(
            n, streams["inlet-temperature"]
        )
        self._fleet_cache = _Fleet(proc_mean, gpu_m, vids, inlet)
        return self._fleet_cache

    # ------------------------------------------------------------------
    # fleet power evaluation
    # ------------------------------------------------------------------
    def node_it_powers(
        self,
        utilisation,
        *,
        gpu_point: OperatingPoint | None = None,
        cpu_freq_multiplier: float = 1.0,
        freq_multiplier: float = 1.0,
        indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """IT power of every node, shape ``(N,)``.

        ``utilisation`` is a scalar for balanced workloads (HPL,
        FIRESTARTER, MPrime — everything the paper's Section 4 data
        used) or a per-node array for imbalanced schedules (the Davis
        et al. regime the paper's caveats discuss).  ``indices``
        restricts the evaluation to a node subset (same draws as the
        corresponding full-fleet positions; a per-node utilisation
        array must already be subset-length in that case).

        ``cpu_freq_multiplier`` scales the CPU operating point only;
        ``freq_multiplier`` is machine-wide DVFS — it scales CPUs *and*
        GPUs (frequency and rail voltage tracking linearly), the knob a
        :class:`~repro.cluster.dvfs.DvfsGovernor` drives over a run.
        """
        u = np.asarray(utilisation, dtype=float)
        if u.ndim > 1:
            raise ValueError("utilisation must be a scalar or 1-D array")
        # ``u[()]`` is an np.float64 for a scalar (numpy's scalar pow,
        # which node_total_power_grid matches point by point) and ``u``
        # itself for a per-node array.
        return self._it_powers(
            u,
            lambda gamma: u[()] ** gamma,
            gpu_point=gpu_point,
            cpu_freq_multiplier=cpu_freq_multiplier,
            freq_multiplier=freq_multiplier,
            indices=indices,
        )

    def node_total_powers(
        self, utilisation: float, *, indices: np.ndarray | None = None, **kwargs
    ) -> np.ndarray:
        """IT + fan power of every node (or a subset), shape ``(N,)``."""
        it = self.node_it_powers(utilisation, indices=indices, **kwargs)
        return self._plus_fans(it, indices)

    def node_total_power_grid(
        self, utilisation, *, indices: np.ndarray | None = None, **kwargs
    ) -> np.ndarray:
        """:meth:`node_total_powers` at each point of a 1-D utilisation
        grid, shape ``(k, N)``.

        Row ``g`` equals ``node_total_powers(utilisation[g])`` bit for
        bit.  The grid goes through the same component and fan
        arithmetic as a ``(k, 1)`` column in one broadcast pass, so each
        range check runs once for all ``k`` points.  The one exception
        is ``u ** gamma``, taken per point on ``np.float64`` scalars as
        the one-point path takes it: numpy's array pow can differ from
        its scalar pow in the last ulp (``0.1640625 ** 1.1`` is …346 as
        a scalar and …343 in an array).
        """
        u = np.asarray(utilisation, dtype=float)
        if u.ndim != 1:
            raise ValueError("utilisation grid must be 1-D")
        it = self._it_powers(
            u[:, None],
            lambda gamma: np.array([ui ** gamma for ui in u])[:, None],
            indices=indices,
            **kwargs,
        )
        return self._plus_fans(it, indices)

    def _it_powers(
        self,
        u: np.ndarray,
        load,
        *,
        gpu_point: OperatingPoint | None = None,
        cpu_freq_multiplier: float = 1.0,
        freq_multiplier: float = 1.0,
        indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """IT power at utilisation ``u``: a scalar, a per-node ``(N,)``
        array or a ``(k, 1)`` grid column (giving ``(k, N)``).
        ``load(gamma)`` is ``u ** gamma`` in the shape of ``u``."""
        if freq_multiplier <= 0:
            raise ValueError("freq_multiplier must be positive")
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise ValueError("utilisation must be in [0, 1]")
        cfg = self.config
        fleet = self._fleet()
        if indices is None:
            proc_mult = fleet.proc_mean_mult
            gpu_mults = fleet.gpu_mults
            gpu_vids = fleet.gpu_vids
        else:
            idx = np.asarray(indices, dtype=np.int64)
            proc_mult = fleet.proc_mean_mult[idx]
            gpu_mults = fleet.gpu_mults[idx]
            gpu_vids = fleet.gpu_vids[idx]
        if u.ndim == 1 and u.shape != proc_mult.shape:
            raise ValueError(
                f"per-node utilisation has length {u.size}, fleet "
                f"evaluation covers {proc_mult.size} nodes"
            )

        cpu_mult = cpu_freq_multiplier * freq_multiplier
        cpu_each = cfg.cpu.power_of_load_at(
            load(cfg.cpu.gamma),
            cfg.cpu.nominal_mhz * cpu_mult,
            cfg.cpu.nominal_volts * cpu_mult,
        )
        total = cfg.n_cpus * cpu_each * proc_mult

        if cfg.n_gpus:
            gpu: GpuModel = cfg.gpu
            # A trailing GPU axis on an array load: (N, 1) per node,
            # (k, 1, 1) on a grid; either broadcasts against the
            # (N, n_gpus) multipliers.
            gpu_load = load(gpu.gamma)
            if np.ndim(gpu_load):
                gpu_load = gpu_load[..., None]
            if gpu_point is None:
                volts = (
                    np.asarray(self.vid_binning.voltage_for_vid(gpu_vids))
                    * freq_multiplier
                )
                per_gpu = gpu.power_of_load_at(
                    gpu_load, gpu.nominal_mhz * freq_multiplier, volts
                )
            else:
                per_gpu = gpu.power_of_load_at(
                    gpu_load, gpu_point.freq_mhz, gpu_point.volts
                )
            total = total + (per_gpu * gpu_mults).sum(axis=-1)

        total = total + (
            cfg.dram.power_of_load(load(cfg.dram.gamma))
            + cfg.nic.power_of_load(load(cfg.nic.gamma))
            + cfg.other_watts
        )
        return total * self.power_scale

    def _plus_fans(
        self, it: np.ndarray, indices: np.ndarray | None
    ) -> np.ndarray:
        """IT power ``it`` (last axis: nodes) plus each node's fans."""
        inlet = self._fleet().inlet_c
        if indices is not None:
            inlet = inlet[np.asarray(indices, dtype=np.int64)]
        fans = self.fan_controller.power(it, inlet, self.environment)
        return it + np.asarray(fans, dtype=float)

    def node_sample(
        self,
        utilisation: float = 0.95,
        *,
        schedule=None,
        measurement_noise_cv: float = 0.0,
        rng: np.random.Generator | None = None,
        **kwargs,
    ) -> NodeSample:
        """Time-averaged per-node powers under a workload.

        ``schedule`` (a :class:`~repro.workloads.schedule.LoadSchedule`)
        turns the balanced default into an imbalanced run — the regime
        where the paper warns its normality-based machinery breaks.
        ``measurement_noise_cv`` adds multiplicative Gaussian noise
        modelling per-node meter calibration error (the paper cites
        "standard variance of power measurement equipment of 1–1.5%").
        """
        if schedule is not None:
            if schedule.n_nodes != self.n_nodes:
                raise ValueError(
                    f"schedule covers {schedule.n_nodes} nodes, "
                    f"system has {self.n_nodes}"
                )
            utilisation = schedule.apply(utilisation)
        watts = self.node_total_powers(utilisation, **kwargs)
        if measurement_noise_cv < 0:
            raise ValueError("measurement_noise_cv must be >= 0")
        if measurement_noise_cv > 0:
            if rng is None:
                rng = SeededStreams(self.seed)["meter-noise"]
            watts = watts * (1.0 + measurement_noise_cv * rng.standard_normal(watts.size))
            watts = np.maximum(watts, 0.0)
        return NodeSample(watts, system=self.name)

    def system_power(self, utilisation: float, **kwargs) -> float:
        """True full-system compute power at the given utilisation (W).

        Compute nodes only — shared infrastructure, when present, is
        reported separately (see :attr:`shared` and
        :meth:`total_system_power`).
        """
        return float(self.node_total_powers(utilisation, **kwargs).sum())

    def total_system_power(self, utilisation: float, **kwargs) -> float:
        """Compute power plus shared-subsystem power (W) — the number a
        whole-machine (Level 3) measurement sees."""
        total = self.system_power(utilisation, **kwargs)
        if self.shared is not None:
            total += float(np.asarray(self.shared.power(utilisation)))
        return total

    # ------------------------------------------------------------------
    # individual nodes (for case studies)
    # ------------------------------------------------------------------
    def manufacture_node(self, node_id: int) -> Node:
        """Materialise one node as a full :class:`Node` object.

        Draws are taken from the fleet arrays so the object agrees with
        the vectorised evaluation for the same ``node_id``.
        """
        if not (0 <= node_id < self.n_nodes):
            raise ValueError(f"node_id {node_id} out of range")
        fleet = self._fleet()
        cfg = self.config
        return Node(
            node_id=node_id,
            config=cfg,
            cpu_multipliers=np.full(cfg.n_cpus, fleet.proc_mean_mult[node_id]),
            gpu_multipliers=fleet.gpu_mults[node_id].copy(),
            gpu_vids=fleet.gpu_vids[node_id].copy(),
            inlet_c=float(fleet.inlet_c[node_id]),
            fan_controller=self.fan_controller,
            environment=self.environment,
        )

    # ------------------------------------------------------------------
    # variants
    # ------------------------------------------------------------------
    def with_fan_policy(
        self, policy: FanPolicy, pinned_speed: float | None = None
    ) -> "SystemModel":
        """Copy of the system with a different fan policy.

        Fleet draws are preserved (same seed), so this isolates the fan
        effect — the comparison behind the paper's "pin all fans"
        recommendation.
        """
        if policy is FanPolicy.PINNED:
            ctrl = self.fan_controller.pinned(pinned_speed)
        else:
            ctrl = replace(self.fan_controller, policy=FanPolicy.AUTO)
        return self._copy(fan_controller=ctrl)

    def with_power_scale(self, power_scale: float) -> "SystemModel":
        """Copy with a different global calibration multiplier."""
        return self._copy(power_scale=power_scale)

    def with_variation(self, variation: ManufacturingVariation) -> "SystemModel":
        """Copy with a different process-variation distribution."""
        return self._copy(variation=variation)

    def _copy(self, **overrides) -> "SystemModel":
        kwargs = dict(
            name=self.name,
            n_nodes=self.n_nodes,
            config=self.config,
            variation=self.variation,
            environment=self.environment,
            fan_controller=self.fan_controller,
            vid_binning=self.vid_binning,
            shared=self.shared,
            seed=self.seed,
            power_scale=self.power_scale,
        )
        kwargs.update(overrides)
        name = kwargs.pop("name")
        n_nodes = kwargs.pop("n_nodes")
        config = kwargs.pop("config")
        clone = SystemModel(name, n_nodes, config, **kwargs)
        # The fleet draws depend only on (seed, config, variation,
        # environment, vid_binning); share the materialised fleet when
        # none of those changed (e.g. a pure power_scale or fan-policy
        # change), so calibration loops don't re-roll 100k-node fleets.
        draw_keys = ("config", "variation", "environment", "vid_binning", "seed")
        if not any(k in overrides for k in draw_keys) and n_nodes == self.n_nodes:
            clone._fleet_cache = self._fleet_cache
        return clone

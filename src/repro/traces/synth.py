"""Trace synthesis: system × workload → power time series.

:func:`simulate_run` produces a :class:`SimulatedRun`: the full-system
power trace for a complete benchmark run (setup + core + teardown), the
core-phase window bounds, and on-demand per-subset traces for the
metering layer.

Performance note (the fleets are large): node power under a balanced
workload depends on time only through the scalar utilisation ``u(t)``,
so instead of an ``(n_nodes × n_times)`` evaluation we tabulate the
fleet's (or subset's) total power on a small utilisation grid once and
interpolate.  The summed traces tabulate all G = 129 grid points; the
per-node views (:meth:`SimulatedRun.node_power_matrix`,
:meth:`SimulatedRun.stream_run`) tabulate only the R ≤ G rows that
bracket the requested ticks' utilisations, a handful for an HPL core
phase at 1 Hz — O(n_nodes·R + n_times) instead of
O(n_nodes·n_times).  Rows are tabulated in blocks, each one broadcast
pass of :meth:`~repro.cluster.system.SystemModel.node_total_power_grid`
(see :func:`_grid_blocks`), bit-identical to evaluating point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.rng import SeededStreams
from repro.traces.powertrace import PowerTrace
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.system import SystemModel

__all__ = ["SimulatedRun", "simulate_run"]

_U_GRID = 129  # utilisation-grid resolution for the power interpolant
_GRID_CELLS = 2**16  # grid cells (points × nodes) per broadcast pass


def _grid_blocks(
    system: SystemModel,
    indices: np.ndarray | None,
    freq_multiplier: float,
    u: np.ndarray | None = None,
):
    """Yield ``(g0, block)`` over the utilisation points ``u`` (default:
    the whole grid), where ``block[i]`` is every requested node's total
    power at ``u[g0 + i]``.

    Blocks split the point axis, never the node axis, so each row keeps
    its whole-subset pairwise sum; a fleet of ``_GRID_CELLS`` nodes or
    more gets one row per block.
    """
    if u is None:
        u = np.linspace(0.0, 1.0, _U_GRID)
    n = system.n_nodes if indices is None else len(indices)
    k = max(1, _GRID_CELLS // n)
    for g0 in range(0, u.size, k):
        yield g0, system.node_total_power_grid(
            u[g0:g0 + k], indices=indices, freq_multiplier=freq_multiplier
        )


def _power_curve(
    system: SystemModel,
    indices: np.ndarray | None,
    *,
    freq_multiplier: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate total power of a node subset vs. utilisation.

    Each block's rows are summed as they arrive, so no grid-by-nodes
    array is ever held.
    """
    totals = np.empty(_U_GRID)
    for g0, block in _grid_blocks(system, indices, freq_multiplier):
        totals[g0:g0 + len(block)] = block.sum(axis=1)
    return np.linspace(0.0, 1.0, _U_GRID), totals


def _powers_with_governor(
    system: SystemModel,
    indices: np.ndarray | None,
    util: np.ndarray,
    freq_mult: np.ndarray,
) -> np.ndarray:
    """Evaluate total power over time under a time-varying frequency
    multiplier, via one utilisation→power curve per distinct multiplier.

    Stepped governors have a handful of distinct values; a continuous
    profile would defeat the tabulation, so it is rejected.
    """
    levels = np.unique(freq_mult)
    if levels.size > 32:
        raise ValueError(
            "governor produces too many distinct frequency levels for "
            "tabulated evaluation; use a stepped governor"
        )
    watts = np.empty(util.size)
    for m in levels:
        u_grid, p_grid = _power_curve(
            system, indices, freq_multiplier=float(m)
        )
        mask = freq_mult == m
        watts[mask] = np.interp(util[mask], u_grid, p_grid)
    return watts


def _interpolate(
    grid: np.ndarray,
    pos: np.ndarray,
    w: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Write ``grid[pos]·(1−w) + grid[pos+1]·w`` row-wise into ``out``.

    ``scratch`` is a buffer of ``out``'s shape.  Both per-node views of
    a run evaluate through here, so a streamed batch matches the same
    rows of :meth:`SimulatedRun.node_power_matrix` bit for bit.
    """
    np.take(grid, pos, axis=0, out=out)
    out *= (1 - w)[:, None]
    np.take(grid, pos + 1, axis=0, out=scratch)
    scratch *= w[:, None]
    out += scratch


@dataclass
class SimulatedRun:
    """A complete simulated benchmark run on one system.

    Attributes
    ----------
    system / workload:
        What produced this run.
    trace:
        Full-run full-system power trace (setup + core + teardown).
    dt:
        Sample spacing in seconds.
    seed:
        Root seed for the run's stochastic components.
    noise_cv:
        Coefficient of variation of the common-mode power noise.
    """

    system: SystemModel
    workload: Workload
    trace: PowerTrace
    dt: float
    seed: int
    noise_cv: float
    _noise: np.ndarray = field(repr=False, default=None)
    _times: np.ndarray = field(repr=False, default=None)
    _util: np.ndarray = field(repr=False, default=None)
    _freq_mult: np.ndarray = field(repr=False, default=None)

    # ------------------------------------------------------------------
    @property
    def core_window(self) -> tuple[float, float]:
        """Wall-clock bounds of the core phase within :attr:`trace`."""
        return self.workload.phases.core_window()

    def core_trace(self) -> PowerTrace:
        """The core-phase slice of the full-system trace."""
        t0, t1 = self.core_window
        return self.trace.window(t0, t1)

    def true_core_average(self) -> float:
        """Time-averaged full-system power over the whole core phase.

        This is the quantity a perfect Level 3 measurement reports, and
        the ground truth all methodology experiments compare against.
        """
        return self.core_trace().mean_power()

    def subset_trace(self, node_indices: np.ndarray) -> PowerTrace:
        """Power trace of the summed subset of nodes.

        The subset sees the same utilisation profile and the same
        common-mode noise as the full system (load fluctuations are
        machine-wide under a balanced workload); only its silicon draws
        differ.  Meter-level noise belongs to the metering layer, not
        here.
        """
        idx = self._validated_indices(node_indices)
        if self._freq_mult is None:
            u_grid, p_grid = _power_curve(self.system, idx)
            watts = np.interp(self._util, u_grid, p_grid)
        else:
            watts = _powers_with_governor(
                self.system, idx, self._util, self._freq_mult
            )
        return PowerTrace(self._times, watts * self._noise)

    def node_power_matrix(
        self,
        t0_s: float | None = None,
        t1_s: float | None = None,
        node_indices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-node instantaneous power on the simulation grid.

        Returns ``(times, watts)`` where ``watts[k, j]`` is node
        ``node_indices[j]``'s power at ``times[k]``, including the
        common-mode noise (consistent with :meth:`subset_trace`, which
        is the row-sum of this matrix).  ``[t0_s, t1_s]`` clips to grid
        samples inside the bounds (defaults: the whole run).  This is
        the per-node view the streaming layer
        (:mod:`repro.stream.ingest`) replays tick by tick.
        """
        idx = self._validated_indices(node_indices)
        in_span = self._in_span(t0_s, t1_s)
        grid, pos, w = self._level_grids(idx, in_span)
        watts = np.empty((pos.size, idx.size))
        _interpolate(grid, pos, w, watts, np.empty_like(watts))
        watts *= self._noise[in_span][:, None]
        return self._times[in_span], watts

    def _validated_indices(
        self, node_indices: np.ndarray | None
    ) -> np.ndarray:
        """Resolve and validate a node subset (default: every node).

        Indices must be integers: a float or bool array is refused, not
        truncated or read as a mask.
        """
        if node_indices is None:
            return np.arange(self.system.n_nodes, dtype=np.int64)
        idx = np.asarray(node_indices).ravel()
        if idx.size == 0:
            raise ValueError("node subset must be non-empty")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(
                f"node indices must be integers, got dtype {idx.dtype}"
            )
        idx = idx.astype(np.int64, copy=False)
        if idx.min() < 0 or idx.max() >= self.system.n_nodes:
            raise ValueError("node index out of range")
        if np.unique(idx).size != idx.size:
            raise ValueError("node indices must be unique")
        return idx

    def _in_span(
        self, t0_s: float | None, t1_s: float | None
    ) -> np.ndarray:
        """Mask of grid samples inside ``[t0_s, t1_s]`` (default: all)."""
        lo = self._times[0] if t0_s is None else float(t0_s)
        hi = self._times[-1] if t1_s is None else float(t1_s)
        if hi < lo:
            raise ValueError(f"need t0_s <= t1_s, got [{lo}, {hi}]")
        in_span = (self._times >= lo - 1e-9) & (self._times <= hi + 1e-9)
        if not in_span.any():
            raise ValueError("no grid samples inside the requested span")
        return in_span

    def _level_grids(
        self, idx: np.ndarray, in_span: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tabulate the per-node power rows the span's ticks bracket.

        Returns ``(grid, pos, w)``: the span's ``k``-th tick is
        ``grid[pos[k]]·(1−w[k]) + grid[pos[k]+1]·w[k]`` (see
        :func:`_interpolate`), and column ``j`` is node ``idx[j]``.

        A tick at utilisation ``u`` in grid cell ``c``
        (``u_grid[c] <= u <= u_grid[c + 1]``) under frequency multiplier
        ``m`` reads rows ``c`` and ``c + 1`` of the ``m``-grid, so each
        distinct multiplier tabulates only the sorted union of its
        ticks' ``c`` and ``c + 1``; the levels' rows are stacked in one
        array.  Since that union holds ``c + 1`` for every ``c``, the
        row after ``c``'s is ``c + 1``'s.  Each row equals the matching
        row of a whole-grid tabulation bit for bit, whatever rows are
        tabulated beside it.  O(R · n_idx) memory for the R rows
        touched, R <= 129 per level, independent of run length.
        """
        u_grid = np.linspace(0.0, 1.0, _U_GRID)
        util = self._util[in_span]
        cell = np.clip(np.searchsorted(u_grid, util) - 1, 0, _U_GRID - 2)
        w = (util - u_grid[cell]) / (u_grid[cell + 1] - u_grid[cell])
        if self._freq_mult is None:
            levels = np.array([1.0])
            level_of = np.zeros(cell.size, dtype=np.int64)
        else:
            levels, level_of = np.unique(
                self._freq_mult[in_span], return_inverse=True
            )
        # Row keys level·G + cell: one sorted union keeps each level's
        # rows contiguous, and key + 1 never leaves its level.
        key = level_of * _U_GRID + cell
        rows, inverse = np.unique(np.r_[key, key + 1], return_inverse=True)
        grid = np.empty((rows.size, idx.size))
        for li, mult in enumerate(levels):
            lo, hi = np.searchsorted(rows, [li * _U_GRID, (li + 1) * _U_GRID])
            u = u_grid[rows[lo:hi] - li * _U_GRID]
            for g0, block in _grid_blocks(self.system, idx, float(mult), u):
                grid[lo + g0:lo + g0 + len(block)] = block
        return grid, inverse[:key.size], w

    def stream_run(
        self,
        *,
        node_indices: np.ndarray | None = None,
        ticks_per_batch: int = 60,
        core_only: bool = True,
    ):
        """Stream per-node power batches without materialising the run.

        A generator over :class:`~repro.stream.ingest.SampleBatch`
        chunks that synthesises each tick block directly into its
        output buffer — the full ``(n_ticks, n_nodes)`` matrix of
        :meth:`node_power_matrix` never exists.  Cell for cell the
        yielded samples are *bit-identical* to the corresponding
        ``node_power_matrix`` slice (both tabulate the same rows and
        interpolate through :func:`_interpolate`, here chunkwise), so
        the streaming and batch layers agree exactly; the property
        suite locks this.

        The subset's rows are tabulated once, an R × ``len(node_indices)``
        table for the R rows the span's ticks bracket, and held while
        the stream runs; :meth:`_stream_rows` then interpolates from it.
        The shard engine tabulates the whole fleet once and streams each
        shard from its column slice of that table instead.

        Parameters
        ----------
        node_indices:
            Fleet subset to stream (default: every node).
        ticks_per_batch:
            Ticks per yielded batch (the collector's flush interval).
        core_only:
            Restrict to the core phase, as a methodology measurement
            would; ``False`` streams the full run.
        """
        idx = self._validated_indices(node_indices)
        span = self.core_window if core_only else (None, None)
        in_span = self._in_span(*span)
        yield from self._stream_rows(
            self._level_grids(idx, in_span), idx, in_span,
            ticks_per_batch=ticks_per_batch,
        )

    def _stream_rows(
        self,
        rows: tuple[np.ndarray, np.ndarray, np.ndarray],
        node_ids: np.ndarray,
        in_span: np.ndarray,
        *,
        ticks_per_batch: int,
    ):
        """Stream batches interpolated from tabulated rows.

        ``rows`` is the :meth:`_level_grids` table ``(grid, pos, w)``
        tabulated over the ``in_span`` mask, or any column slice of one;
        column ``j`` of ``grid`` is node ``node_ids[j]``.  A column slice
        yields the same bits as tabulating its nodes alone, since each
        grid cell depends only on its node and row.  Each batch's
        readings are a fresh array the batch owns, so a consumer may
        keep any batch.
        """
        if ticks_per_batch < 1:
            raise ValueError("ticks_per_batch must be >= 1")
        grid, pos, w = rows
        times = self._times[in_span]
        noise = self._noise[in_span]
        ids = np.array(node_ids, dtype=np.int64)
        scratch = np.empty((min(ticks_per_batch, times.size), ids.size))
        # Deferred import: repro.stream.ingest imports this module.
        from repro.stream.ingest import SampleBatch

        for lo in range(0, times.size, ticks_per_batch):
            hi = min(lo + ticks_per_batch, times.size)
            out = np.empty((hi - lo, ids.size))
            _interpolate(grid, pos[lo:hi], w[lo:hi], out, scratch[:hi - lo])
            out *= noise[lo:hi, None]
            yield SampleBatch(times=times[lo:hi], watts=out, node_ids=ids)

    def node_average_powers(self) -> np.ndarray:
        """True per-node time-averaged power over the core phase.

        The column mean of the core-phase :meth:`node_power_matrix`, so
        it sees the DVFS governor and the common-mode noise exactly as
        the per-node traces do; used as ground truth by sampling
        experiments.
        """
        return self.node_power_matrix(*self.core_window)[1].mean(axis=0)


def simulate_run(
    system: SystemModel,
    workload: Workload,
    *,
    dt: float = 1.0,
    noise_cv: float = 0.004,
    noise_correlation_s: float = 30.0,
    governor=None,
    seed: int | None = None,
) -> SimulatedRun:
    """Simulate a full benchmark run and return its power trace.

    Parameters
    ----------
    dt:
        Sample spacing in seconds.  1 s is the methodology's Level 1/2
        granularity; long CPU runs may use coarser spacing for speed.
    noise_cv:
        Coefficient of variation of the multiplicative common-mode noise
        (load imbalance transients, OS jitter, PSU regulation).
    noise_correlation_s:
        Autocorrelation time of the noise (AR(1) in discrete steps); the
        paper's Sequoia curve is "jagged" at the minutes scale.
    governor:
        Optional :class:`~repro.cluster.dvfs.DvfsGovernor` applying a
        time-varying machine-wide frequency multiplier across the core
        phase (the methodology explicitly allows DVFS; Section 3 shows
        how it interacts with partial measurement windows).  Must be
        stepped (finitely many levels).  Setup/teardown run at nominal
        frequency.
    seed:
        Run-level seed; defaults to the system's seed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if noise_cv < 0:
        raise ValueError("noise_cv must be >= 0")
    if noise_correlation_s <= 0:
        raise ValueError("noise_correlation_s must be positive")

    phases = workload.phases
    n = int(np.floor(phases.total_s / dt)) + 1
    times = dt * np.arange(n, dtype=float)

    # Utilisation profile over the full run.
    util = np.empty(n)
    in_setup = times < phases.core_start_s
    in_core = (times >= phases.core_start_s) & (times <= phases.core_end_s)
    in_teardown = times > phases.core_end_s
    util[in_setup] = workload.setup_utilisation()
    frac = (times[in_core] - phases.core_start_s) / phases.core_s
    util[in_core] = workload.utilisation(np.clip(frac, 0.0, 1.0))
    util[in_teardown] = workload.teardown_utilisation()

    # Common-mode AR(1) multiplicative noise.
    run_seed = system.seed if seed is None else int(seed)
    rng = SeededStreams(run_seed)["run-noise"]
    if noise_cv > 0:
        phi = float(np.exp(-dt / noise_correlation_s))
        innov_sd = noise_cv * np.sqrt(1.0 - phi**2)
        eps = rng.standard_normal(n) * innov_sd
        from scipy.signal import lfilter

        ar = lfilter([1.0], [1.0, -phi], eps)
        ar[0] = 0.0
        noise = np.clip(1.0 + ar, 0.5, 1.5)
    else:
        noise = np.ones(n)

    if governor is None:
        freq_mult = None
        u_grid, p_grid = _power_curve(system, None)
        watts = np.interp(util, u_grid, p_grid) * noise
    else:
        freq_mult = np.ones(n)
        freq_mult[in_core] = governor.frequency_multiplier(
            np.clip(frac, 0.0, 1.0)
        )
        watts = _powers_with_governor(system, None, util, freq_mult) * noise

    # Shared subsystems (interconnect, infrastructure) draw power for
    # the whole run; the full-system trace — what a whole-machine meter
    # upstream of everything sees — includes them.  Per-node subset
    # traces do not (node meters cannot see the switches).
    if system.shared is not None and not system.shared.is_zero:
        watts = watts + np.asarray(system.shared.power(util), dtype=float)

    trace = PowerTrace(times, watts)
    return SimulatedRun(
        system=system,
        workload=workload,
        trace=trace,
        dt=dt,
        seed=run_seed,
        noise_cv=noise_cv,
        _noise=noise,
        _times=times,
        _util=util,
        _freq_mult=freq_mult,
    )

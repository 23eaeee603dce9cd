"""Deterministic tick-driven telemetry ingestion.

Real sites see power as a stream: per-node samples arriving at 1 Hz+
from thousands of nodes, with collectors that buffer and batch them.
This module reproduces that shape *deterministically*:

* :class:`SimClock` — the only notion of time.  It advances by fixed
  ticks; nothing reads the wall clock, so a replay is a pure function
  of its inputs (the RPX004 invariant).
* :class:`SampleBatch` — a contiguous block of per-node samples, the
  unit the pipeline moves around.
* :func:`replay_run` — the source: batched per-node samples from a
  :class:`~repro.traces.synth.SimulatedRun`, which a driver folds by
  iterating it.  Real bounded-queue backpressure lives in
  :mod:`repro.serve`, where a full session queue answers 429.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.traces.synth import SimulatedRun

__all__ = [
    "SimClock",
    "SampleBatch",
    "replay_run",
]


class SimClock:
    """A simulated clock advancing in fixed ticks.

    The streaming subsystem's *only* time source: ``now_s`` is
    ``start_s + tick · dt_s``, so two replays with the same inputs see
    identical timestamps regardless of when or where they run.
    """

    __slots__ = ("_start_s", "_dt_s", "_tick")

    def __init__(self, dt_s: float, start_s: float = 0.0) -> None:
        if dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {dt_s}")
        self._start_s = float(start_s)
        self._dt_s = float(dt_s)
        self._tick = 0

    @property
    def dt_s(self) -> float:
        """Tick length in simulated seconds."""
        return self._dt_s

    @property
    def tick(self) -> int:
        """Ticks elapsed since the clock started."""
        return self._tick

    @property
    def now_s(self) -> float:
        """Current simulated time."""
        return self._start_s + self._tick * self._dt_s

    def advance(self, ticks: int = 1) -> float:
        """Advance the clock and return the new ``now_s``."""
        if ticks < 0:
            raise ValueError("clock cannot run backwards")
        self._tick += int(ticks)
        return self.now_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now_s={self.now_s}, dt_s={self._dt_s})"


@dataclass(frozen=True)
class SampleBatch:
    """A block of per-node power samples.

    The constructor *normalises*: inputs are coerced to C-contiguous
    float64 (``times``/``watts``) and integer (``node_ids``) arrays,
    copying when the caller hands over a strided or mistyped array, so
    every downstream kernel sees the one layout it is vectorised for
    and never silently falls onto a strided slow path.  The hot path —
    the shard layer's preallocated slabs — uses :meth:`from_columns`,
    which refuses to copy instead.

    Attributes
    ----------
    times:
        Tick timestamps in simulated seconds, shape ``(n_ticks,)``,
        float64.
    watts:
        Per-node readings, shape ``(n_ticks, n_nodes)``, C-contiguous
        float64.
    node_ids:
        Fleet node indices for the columns, shape ``(n_nodes,)``,
        integer.
    """

    times: np.ndarray
    watts: np.ndarray
    node_ids: np.ndarray

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        watts = np.ascontiguousarray(self.watts, dtype=np.float64)
        node_ids = np.asarray(self.node_ids)
        if node_ids.dtype.kind not in "iu":
            raise ValueError(
                f"node_ids must be integers, got dtype {node_ids.dtype}"
            )
        if watts.ndim != 2:
            raise ValueError("watts must be 2-D (n_ticks, n_nodes)")
        if times.shape != (watts.shape[0],):
            raise ValueError("times length must match watts rows")
        if node_ids.shape != (watts.shape[1],):
            raise ValueError("node_ids length must match watts columns")
        # Store the normalised arrays (no-ops when already conforming).
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "watts", watts)
        object.__setattr__(self, "node_ids", node_ids)

    @classmethod
    def from_columns(
        cls,
        times: np.ndarray,
        watts: np.ndarray,
        node_ids: np.ndarray,
    ) -> "SampleBatch":
        """Zero-copy constructor over already-conforming column arrays.

        The shard layer's entry point: the arrays are used as given —
        typically views into a preallocated
        :class:`~repro.shard.slab.Slab` — so a layout violation raises
        instead of silently copying, keeping the hot path allocation-
        free by contract.
        """
        times = np.asarray(times)
        watts = np.asarray(watts)
        if times.dtype != np.float64 or watts.dtype != np.float64:
            raise ValueError(
                "from_columns requires float64 times/watts, got "
                f"{times.dtype}/{watts.dtype}"
            )
        if watts.ndim != 2 or not watts.flags["C_CONTIGUOUS"]:
            raise ValueError(
                "from_columns requires a C-contiguous 2-D watts matrix"
            )
        if not times.flags["C_CONTIGUOUS"]:
            raise ValueError("from_columns requires C-contiguous times")
        return cls(times=times, watts=watts, node_ids=node_ids)

    @property
    def n_ticks(self) -> int:
        """Number of time steps in the batch."""
        return int(self.times.size)

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the batch."""
        return int(self.node_ids.size)

    @property
    def n_samples(self) -> int:
        """Total scalar samples carried."""
        return self.n_ticks * self.n_nodes

    @property
    def t0_s(self) -> float:
        """First tick timestamp."""
        return float(self.times[0])

    @property
    def t1_s(self) -> float:
        """Last tick timestamp."""
        return float(self.times[-1])

    def readings_valid(self) -> bool:
        """Whether every reading is finite and non-negative."""
        w = self.watts
        return w.size == 0 or bool(w.min() >= 0.0 and np.isfinite(w.max()))

    def fleet_means(self) -> np.ndarray:
        """Across-node mean power per tick, shape ``(n_ticks,)``."""
        return self.watts.mean(axis=1)


def replay_run(
    run: SimulatedRun,
    *,
    node_indices: np.ndarray | None = None,
    ticks_per_batch: int = 60,
    core_only: bool = True,
) -> Iterator[SampleBatch]:
    """Replay a simulated run as batched per-node samples.

    Parameters
    ----------
    run:
        The batch simulation to stream.
    node_indices:
        Fleet subset to stream (default: every node) — the measured
        subset of a Level 1/2 campaign.
    ticks_per_batch:
        Ticks per emitted :class:`SampleBatch` (the collector's flush
        interval, in samples).
    core_only:
        Restrict the replay to the core phase — what a methodology
        measurement would ingest.  ``False`` streams the full run.
    """
    if ticks_per_batch < 1:
        raise ValueError("ticks_per_batch must be >= 1")
    if core_only:
        t0_s, t1_s = run.core_window
        times, watts = run.node_power_matrix(t0_s, t1_s, node_indices)
    else:
        times, watts = run.node_power_matrix(node_indices=node_indices)
    if node_indices is None:
        ids = np.arange(run.system.n_nodes, dtype=np.int64)
    else:
        ids = np.asarray(node_indices, dtype=np.int64).ravel()
    for lo in range(0, times.size, ticks_per_batch):
        hi = min(lo + ticks_per_batch, times.size)
        yield SampleBatch(
            times=times[lo:hi], watts=watts[lo:hi], node_ids=ids
        )

"""A fixed-capacity time ring backing rolling windows.

:class:`TimeRing` keeps ``(t, value)`` pairs no older than a time
horizon — the "last 60 simulated seconds" view the live monitor
reports, independent of sampling cadence — in O(capacity) memory with
no per-push allocation.

Timestamps are *simulated* seconds supplied by the caller (see
:class:`repro.stream.ingest.SimClock`); nothing here reads a clock.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TimeRing"]


class TimeRing:
    """Samples within a sliding time horizon.

    Holds ``(t, value)`` pairs with ``t`` within ``horizon_s`` of the
    newest timestamp.  Capacity bounds worst-case memory; when cadence
    outpaces capacity the oldest in-horizon samples are evicted (the
    window degrades gracefully to "last ``capacity`` samples").
    """

    __slots__ = ("_horizon_s", "_times", "_values", "_head", "_size")

    def __init__(self, horizon_s: float, capacity: int = 4096) -> None:
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {horizon_s}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._horizon_s = float(horizon_s)
        self._times = np.zeros(capacity, dtype=float)
        self._values = np.zeros(capacity, dtype=float)
        self._head = 0
        self._size = 0

    @property
    def horizon_s(self) -> float:
        """Sliding-window length in simulated seconds."""
        return self._horizon_s

    def __len__(self) -> int:
        return self._size

    def push(self, t_s: float, value: float) -> None:
        """Append a timestamped sample; timestamps must not decrease."""
        t = float(t_s)
        if self._size and t < self._newest_time() - 1e-12:
            raise ValueError(
                f"timestamps must be non-decreasing, got {t} after "
                f"{self._newest_time()}"
            )
        self._times[self._head] = t
        self._values[self._head] = float(value)
        self._head = (self._head + 1) % self._times.size
        if self._size < self._times.size:
            self._size += 1
        self._evict(t)

    def push_batch(self, times, values) -> None:
        """Append many timestamped samples; equivalent to a :meth:`push`
        loop.

        Sorted timestamps are written with wraparound and evicted once,
        by a binary search against the newest one's horizon; anything
        else takes the :meth:`push` loop, which refuses a timestamp
        more than 1e-12 s before the one it follows.
        """
        t = np.asarray(times, dtype=float).ravel()
        v = np.asarray(values, dtype=float).ravel()
        if t.shape != v.shape:
            raise ValueError("times and values must have the same length")
        if t.size == 0:
            return
        ordered = not (
            (self._size and t[0] < self._newest_time())
            or (t[1:] < t[:-1]).any()
        )
        self._fold(t, v, ordered)

    def _fold(self, t: np.ndarray, v: np.ndarray, ordered: bool) -> None:
        """Append non-empty 1-D float arrays of equal length.

        ``ordered`` says no timestamp is below the one before it (the
        newest held one included), so the batch is written at once;
        otherwise it takes the :meth:`push` loop.
        """
        if not ordered:
            for t_s, value in zip(t, v):
                self.push(t_s, value)
            return
        n = t.size
        cap = self._times.size
        keep = min(n, cap)  # a push loop overwrites all but the last cap
        slots = (self._head + np.arange(n - keep, n)) % cap
        self._times[slots] = t[n - keep :]
        self._values[slots] = v[n - keep :]
        self._head = (self._head + n) % cap
        self._size = min(self._size + n, cap)
        # Evict as _evict would: the newest sample is never stale.
        cutoff = float(t[-1]) - self._horizon_s
        self._size -= int(np.searchsorted(self.times(), cutoff - 1e-12))

    def _newest_time(self) -> float:
        return float(self._times[(self._head - 1) % self._times.size])

    def _oldest_index(self) -> int:
        return (self._head - self._size) % self._times.size

    def _evict(self, now_s: float) -> None:
        cutoff = now_s - self._horizon_s
        while self._size > 1:
            idx = self._oldest_index()
            if self._times[idx] >= cutoff - 1e-12:
                break
            self._size -= 1

    def times(self) -> np.ndarray:
        """In-horizon timestamps, oldest first."""
        return self._ordered(self._times)

    def values(self) -> np.ndarray:
        """In-horizon samples, oldest first."""
        return self._ordered(self._values)

    def _ordered(self, data: np.ndarray) -> np.ndarray:
        if self._size == 0:
            return np.empty(0, dtype=float)
        start = self._oldest_index()
        idx = (start + np.arange(self._size)) % data.size
        return data[idx]

    def mean(self) -> float:
        """Mean of the in-horizon samples."""
        if self._size == 0:
            raise ValueError("empty buffer")
        return float(self.values().mean())

    def span_s(self) -> float:
        """Time covered by the retained samples."""
        if self._size == 0:
            return 0.0
        t = self.times()
        return float(t[-1] - t[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeRing(horizon_s={self._horizon_s}, size={self._size})"
        )

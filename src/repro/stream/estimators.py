"""Single-pass streaming estimators.

The batch layer computes fleet statistics from fully materialised
arrays (:mod:`repro.analysis.descriptive`); these estimators produce
the same numbers from a stream of samples in O(1) memory per tracked
quantity:

* :class:`RunningMoments` — Welford/Chan mean, variance, min and max.
  State may be scalar or a fixed-shape vector (one component per node),
  so a whole fleet's per-node moments are updated in one vectorised
  call.  ``merge`` (two partial streams) and ``pooled`` (per-node →
  fleet roll-up) are *exact*: they give bit-for-bit the same class of
  result as a single pass over the concatenated stream, up to float
  rounding.
* :class:`RunningCovariance` — single-pass co-moment with the same
  exact ``merge``.
* :class:`QuantileSketch` — a log-bucketed relative-error quantile
  sketch (DDSketch, Masson et al., VLDB 2019): one integer count per
  bucket of width ``γ = (1 + α) / (1 − α)``, so every quantile it
  reports lies within ``α`` (:data:`QUANTILE_REL_ERROR`) of the order
  statistic it stands for.  Its ``merge`` is integer count addition —
  exact, associative and independent of how the stream was chunked —
  and one sketch serves every tracked quantile.
* :class:`P2Quantile` — the Jain–Chlamtac P² marker estimator: a fixed
  five-marker summary of one quantile, kept as the stationary-stream
  baseline the X-STR audit compares against.

No estimator here ever reads a clock or an RNG — push order and values
fully determine the state.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QUANTILE_REL_ERROR",
    "axis0_sum",
    "RunningMoments",
    "RunningCovariance",
    "QuantileSketch",
    "P2Quantile",
]

#: Relative accuracy α of :class:`QuantileSketch`: a reported quantile
#: lies within ``α · x`` of the order statistic ``x`` it stands for.
QUANTILE_REL_ERROR = 0.005


def _as_observation(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("observation contains non-finite values")
    return arr


def axis0_sum(xs: np.ndarray) -> np.ndarray:
    """Row-sequential sum over the observation axis of a matrix.

    ``ndarray.sum(axis=0)`` takes numpy's pairwise-summation path when
    the reduction axis is the contiguous one (a single-column matrix,
    or a column-major one) and a row-sequential path when the rows are
    the outer loop — so the *same column of samples* would accumulate
    with different roundings depending on how many columns ride along
    in the batch.  Pinning the sequential order for every width is
    what makes a one-node shard's estimator state bit-identical to that
    node's column inside any wider batch (the shard layer's contract):
    a row-major matrix with more than one column reduces row by row,
    and a single column goes through a cumulative sum, which adds row
    ``k`` to the total of rows ``0..k-1``.
    """
    xs = np.ascontiguousarray(xs)
    if xs.size > xs.shape[0]:
        return np.add.reduce(xs, axis=0)
    return np.cumsum(xs, axis=0)[-1]


class RunningMoments:
    """Welford mean/variance with streaming min/max.

    Each :meth:`push` adds one observation — a scalar, or a vector whose
    shape is fixed at the first push (component ``i`` tracks node ``i``).
    :meth:`push_batch` adds many observations at once using the exact
    batch (Chan) update; :meth:`push_each` adds a run of scalars with
    :meth:`push`'s arithmetic and reports the state after each.
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None
        self._min: np.ndarray | None = None
        self._max: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of observations pushed (per component)."""
        return self._count

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of one observation (``()`` for a scalar stream)."""
        if self._mean is None:
            raise ValueError("no observations yet")
        return self._mean.shape

    @property
    def mean(self) -> np.ndarray | float:
        """Running arithmetic mean."""
        self._require_data()
        return self._unwrap(self._mean)

    @property
    def minimum(self) -> np.ndarray | float:
        """Smallest observation seen."""
        self._require_data()
        return self._unwrap(self._min)

    @property
    def maximum(self) -> np.ndarray | float:
        """Largest observation seen."""
        self._require_data()
        return self._unwrap(self._max)

    def variance(self, ddof: int = 1) -> np.ndarray | float:
        """Running variance (sample variance by default)."""
        self._require_data()
        if self._count <= ddof:
            raise ValueError(
                f"need more than {ddof} observations for ddof={ddof}"
            )
        return self._unwrap(self._m2 / (self._count - ddof))

    def std(self, ddof: int = 1) -> np.ndarray | float:
        """Running standard deviation."""
        return np.sqrt(self.variance(ddof))

    def cv(self, ddof: int = 1) -> np.ndarray | float:
        """Coefficient of variation σ̂/μ̂ — the paper's variability knob."""
        mean = np.asarray(self.mean)
        if np.any(mean <= 0):
            raise ValueError("cv undefined for non-positive mean")
        return self._unwrap(np.asarray(self.std(ddof)) / mean)

    # ------------------------------------------------------------------
    def push(self, x) -> None:
        """Add one observation (Welford update)."""
        arr = _as_observation(x)
        if self._mean is None:
            self._init_state(arr)
            return
        self._check_shape(arr)
        self._count += 1
        delta = arr - self._mean
        self._mean = self._mean + delta / self._count
        self._m2 = self._m2 + delta * (arr - self._mean)
        self._min = np.minimum(self._min, arr)
        self._max = np.maximum(self._max, arr)

    def push_each(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Push scalar observations one at a time; return every prefix.

        Runs the :meth:`push` arithmetic on plain floats in order, so
        each prefix state — and the final one — has the bits ``len(xs)``
        :meth:`push` calls would give, at a fraction of the cost.
        Returns the ``(count, mean, m2)`` arrays after each observation.
        A non-finite value raises before the estimator changes.
        """
        xs = _as_observation(xs)
        if xs.ndim != 1:
            raise ValueError("push_each takes a 1-D run of scalars")
        if self._mean is not None and self._mean.ndim != 0:
            raise ValueError("push_each needs a scalar estimator")
        counts = np.arange(
            self._count + 1, self._count + 1 + xs.size, dtype=np.int64
        )
        values = xs.tolist()
        if not values:
            return counts, np.empty(0), np.empty(0)
        if self._mean is None:
            count, mean, m2 = 1, values[0], 0.0
            means, m2s = [mean], [m2]
            values = values[1:]
        else:
            count, mean, m2 = self._count, float(self._mean), float(self._m2)
            means, m2s = [], []
        for x in values:
            count += 1
            delta = x - mean
            mean = mean + delta / count
            m2 = m2 + delta * (x - mean)
            means.append(mean)
            m2s.append(m2)
        lo, hi = np.float64(xs.min()), np.float64(xs.max())
        if self._mean is not None:
            lo, hi = np.minimum(self._min, lo), np.maximum(self._max, hi)
        self._count = count
        self._mean, self._m2 = np.float64(mean), np.float64(m2)
        self._min, self._max = lo, hi
        return counts, np.array(means), np.array(m2s)

    def push_batch(self, xs) -> None:
        """Add many observations at once.

        ``xs`` has one more leading axis than a single observation:
        shape ``(n,)`` for a scalar stream, ``(n, n_nodes)`` for a
        per-node vector stream.  Equivalent to ``n`` pushes, via the
        exact two-stream merge against the batch's own moments.
        """
        xs = _as_observation(xs)
        if xs.ndim == 0:
            raise ValueError("push_batch needs a leading observation axis")
        n = xs.shape[0]
        if n == 0:
            return
        batch = RunningMoments()
        batch._count = n
        if xs.ndim >= 2:
            # Width-independent accumulation (see axis0_sum); for
            # multi-column batches the bits match numpy's own path.
            batch._mean = axis0_sum(xs) / n
            batch._m2 = axis0_sum((xs - batch._mean) ** 2)
        else:
            batch._mean = xs.mean(axis=0)
            batch._m2 = ((xs - batch._mean) ** 2).sum(axis=0)
        batch._min = xs.min(axis=0)
        batch._max = xs.max(axis=0)
        if self._mean is None:
            self._adopt(batch)
        else:
            self._check_shape(batch._mean)
            self.merge(batch)

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """Fold another estimator's stream into this one (exact).

        Chan's parallel update: the merged state equals (to rounding)
        the state a single estimator would reach over the concatenated
        streams.  Returns ``self`` for chaining.
        """
        if other._mean is None:
            return self
        if self._mean is None:
            self._adopt(other)
            return self
        self._check_shape(other._mean)
        na, nb = self._count, other._count
        n = na + nb
        delta = other._mean - self._mean
        self._mean = self._mean + delta * (nb / n)
        self._m2 = self._m2 + other._m2 + delta * delta * (na * nb / n)
        self._min = np.minimum(self._min, other._min)
        self._max = np.maximum(self._max, other._max)
        self._count = n
        return self

    @classmethod
    def concat(cls, parts: list["RunningMoments"]) -> "RunningMoments":
        """Join node-partitioned vector estimators along the component axis.

        The shard reduction: when a fleet's nodes are partitioned into
        contiguous ranges and each shard tracks a vector estimator over
        *its* nodes only, the full-fleet estimator is the ordered
        concatenation of the per-shard component arrays.  Because every
        component's Welford state depends only on its own stream, this
        roll-up is *exact to the bit* — unlike :meth:`merge`, no
        floating-point combination happens at all, so the result is
        independent of how many shards the fleet was split into.

        All parts must be non-empty vector estimators (``ndim >= 1``)
        with identical observation counts (every shard saw the same
        ticks).
        """
        if not parts:
            raise ValueError("concat needs at least one part")
        for i, part in enumerate(parts):
            if part._mean is None:
                raise ValueError(f"part {i} has no observations")
            if part._mean.ndim == 0:
                raise ValueError(
                    f"part {i} is scalar; concat joins vector estimators"
                )
            if part._count != parts[0]._count:
                raise ValueError(
                    f"part {i} saw {part._count} observations, part 0 saw "
                    f"{parts[0]._count}; shards must cover the same ticks"
                )
        out = cls()
        out._count = parts[0]._count
        out._mean = np.concatenate([p._mean for p in parts])
        out._m2 = np.concatenate([p._m2 for p in parts])
        out._min = np.concatenate([p._min for p in parts])
        out._max = np.concatenate([p._max for p in parts])
        return out

    def pooled(self) -> "RunningMoments":
        """Collapse a vector estimator into one scalar estimator.

        The per-node → fleet roll-up: treats every component's stream as
        part of one pooled sample.  Exact — the law-of-total-variance
        identity, which is Chan's merge applied across components.
        """
        self._require_data()
        if self._mean.ndim == 0:
            out = RunningMoments()
            out._adopt(self)
            return out
        size = self._mean.size
        grand = float(self._mean.mean())
        out = RunningMoments()
        out._count = self._count * size
        out._mean = np.asarray(grand)
        out._m2 = np.asarray(
            float(self._m2.sum())
            + self._count * float(((self._mean - grand) ** 2).sum())
        )
        out._min = np.asarray(float(self._min.min()))
        out._max = np.asarray(float(self._max.max()))
        return out

    # ------------------------------------------------------------------
    def _init_state(self, arr: np.ndarray) -> None:
        self._count = 1
        self._mean = arr.copy()
        self._m2 = np.zeros_like(arr)
        self._min = arr.copy()
        self._max = arr.copy()

    def _adopt(self, other: "RunningMoments") -> None:
        self._count = other._count
        self._mean = np.array(other._mean, copy=True)
        self._m2 = np.array(other._m2, copy=True)
        self._min = np.array(other._min, copy=True)
        self._max = np.array(other._max, copy=True)

    def _check_shape(self, arr: np.ndarray) -> None:
        if arr.shape != self._mean.shape:
            raise ValueError(
                f"observation shape {arr.shape} does not match "
                f"estimator shape {self._mean.shape}"
            )

    def _require_data(self) -> None:
        if self._mean is None:
            raise ValueError("no observations yet")

    @staticmethod
    def _unwrap(arr: np.ndarray):
        return float(arr) if arr.ndim == 0 else arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._mean is None:
            return "RunningMoments(empty)"
        return f"RunningMoments(count={self._count}, shape={self.shape})"


class RunningCovariance:
    """Single-pass covariance of paired observations ``(x, y)``.

    Scalar or componentwise-vector pairs, with the same exact ``merge``
    as :class:`RunningMoments`.  Used e.g. to track how strongly a
    node's draw co-moves with the fleet average (a fully common-mode
    fleet has correlation ≈ 1; a node with private excursions decoheres).
    """

    __slots__ = ("_count", "_mean_x", "_mean_y", "_c", "_m2x", "_m2y")

    def __init__(self) -> None:
        self._count = 0
        self._mean_x: np.ndarray | None = None
        self._mean_y: np.ndarray | None = None
        self._c: np.ndarray | None = None
        self._m2x: np.ndarray | None = None
        self._m2y: np.ndarray | None = None

    @property
    def count(self) -> int:
        """Number of pairs pushed."""
        return self._count

    def push(self, x, y) -> None:
        """Add one ``(x, y)`` pair."""
        ax, ay = _as_observation(x), _as_observation(y)
        if ax.shape != ay.shape:
            raise ValueError("x and y must have the same shape")
        if self._mean_x is None:
            self._count = 1
            self._mean_x = ax.copy()
            self._mean_y = ay.copy()
            self._c = np.zeros_like(ax)
            self._m2x = np.zeros_like(ax)
            self._m2y = np.zeros_like(ax)
            return
        self._count += 1
        dx = ax - self._mean_x
        self._mean_x = self._mean_x + dx / self._count
        dy_pre = ay - self._mean_y
        self._mean_y = self._mean_y + dy_pre / self._count
        self._c = self._c + dx * (ay - self._mean_y)
        self._m2x = self._m2x + dx * (ax - self._mean_x)
        self._m2y = self._m2y + dy_pre * (ay - self._mean_y)

    def push_batch(self, xs, ys) -> None:
        """Add many pairs at once (exact batch merge)."""
        xs, ys = _as_observation(xs), _as_observation(ys)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have the same shape")
        if xs.ndim == 0:
            raise ValueError("push_batch needs a leading observation axis")
        n = xs.shape[0]
        if n == 0:
            return
        batch = RunningCovariance()
        batch._count = n
        if xs.ndim >= 2:
            # Width-independent accumulation (see axis0_sum).
            batch._mean_x = axis0_sum(xs) / n
            batch._mean_y = axis0_sum(ys) / n
            batch._c = axis0_sum(
                (xs - batch._mean_x) * (ys - batch._mean_y)
            )
            batch._m2x = axis0_sum((xs - batch._mean_x) ** 2)
            batch._m2y = axis0_sum((ys - batch._mean_y) ** 2)
        else:
            batch._mean_x = xs.mean(axis=0)
            batch._mean_y = ys.mean(axis=0)
            batch._c = (
                (xs - batch._mean_x) * (ys - batch._mean_y)
            ).sum(axis=0)
            batch._m2x = ((xs - batch._mean_x) ** 2).sum(axis=0)
            batch._m2y = ((ys - batch._mean_y) ** 2).sum(axis=0)
        self.merge(batch)

    def merge(self, other: "RunningCovariance") -> "RunningCovariance":
        """Fold another covariance stream into this one (exact)."""
        if other._mean_x is None:
            return self
        if self._mean_x is None:
            self._count = other._count
            self._mean_x = np.array(other._mean_x, copy=True)
            self._mean_y = np.array(other._mean_y, copy=True)
            self._c = np.array(other._c, copy=True)
            self._m2x = np.array(other._m2x, copy=True)
            self._m2y = np.array(other._m2y, copy=True)
            return self
        na, nb = self._count, other._count
        n = na + nb
        dx = other._mean_x - self._mean_x
        dy = other._mean_y - self._mean_y
        w = na * nb / n
        self._c = self._c + other._c + dx * dy * w
        self._m2x = self._m2x + other._m2x + dx * dx * w
        self._m2y = self._m2y + other._m2y + dy * dy * w
        self._mean_x = self._mean_x + dx * (nb / n)
        self._mean_y = self._mean_y + dy * (nb / n)
        self._count = n
        return self

    @classmethod
    def concat(cls, parts: list["RunningCovariance"]) -> "RunningCovariance":
        """Join node-partitioned vector covariances along the component axis.

        The covariance analogue of :meth:`RunningMoments.concat`: exact
        to the bit, because componentwise co-moment state never crosses
        components.  All parts must be non-empty vector estimators with
        identical pair counts.
        """
        if not parts:
            raise ValueError("concat needs at least one part")
        for i, part in enumerate(parts):
            if part._mean_x is None:
                raise ValueError(f"part {i} has no observations")
            if part._mean_x.ndim == 0:
                raise ValueError(
                    f"part {i} is scalar; concat joins vector estimators"
                )
            if part._count != parts[0]._count:
                raise ValueError(
                    f"part {i} saw {part._count} pairs, part 0 saw "
                    f"{parts[0]._count}; shards must cover the same ticks"
                )
        out = cls()
        out._count = parts[0]._count
        out._mean_x = np.concatenate([p._mean_x for p in parts])
        out._mean_y = np.concatenate([p._mean_y for p in parts])
        out._c = np.concatenate([p._c for p in parts])
        out._m2x = np.concatenate([p._m2x for p in parts])
        out._m2y = np.concatenate([p._m2y for p in parts])
        return out

    def covariance(self, ddof: int = 1) -> np.ndarray | float:
        """Running covariance (sample covariance by default)."""
        if self._c is None or self._count <= ddof:
            raise ValueError(f"need more than {ddof} pairs for ddof={ddof}")
        return RunningMoments._unwrap(self._c / (self._count - ddof))

    def correlation(self) -> np.ndarray | float:
        """Pearson correlation of the two streams."""
        if self._c is None or self._count < 2:
            raise ValueError("need at least two pairs for a correlation")
        denom = np.sqrt(self._m2x * self._m2y)
        if np.any(denom <= 0):
            raise ValueError("correlation undefined for a constant stream")
        return RunningMoments._unwrap(self._c / denom)


class QuantileSketch:
    """Log-bucketed relative-error quantile sketch (DDSketch).

    A positive reading ``w`` falls in bucket ``k = ceil(log(w) / log γ)``
    with ``γ = (1 + α) / (1 − α)``, i.e. ``γ^(k−1) < w <= γ^k``; exact
    zeros keep their own count and negative readings are refused (power
    is non-negative).  Counts live in one dense ``int64`` array that
    spans exactly the lowest to the highest bucket seen, so the state is
    a pure function of the *multiset* of readings: any chunking, order
    or partition of the same samples gives an identical sketch.

    :meth:`quantile` returns the bucket value ``2γ^k / (γ + 1)`` of the
    lower order statistic at rank ``q·(n − 1)`` — within ``α`` of that
    order statistic, relative.  :meth:`merge` adds counts: exact and
    associative, so sharded, served and serial folds report the same
    quantiles bit for bit.
    """

    __slots__ = ("_offset", "_counts", "_zeros", "_count")

    #: log γ, with γ = (1 + α) / (1 − α) and α = QUANTILE_REL_ERROR.
    _LOG_GAMMA = math.log(
        (1.0 + QUANTILE_REL_ERROR) / (1.0 - QUANTILE_REL_ERROR)
    )

    def __init__(self) -> None:
        self._offset = 0  # bucket key of _counts[0]
        self._counts = np.zeros(0, dtype=np.int64)
        self._zeros = 0
        self._count = 0

    @property
    def count(self) -> int:
        """Number of observations pushed."""
        return self._count

    def push_batch(self, xs) -> None:
        """Add any array of readings (one ``np.bincount`` per call)."""
        arr = _as_observation(xs).ravel()
        if arr.size == 0:
            return
        lowest = arr.min()
        if lowest < 0.0:
            raise ValueError("observation contains negative values")
        positive = arr if lowest > 0.0 else arr[arr > 0.0]
        self._zeros += arr.size - positive.size
        self._count += arr.size
        if positive.size == 0:
            return
        keys = np.ceil(np.log(positive) / self._LOG_GAMMA).astype(np.int64)
        lo, hi = int(keys.min()), int(keys.max())
        self._cover(lo, hi)
        self._counts[lo - self._offset : hi - self._offset + 1] += np.bincount(
            keys - lo, minlength=hi - lo + 1
        )

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch's counts into this one (exact).

        Returns ``self`` for chaining.
        """
        if other._counts.size:
            lo = other._offset
            hi = lo + other._counts.size - 1
            self._cover(lo, hi)
            self._counts[lo - self._offset : hi - self._offset + 1] += (
                other._counts
            )
        self._zeros += other._zeros
        self._count += other._count
        return self

    def quantile(self, q: float) -> float:
        """Value of the lower order statistic at rank ``q·(n − 1)``."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            raise ValueError("no observations yet")
        rank = math.floor(q * (self._count - 1))
        if rank < self._zeros:
            return 0.0
        cumulative = np.cumsum(self._counts)
        i = int(np.searchsorted(cumulative, rank - self._zeros, side="right"))
        return (
            2.0 * math.exp((self._offset + i) * self._LOG_GAMMA)
            / (math.exp(self._LOG_GAMMA) + 1.0)
        )

    def _cover(self, lo: int, hi: int) -> None:
        """Grow the dense count array to span bucket keys ``[lo, hi]``."""
        if self._counts.size == 0:
            self._offset = lo
            self._counts = np.zeros(hi - lo + 1, dtype=np.int64)
            return
        cur_hi = self._offset + self._counts.size - 1
        new_lo, new_hi = min(lo, self._offset), max(hi, cur_hi)
        if new_lo == self._offset and new_hi == cur_hi:
            return
        grown = np.zeros(new_hi - new_lo + 1, dtype=np.int64)
        start = self._offset - new_lo
        grown[start : start + self._counts.size] = self._counts
        self._offset, self._counts = new_lo, grown

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self._count == other._count
            and self._zeros == other._zeros
            and self._offset == other._offset
            and np.array_equal(self._counts, other._counts)
        )

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QuantileSketch(count={self._count})"


class P2Quantile:
    """The P² (piecewise-parabolic) streaming quantile estimator.

    Jain & Chlamtac's five-marker summary: O(1) state, no stored
    samples once warmed up.  Accuracy is good on smooth, stationary
    streams (typically well under 1% relative error by a few hundred
    samples) but drifts on non-stationary ones, and it has no exact
    merge.  The streaming fold uses :class:`QuantileSketch`; P² stays
    as the baseline the X-STR audit measures on a stationary stream.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_rate", "_buffer")

    def __init__(self, q: float) -> None:
        if not (0.0 < q < 1.0):
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self._heights: list[float] | None = None
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rate = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._buffer: list[float] = []

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of observations pushed."""
        if self._heights is None:
            return len(self._buffer)
        return int(self._positions[4])

    @property
    def value(self) -> float:
        """Current quantile estimate."""
        if self._heights is not None:
            return self._heights[2]
        if not self._buffer:
            raise ValueError("no observations yet")
        return float(np.quantile(self._buffer, self.q))

    # ------------------------------------------------------------------
    def push(self, x: float) -> None:
        """Add one observation."""
        v = float(x)
        if not math.isfinite(v):
            raise ValueError("observation must be finite")
        if self._heights is None:
            self._buffer.append(v)
            if len(self._buffer) == 5:
                self._buffer.sort()
                self._heights = list(self._buffer)
                self._buffer = []
            return
        self._push_marker(v)

    def push_batch(self, xs) -> None:
        """Add many observations (sequential marker updates)."""
        arr = _as_observation(xs).ravel()
        for v in arr:
            self.push(float(v))

    # ------------------------------------------------------------------
    def _push_marker(self, v: float) -> None:
        h, pos = self._heights, self._positions
        if v < h[0]:
            h[0] = v
            k = 0
        elif v >= h[4]:
            h[4] = v
            k = 3
        else:
            k = 0
            while k < 3 and v >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        n = pos[4]
        for i in range(5):
            self._desired[i] = 1.0 + self._rate[i] * (n - 1.0)
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"P2Quantile(q={self.q}, count={self.count})"

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
* :class:`P2Quantile` — the Jain–Chlamtac P² marker estimator: a fixed
  five-marker summary of one quantile.  Its ``merge`` is a documented
  *approximation* (count-weighted marker interpolation); the exact
  roll-ups above are the ones campaign arithmetic relies on.

No estimator here ever reads a clock or an RNG — push order and values
fully determine the state.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["RunningMoments", "RunningCovariance", "P2Quantile"]


def _as_observation(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("observation contains non-finite values")
    return arr


def _axis0_sum(xs: np.ndarray) -> np.ndarray:
    """Row-sequential sum over the observation axis of a matrix.

    ``ndarray.sum(axis=0)`` takes numpy's pairwise-summation path when
    the reduction stride happens to be contiguous (a single-column
    matrix) and a row-sequential path otherwise — so the *same column
    of samples* would accumulate with different roundings depending on
    how many columns ride along in the batch.  Summing rows explicitly
    pins the sequential order for every width, which is what makes a
    one-node shard's estimator state bit-identical to that node's
    column inside any wider batch (the shard layer's contract).
    """
    total = np.array(xs[0], dtype=np.float64, copy=True)
    for k in range(1, xs.shape[0]):
        total += xs[k]
    return total


class RunningMoments:
    """Welford mean/variance with streaming min/max.

    Each :meth:`push` adds one observation — a scalar, or a vector whose
    shape is fixed at the first push (component ``i`` tracks node ``i``).
    :meth:`push_batch` adds many observations at once using the exact
    batch (Chan) update.
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
            # Width-independent accumulation (see _axis0_sum); for
            # multi-column batches the bits match numpy's own path.
            batch._mean = _axis0_sum(xs) / n
            batch._m2 = _axis0_sum((xs - batch._mean) ** 2)
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
            # Width-independent accumulation (see _axis0_sum).
            batch._mean_x = _axis0_sum(xs) / n
            batch._mean_y = _axis0_sum(ys) / n
            batch._c = _axis0_sum(
                (xs - batch._mean_x) * (ys - batch._mean_y)
            )
            batch._m2x = _axis0_sum((xs - batch._mean_x) ** 2)
            batch._m2y = _axis0_sum((ys - batch._mean_y) ** 2)
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


class P2Quantile:
    """The P² (piecewise-parabolic) streaming quantile estimator.

    Jain & Chlamtac's five-marker summary: O(1) state, no stored
    samples once warmed up.  Accuracy is excellent for the smooth,
    near-normal per-node power distributions the paper studies
    (typically well under 1% relative error by a few hundred samples).

    ``merge`` approximates the combined stream by count-weighted
    interpolation between the two marker sets; unlike
    :meth:`RunningMoments.merge` it is not exact — quantiles, unlike
    moments, cannot be merged exactly from constant-size summaries.
    Any pipeline that reports a merged quantile must surface
    :data:`MERGE_CAVEAT` in its provenance, not just rely on this
    docstring.
    """

    #: Provenance caveat for reports built on merged P² summaries; a
    #: sharded session with more than one shard carries it in
    #: ``ShardSessionResult.notes``.
    MERGE_CAVEAT = (
        "P2 quantile merge is approximate (count-weighted marker "
        "interpolation), not an exact roll-up"
    )

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

    def merge(self, other: "P2Quantile") -> "P2Quantile":
        """Approximate roll-up of another P² summary (count-weighted)."""
        if abs(self.q - other.q) > 1e-12:
            raise ValueError("cannot merge estimators of different quantiles")
        if other.count == 0:
            return self
        if self.count == 0:
            self._heights = None if other._heights is None else list(other._heights)
            self._positions = list(other._positions)
            self._buffer = list(other._buffer)
            return self
        if self._heights is None or other._heights is None:
            # At least one side is still buffering: replay raw samples.
            small, big = (self, other) if self._heights is None else (other, self)
            samples = list(small._buffer)
            if big._heights is None:
                samples += big._buffer
                self._heights = None
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._buffer = []
            else:
                self._heights = list(big._heights)
                self._positions = list(big._positions)
                self._buffer = []
            for v in samples:
                self.push(v)
            return self
        na, nb = self.count, other.count
        wa, wb = na / (na + nb), nb / (na + nb)
        merged = [
            wa * ha + wb * hb for ha, hb in zip(self._heights, other._heights)
        ]
        # The outer markers are true extremes and merge exactly; inner
        # heights interpolate.  Positions re-anchor to the ideal marker
        # positions for the combined count.
        merged[0] = min(self._heights[0], other._heights[0])
        merged[4] = max(self._heights[4], other._heights[4])
        self._heights = sorted(merged)
        n = float(na + nb)
        self._positions = [1.0 + r * (n - 1.0) for r in self._rate]
        return self

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

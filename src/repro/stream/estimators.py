"""Single-pass streaming estimators.

The batch layer computes fleet statistics from fully materialised
arrays (:mod:`repro.analysis.descriptive`); these estimators produce
the same numbers from a stream of samples in O(1) memory per tracked
quantity.  Every per-node sum is a *shifted running sum* (see
:class:`RunningMoments`), added onto one row at a time, so its bits do
not depend on how the stream was batched or which columns rode along.

* :class:`RunningMoments` — mean, variance, min and max, scalar or one
  component per node, with a bit-exact shard ``concat`` and ``merge``
  / ``pooled`` roll-ups exact up to float rounding.
* :class:`MaskedRunningMoments` — the same sums with a count per
  component, so a missing cell adds nothing (recovery's accumulator).
* :class:`RunningCovariance` — the cross sum of a stream with a
  per-observation series, read against the caller's marginal moments.
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
    "MaskedRunningMoments",
    "RunningCovariance",
    "QuantileSketch",
    "P2Quantile",
]

#: Relative accuracy α of :class:`QuantileSketch`: a reported quantile
#: lies within ``α · x`` of the order statistic ``x`` it stands for.
QUANTILE_REL_ERROR = 0.005


def _as_observation(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
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


def _seeded_sum(rows: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """``seed`` plus every row of ``rows``, added one row at a time.

    ``rows`` is a temporary the caller owns: its first row takes the
    seed in place and :func:`axis0_sum` adds the rest in row order.  A
    running sum folded batch by batch this way is one left-to-right sum
    over the whole stream, so its bits do not depend on where the
    batches were cut.
    """
    rows[0] += seed
    return axis0_sum(rows)


def _centred_m2(count, s1, s2):
    """``Σ(x − mean)²`` from shifted sums, clamped at 0 so that rounding
    never turns a constant stream's variance negative."""
    return np.maximum(s2 - s1 * s1 / count, 0.0)


class RunningMoments:
    """Mean, variance, min and max from shifted running sums.

    Each :meth:`push` adds one observation — a scalar, or a vector whose
    shape is fixed at the first push (component ``i`` tracks node ``i``).
    :meth:`push_batch` adds many at once and :meth:`push_each` adds a
    run of scalars and reports every prefix; all three fold through the
    same row-ordered sum, so any split of a stream into pushes gives
    the same bits.

    The state is the shift ``r`` (the first observation), the count
    ``n``, ``S1 = Σ(x − r)``, ``S2 = Σ(x − r)²`` and the extremes.  The
    mean is ``r + S1/n`` and ``m2 = Σ(x − mean)²`` is
    ``max(S2 − S1²/n, 0)``.

    A fold may skip the extremes (the monitor's ratio moments read only
    the mean and the spread); from then on the estimator tracks none,
    and :attr:`minimum` and :attr:`maximum` raise rather than report a
    stale value.

    Rounding bound, for ``n ≤ 10⁷`` observations, unit roundoff
    ``u = 2⁻⁵³`` and exact mean ``μ``::

        |mean − μ|         ≤ (n + 3)·u·(Σ|x − r|/n + |μ|)
        |m2 − Σ(x − μ)²|   ≤ 4(n + 3)·u·Σ(x − r)²

    with ``Σ(x − r)² = Σ(x − μ)² + n(μ − r)²``.  Because ``r`` is one
    of the readings, ``n(μ − r)² ≤ (n − 1)·Σ(x − μ)²``, so the variance
    is within ``4n(n + 3)·u`` relative for any stream (1.6e-10 at
    ``n = 600``), even when the first reading is far from the mean.  A
    constant stream has ``S1 = S2 = 0`` and a variance of exactly 0.
    """

    __slots__ = ("_count", "_shift", "_s1", "_s2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._shift: np.ndarray | None = None
        self._s1: np.ndarray | None = None
        self._s2: np.ndarray | None = None
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
        self._require_data()
        return self._shift.shape

    @property
    def mean(self) -> np.ndarray | float:
        """Running arithmetic mean."""
        self._require_data()
        return self._unwrap(self._shift + self._s1 / self._count)

    @property
    def minimum(self) -> np.ndarray | float:
        """Smallest observation seen."""
        self._require_extremes()
        return self._unwrap(self._min)

    @property
    def maximum(self) -> np.ndarray | float:
        """Largest observation seen."""
        self._require_extremes()
        return self._unwrap(self._max)

    def variance(self, ddof: int = 1) -> np.ndarray | float:
        """Running variance (sample variance by default)."""
        self._require_data()
        if self._count <= ddof:
            raise ValueError(
                f"need more than {ddof} observations for ddof={ddof}"
            )
        return self._unwrap(self._m2() / (self._count - ddof))

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
        """Add one observation (a batch of one).

        A Python float or int (``np.float64`` included) pushed onto a
        scalar estimator takes a plain-float update that leaves every
        field with the bits and types :meth:`push_batch` would; anything
        else goes through :meth:`push_batch`.
        """
        if not isinstance(x, (float, int)) or (
            self._shift is not None and self._shift.ndim != 0
        ):
            self.push_batch(np.asarray(x, dtype=float)[None])
            return
        v = float(x)
        if not math.isfinite(v):
            raise ValueError("observation contains non-finite values")
        if self._shift is None:
            self._start(np.asarray(v))
        d = v - float(self._shift)
        self._s1 = np.float64(float(self._s1) + d)
        self._s2 = np.float64(float(self._s2) + d * d)
        if self._min is not None:
            self._min = np.minimum(self._min, v)
            self._max = np.maximum(self._max, v)
        self._count += 1

    def push_each(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Push scalar observations in order; return every prefix.

        One seeded cumulative sum gives each prefix's ``S1`` and ``S2``,
        the same row-ordered sums :meth:`push` would build one reading
        at a time, so each prefix state — and the final one — has the
        bits of ``len(xs)`` :meth:`push` calls.  Returns the
        ``(count, mean, m2)`` arrays after each observation.  A
        non-finite value raises before the estimator changes.
        """
        xs = _as_observation(xs)
        if xs.ndim != 1:
            raise ValueError("push_each takes a 1-D run of scalars")
        if self._shift is not None and self._shift.ndim != 0:
            raise ValueError("push_each needs a scalar estimator")
        counts = np.arange(
            self._count + 1, self._count + 1 + xs.size, dtype=np.int64
        )
        if xs.size == 0:
            return counts, np.empty(0), np.empty(0)
        if self._shift is None:
            self._start(xs[0])
        d = xs - self._shift
        d2 = d * d
        d[0] += self._s1
        d2[0] += self._s2
        s1, s2 = np.cumsum(d), np.cumsum(d2)
        self._s1, self._s2 = s1[-1], s2[-1]
        if self._min is not None:
            self._min = np.minimum(self._min, xs.min())
            self._max = np.maximum(self._max, xs.max())
        self._count += xs.size
        return counts, self._shift + s1 / counts, _centred_m2(counts, s1, s2)

    def push_batch(self, xs) -> None:
        """Add many observations at once.

        ``xs`` has one more leading axis than a single observation:
        shape ``(n,)`` for a scalar stream, ``(n, n_nodes)`` for a
        per-node vector stream.  The batch's deviations from the shift
        are added onto the running sums row by row, so the state equals
        ``n`` pushes bit for bit.  A non-finite value, or an observation
        of another shape, raises before the estimator changes; the rest
        is :meth:`_fold`, which :class:`~repro.stream.session.FleetFold`
        calls directly on batches it has validated.
        """
        xs = _as_observation(xs)
        if xs.ndim == 0:
            raise ValueError("push_batch needs a leading observation axis")
        if xs.shape[0] == 0:
            return
        if self._shift is not None:
            self._check_shape(xs[0])
        self._fold(xs, self._deviations(xs))

    def _deviations(self, xs: np.ndarray) -> np.ndarray:
        """``xs − r`` for a trusted non-empty batch, taking its first
        row as the shift ``r`` if the stream has none yet."""
        if self._shift is None:
            self._start(xs[0])
        return xs - self._shift

    def _fold(
        self, xs: np.ndarray, d: np.ndarray, *, extremes: bool = True
    ) -> None:
        """Add a trusted non-empty batch ``xs`` whose deviations
        :meth:`_deviations` returned as ``d``.

        ``d`` is consumed: its first row takes the running sum in
        place.  ``extremes=False`` skips (and from then on drops) the
        minimum and maximum.
        """
        d2 = d * d
        self._s1 = _seeded_sum(d, self._s1)
        self._s2 = _seeded_sum(d2, self._s2)
        if extremes and self._min is not None:
            self._min = np.minimum(self._min, xs.min(axis=0))
            self._max = np.maximum(self._max, xs.max(axis=0))
        else:
            self._min = self._max = None
        self._count += xs.shape[0]

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """Fold another estimator's stream into this one.

        ``other``'s sums are moved onto this shift,
        ``Σ(x − r) = S1' + n'c`` and ``Σ(x − r)² = S2' + c(2S1' + n'c)``
        with ``c = r' − r``, and added: the merged state equals (to
        rounding) a single pass over the concatenated streams.  Returns
        ``self`` for chaining.
        """
        if other._shift is None:
            return self
        if self._shift is None:
            self._adopt(other)
            return self
        self._check_shape(other._shift)
        c = other._shift - self._shift
        n = other._count
        self._s1 = self._s1 + (other._s1 + n * c)
        self._s2 = self._s2 + (other._s2 + c * (2.0 * other._s1 + n * c))
        if self._min is None or other._min is None:
            self._min = self._max = None
        else:
            self._min = np.minimum(self._min, other._min)
            self._max = np.maximum(self._max, other._max)
        self._count += n
        return self

    @classmethod
    def concat(cls, parts: list["RunningMoments"]) -> "RunningMoments":
        """Join node-partitioned vector estimators along the component axis.

        The shard reduction: when a fleet's nodes are partitioned into
        contiguous ranges and each shard tracks a vector estimator over
        *its* nodes only, the full-fleet estimator is the ordered
        concatenation of the per-shard component arrays.  Because every
        component's sums depend only on its own stream, this roll-up is
        *exact to the bit* — unlike :meth:`merge`, no floating-point
        combination happens at all, so the result is independent of how
        many shards the fleet was split into.

        All parts must be non-empty vector estimators (``ndim >= 1``)
        with identical observation counts (every shard saw the same
        ticks).
        """
        if not parts:
            raise ValueError("concat needs at least one part")
        for i, part in enumerate(parts):
            if part._shift is None:
                raise ValueError(f"part {i} has no observations")
            if part._shift.ndim == 0:
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
        for name in ("_shift", "_s1", "_s2", "_min", "_max"):
            arrays = [getattr(part, name) for part in parts]
            if any(a is None for a in arrays):  # some part drops extremes
                setattr(out, name, None)
            else:
                setattr(out, name, np.concatenate(arrays))
        return out

    def pooled(self) -> "RunningMoments":
        """Collapse a vector estimator into one scalar estimator.

        The per-node → fleet roll-up: treats every component's stream as
        part of one pooled sample.  Exact up to rounding — the
        law-of-total-variance identity.  The result is shifted to the
        grand mean, so its ``S1`` is 0 and its ``S2`` is the pooled
        ``m2``.
        """
        self._require_data()
        out = RunningMoments()
        if self._shift.ndim == 0:
            out._adopt(self)
            return out
        means = self._shift + self._s1 / self._count
        grand = float(means.mean())
        out._count = self._count * means.size
        out._shift = np.asarray(grand)
        out._s1 = np.asarray(0.0)
        out._s2 = np.asarray(
            float(self._m2().sum())
            + self._count * float(((means - grand) ** 2).sum())
        )
        if self._min is not None:
            out._min = np.asarray(float(self._min.min()))
            out._max = np.asarray(float(self._max.max()))
        return out

    # ------------------------------------------------------------------
    def _m2(self) -> np.ndarray:
        return _centred_m2(self._count, self._s1, self._s2)

    def _start(self, first: np.ndarray) -> None:
        self._shift = np.array(first, dtype=float)
        self._s1 = np.zeros_like(self._shift)
        self._s2 = np.zeros_like(self._shift)
        self._min = self._shift.copy()
        self._max = self._shift.copy()

    def _adopt(self, other: "RunningMoments") -> None:
        self._count = other._count
        for name in ("_shift", "_s1", "_s2", "_min", "_max"):
            value = getattr(other, name)
            if value is not None:
                value = np.array(value, copy=True)
            setattr(self, name, value)

    def _check_shape(self, arr: np.ndarray) -> None:
        if arr.shape != self._shift.shape:
            raise ValueError(
                f"observation shape {arr.shape} does not match "
                f"estimator shape {self._shift.shape}"
            )

    def _require_data(self) -> None:
        if self._shift is None:
            raise ValueError("no observations yet")

    def _require_extremes(self) -> None:
        self._require_data()
        if self._min is None:
            raise ValueError("this estimator does not track extremes")

    @staticmethod
    def _unwrap(arr: np.ndarray):
        return float(arr) if arr.ndim == 0 else arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._shift is None:
            return "RunningMoments(empty)"
        return f"RunningMoments(count={self._count}, shape={self.shape})"


class MaskedRunningMoments:
    """:class:`RunningMoments`' shifted sums with a count per component.

    Each of the ``n_components`` columns keeps its own count, shift
    (its first valid reading) and sums: a masked cell adds zero and
    does not count, so pushing rows with a validity mask advances only
    the valid columns.  The sums fold row by row exactly as
    :class:`RunningMoments`' do, so the state is bit-identical for any
    batching of the same rows, and a column matches the same readings
    pushed unmasked into a :class:`RunningMoments`.
    """

    __slots__ = ("_count", "_shift", "_s1", "_s2")

    def __init__(self, n_components: int) -> None:
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self._count = np.zeros(n_components, dtype=np.int64)
        self._shift = np.zeros(n_components)
        self._s1 = np.zeros(n_components)
        self._s2 = np.zeros(n_components)

    @property
    def count(self) -> np.ndarray:
        """Valid samples per component."""
        return self._count.copy()

    def push_row(self, values: np.ndarray, valid: np.ndarray) -> None:
        """Fold one row in; only ``valid`` columns advance."""
        self.push_batch(np.asarray(values)[None], np.asarray(valid)[None])

    def push_batch(self, rows: np.ndarray, valid: np.ndarray) -> None:
        """Fold ``(n_rows, n_components)`` rows in, in row order.

        Only the cells ``valid`` marks count; the others may hold any
        value, NaN included.
        """
        rows = np.asarray(rows, dtype=float)
        valid = np.asarray(valid, dtype=bool)
        if rows.shape[1:] != self._shift.shape or valid.shape != rows.shape:
            raise ValueError("row shape must match n_components and mask")
        if rows.shape[0] == 0:
            return
        fresh = (self._count == 0) & valid.any(axis=0)
        if fresh.any():
            first = rows[valid.argmax(axis=0), np.arange(rows.shape[1])]
            self._shift = np.where(fresh, first, self._shift)
        d = np.where(valid, rows - self._shift, 0.0)
        d2 = d * d
        self._s1 = _seeded_sum(d, self._s1)
        self._s2 = _seeded_sum(d2, self._s2)
        self._count = self._count + valid.sum(axis=0)

    @property
    def mean(self) -> np.ndarray:
        """Per-component mean (NaN where no samples)."""
        n = np.maximum(self._count, 1)
        return np.where(self._count > 0, self._shift + self._s1 / n, np.nan)

    @property
    def variance(self) -> np.ndarray:
        """Per-component sample variance, ddof=1 (NaN below 2)."""
        m2 = _centred_m2(np.maximum(self._count, 1), self._s1, self._s2)
        return np.where(
            self._count > 1, m2 / np.maximum(self._count - 1, 1), np.nan
        )

    @property
    def std(self) -> np.ndarray:
        """Per-component sample standard deviation."""
        return np.sqrt(self.variance)


class RunningCovariance:
    """Cross sum of a stream ``x`` with a per-observation series ``y``.

    ``x`` is scalar or a vector (one component per node) and ``y`` holds
    one value per observation — the fold's per-tick fleet series.  The
    state is the count, the shifts ``r_x`` and ``r_y`` (the first ``x``
    and ``y``) and ``Sxy = Σ(x − r_x)(y − r_y)``, folded row by row like
    :class:`RunningMoments`' sums: the same bits for any batching, and
    a column's bits do not depend on its neighbours.

    The marginal sums are not kept twice: :meth:`covariance` and
    :meth:`correlation` take the :class:`RunningMoments` of ``x`` and of
    ``y`` that the caller keeps over the same stream (the fold's
    per-node moments and its fleet-series moments), and refuse a pair
    with another count or shift.  Used to track how strongly a node's
    draw co-moves with the fleet average (a fully common-mode fleet has
    correlation ≈ 1; a node with private excursions decoheres).
    """

    __slots__ = ("_count", "_shift_x", "_shift_y", "_sxy")

    def __init__(self) -> None:
        self._count = 0
        self._shift_x: np.ndarray | None = None
        self._shift_y: np.ndarray | None = None
        self._sxy: np.ndarray | None = None

    @property
    def count(self) -> int:
        """Number of observations pushed."""
        return self._count

    def push_batch(self, xs, ys) -> None:
        """Add ``n`` observations ``xs`` with their ``(n,)`` series ``ys``.

        A non-finite value, or a shape that does not match, raises
        before the estimator changes.
        """
        xs, ys = _as_observation(xs), _as_observation(ys)
        if xs.ndim == 0:
            raise ValueError("push_batch needs a leading observation axis")
        if ys.shape != xs.shape[:1]:
            raise ValueError("ys must hold one value per observation of xs")
        if xs.shape[0] == 0:
            return
        if self._sxy is not None and xs.shape[1:] != self._shift_x.shape:
            raise ValueError(
                f"observation shape {xs.shape[1:]} does not match "
                f"estimator shape {self._shift_x.shape}"
            )
        shift_x = xs[0] if self._sxy is None else self._shift_x
        self._fold(xs - shift_x, ys, shift_x)

    def _fold(self, dx: np.ndarray, ys: np.ndarray, shift_x) -> None:
        """Add a trusted non-empty batch by its deviations ``dx = xs −
        shift_x`` from the ``x`` shift, which the first batch adopts.

        :class:`~repro.stream.session.FleetFold` passes the node
        moments' deviations here: both shifts are the first row of the
        first batch, so they are the same array bit for bit.
        """
        n = dx.shape[0]
        if self._sxy is None:
            self._shift_x = np.array(shift_x, dtype=float)
            self._shift_y = np.array(ys[0], dtype=float)
            self._sxy = np.zeros_like(self._shift_x)
        dy = (ys - self._shift_y).reshape((n,) + (1,) * (dx.ndim - 1))
        self._sxy = _seeded_sum(dx * dy, self._sxy)
        self._count += n

    @classmethod
    def concat(cls, parts: list["RunningCovariance"]) -> "RunningCovariance":
        """Join node-partitioned vector covariances along the component axis.

        The covariance analogue of :meth:`RunningMoments.concat`: exact
        to the bit, because a column's cross sum never reads another
        column.  All parts must be non-empty vector estimators that saw
        the same ``y`` series (equal counts and ``y`` shifts).
        """
        if not parts:
            raise ValueError("concat needs at least one part")
        for i, part in enumerate(parts):
            if part._sxy is None:
                raise ValueError(f"part {i} has no observations")
            if part._sxy.ndim == 0:
                raise ValueError(
                    f"part {i} is scalar; concat joins vector estimators"
                )
            if (
                part._count != parts[0]._count
                or part._shift_y != parts[0]._shift_y
            ):
                raise ValueError(
                    f"part {i} saw another series than part 0; shards "
                    "must cover the same ticks"
                )
        out = cls()
        out._count = parts[0]._count
        out._shift_y = parts[0]._shift_y.copy()
        out._shift_x = np.concatenate([p._shift_x for p in parts])
        out._sxy = np.concatenate([p._sxy for p in parts])
        return out

    def covariance(
        self, x: RunningMoments, y: RunningMoments, ddof: int = 1
    ) -> np.ndarray | float:
        """Running covariance (sample covariance by default)."""
        c = self._co_moment(x, y)
        if self._count <= ddof:
            raise ValueError(f"need more than {ddof} pairs for ddof={ddof}")
        return RunningMoments._unwrap(c / (self._count - ddof))

    def correlation(
        self, x: RunningMoments, y: RunningMoments
    ) -> np.ndarray | float:
        """Pearson correlation of the two streams."""
        c = self._co_moment(x, y)
        if self._count < 2:
            raise ValueError("need at least two pairs for a correlation")
        denom = np.sqrt(x._m2() * y._m2())
        if np.any(denom <= 0):
            raise ValueError("correlation undefined for a constant stream")
        return RunningMoments._unwrap(c / denom)

    def _co_moment(self, x: RunningMoments, y: RunningMoments) -> np.ndarray:
        """``Σ(x − mean_x)(y − mean_y)`` from the cross and marginal sums."""
        if self._sxy is None:
            raise ValueError("no observations yet")
        if (
            x._count != self._count
            or y._count != self._count
            or not np.array_equal(x._shift, self._shift_x)
            or not np.array_equal(y._shift, self._shift_y)
        ):
            raise ValueError(
                "marginal moments must cover the covariance's own stream"
            )
        return self._sxy - x._s1 * y._s1 / self._count


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
        """Add any array of readings (one ``np.bincount`` per call).

        A non-finite or negative reading raises before the sketch
        changes.
        """
        arr = _as_observation(xs).ravel()
        if arr.size == 0:
            return
        lowest = arr.min()
        if lowest < 0.0:
            raise ValueError("observation contains negative values")
        self._fold(arr, lowest)

    def _fold(self, arr: np.ndarray, lowest: float) -> None:
        """Add trusted finite, non-negative readings ``arr`` (any shape,
        not empty) whose smallest value is ``lowest``."""
        arr = arr.ravel()
        positive = arr if lowest > 0.0 else arr[arr > 0.0]
        self._zeros += arr.size - positive.size
        self._count += arr.size
        if positive.size == 0:
            return
        keys = np.log(positive)
        keys /= self._LOG_GAMMA
        np.ceil(keys, out=keys)
        keys = keys.astype(np.int64)
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

"""Tests for repro.stream.estimators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.stream.estimators import (
    QUANTILE_REL_ERROR,
    MaskedRunningMoments,
    P2Quantile,
    QuantileSketch,
    RunningCovariance,
    RunningMoments,
)

#: Unit roundoff of float64.
_U = 2.0 ** -53


def _state_bits(est) -> tuple:
    """Every field of an accumulator's state, as exact bytes."""
    return tuple(
        np.asarray(getattr(est, name)).tobytes() for name in est.__slots__
    )


@pytest.fixture()
def samples() -> np.ndarray:
    return np.random.default_rng(42).normal(200.0, 15.0, size=5000)


class TestRunningMoments:
    def test_matches_numpy(self, samples):
        m = RunningMoments()
        for x in samples:
            m.push(x)
        assert float(np.asarray(m.mean)) == pytest.approx(
            samples.mean(), rel=1e-12
        )
        assert float(np.asarray(m.variance())) == pytest.approx(
            samples.var(ddof=1), rel=1e-12
        )
        assert float(np.asarray(m.minimum)) == samples.min()
        assert float(np.asarray(m.maximum)) == samples.max()

    def test_push_batch_equals_push_loop(self, samples):
        a, b = RunningMoments(), RunningMoments()
        for x in samples:
            a.push(x)
        b.push_batch(samples)
        assert _state_bits(b) == _state_bits(a)
        assert float(np.asarray(b.mean)) == float(np.asarray(a.mean))
        assert float(np.asarray(b.variance())) == float(
            np.asarray(a.variance())
        )

    @settings(max_examples=100, deadline=None)
    @example(first=1e12, rest=[250.0, 251.5, 0.0, 249.0])
    @example(first=-0.0, rest=[0.0, -0.0, 5e-324, -5e-324])
    @given(
        first=st.floats(-1e150, 1e150),
        rest=st.lists(
            st.one_of(
                st.floats(-1e150, 1e150),
                st.integers(-(2**53), 2**53),
                st.sampled_from([0.0, -0.0, 1e150, -1e150]),
            ),
            max_size=60,
        ),
    )
    def test_scalar_push_has_the_push_batch_state(self, first, rest):
        # The plain-float path leaves every slot with the bits and the
        # type of a one-row push_batch, from the first push on.
        fast, batched = RunningMoments(), RunningMoments()
        for x in [first, *rest]:
            fast.push(x)
            batched.push_batch(np.asarray(x, dtype=float)[None])
            assert [type(getattr(fast, n)) for n in fast.__slots__] == [
                type(getattr(batched, n)) for n in batched.__slots__
            ]
            assert _state_bits(fast) == _state_bits(batched)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_push_refuses_non_finite(self, bad):
        for head in ([], [3.0, 4.0]):
            m = RunningMoments()
            for x in head:
                m.push(x)
            before = _state_bits(m)
            with pytest.raises(ValueError, match="non-finite"):
                m.push(bad)
            assert _state_bits(m) == before
            assert m.count == len(head)

    @pytest.mark.parametrize("head", [0, 1, 7])
    def test_push_each_has_the_push_loop_bits(self, samples, head):
        # Every prefix, and the final state, bit for bit — both from an
        # empty estimator and continuing one that already holds data.
        looped, each = RunningMoments(), RunningMoments()
        for x in samples[:head]:
            looped.push(x)
            each.push(x)
        prefixes = []
        for x in samples[head:300]:
            looped.push(x)
            prefixes.append((looped.count, looped.mean,
                             looped.variance(ddof=0)))
        counts, means, m2s = each.push_each(samples[head:300])
        assert counts.tolist() == [c for c, _, _ in prefixes]
        assert means.tobytes() == (
            np.array([m for _, m, _ in prefixes]).tobytes()
        )
        assert (m2s / counts).tobytes() == (
            np.array([v for _, _, v in prefixes]).tobytes()
        )
        for attr in ("mean", "minimum", "maximum"):
            assert np.asarray(getattr(each, attr)).tobytes() == (
                np.asarray(getattr(looped, attr)).tobytes()
            )
        assert each.count == looped.count

    def test_push_each_rejects_before_changing_state(self, samples):
        m = RunningMoments()
        m.push_batch(samples[:10])
        before = (m.count, m.mean, m.variance())
        with pytest.raises(ValueError, match="non-finite"):
            m.push_each([200.0, float("nan")])
        assert (m.count, m.mean, m.variance()) == before
        vector = RunningMoments()
        vector.push(np.zeros(3))
        with pytest.raises(ValueError, match="scalar"):
            vector.push_each([1.0])

    def test_merge_exact(self, samples):
        left, right = RunningMoments(), RunningMoments()
        left.push_batch(samples[:1700])
        right.push_batch(samples[1700:])
        merged = left.merge(right)
        assert float(np.asarray(merged.mean)) == pytest.approx(
            samples.mean(), rel=1e-12
        )
        assert float(np.asarray(merged.variance())) == pytest.approx(
            samples.var(ddof=1), rel=1e-12
        )
        assert merged.count == samples.size

    def test_merge_with_empty(self, samples):
        m = RunningMoments()
        m.push_batch(samples)
        merged = m.merge(RunningMoments())
        assert merged.count == samples.size
        assert float(np.asarray(merged.mean)) == pytest.approx(
            samples.mean(), rel=1e-12
        )

    def test_vector_state_and_pooled(self, samples):
        mat = samples.reshape(-1, 4)
        m = RunningMoments()
        m.push_batch(mat)
        np.testing.assert_allclose(
            np.asarray(m.mean), mat.mean(axis=0), rtol=1e-12
        )
        pooled = m.pooled()
        assert float(np.asarray(pooled.mean)) == pytest.approx(
            samples.mean(), rel=1e-12
        )
        assert float(np.asarray(pooled.variance())) == pytest.approx(
            samples.var(ddof=1), rel=1e-12
        )

    def test_cv(self, samples):
        m = RunningMoments()
        m.push_batch(samples)
        assert float(np.asarray(m.cv())) == pytest.approx(
            samples.std(ddof=1) / samples.mean(), rel=1e-12
        )

    def test_variance_needs_two(self):
        m = RunningMoments()
        m.push(1.0)
        with pytest.raises(ValueError, match="more than"):
            m.variance()

    def test_fold_without_extremes_never_reports_them(self, samples):
        # Same sums as push_batch; the extremes stay unread, not stale,
        # through later pushes, concat, merge and pooling.
        rows = samples.reshape(-1, 4)
        tracked, untracked = RunningMoments(), RunningMoments()
        tracked.push_batch(rows)
        untracked._fold(rows, untracked._deviations(rows), extremes=False)
        untracked.push_batch(rows[:3])
        tracked.push_batch(rows[:3])
        np.testing.assert_array_equal(untracked.mean, tracked.mean)
        np.testing.assert_array_equal(untracked.std(), tracked.std())
        joined = RunningMoments.concat([tracked, untracked])
        merged = RunningMoments().merge(tracked).merge(untracked)
        for m in (untracked, joined, merged, untracked.pooled()):
            for read in ("minimum", "maximum"):
                with pytest.raises(ValueError, match="extremes"):
                    getattr(m, read)


def _fsum_reference(xs: np.ndarray) -> tuple[float, float]:
    """Mean and ``Σ(x − mean)²``, each to a few ulps, via ``math.fsum``."""
    mu = math.fsum(xs) / xs.size
    return mu, math.fsum((x - mu) ** 2 for x in xs.tolist())


class TestRoundingBound:
    """The bound the RunningMoments docstring states, against fsum."""

    @staticmethod
    def _stream(kind: str) -> np.ndarray:
        rng = np.random.default_rng(2015)
        if kind == "noisy":
            return rng.normal(300.0, 12.0, 600)
        if kind == "ramp":
            return np.linspace(180.0, 420.0, 600) + rng.normal(0.0, 1.0, 600)
        # The first reading lies 1e4 sigma from the rest of the stream.
        xs = rng.normal(300.0, 1e-3, 600)
        xs[0] = 300.0 + 1e4 * 1e-3
        return xs

    @pytest.mark.parametrize("kind", ["noisy", "ramp", "far_first_reading"])
    @pytest.mark.parametrize("batch", [1, 7, 600])
    def test_within_the_stated_bound(self, kind, batch):
        xs = self._stream(kind)
        m = RunningMoments()
        for i in range(0, xs.size, batch):
            m.push_batch(xs[i:i + batch])
        n, r = xs.size, xs[0]
        mu, m2 = _fsum_reference(xs)
        abs_dev = math.fsum(abs(x - r) for x in xs.tolist())
        shifted_s2 = math.fsum((x - r) ** 2 for x in xs.tolist())
        # The reference itself is good to a few ulps: allow 4u on top.
        mean_bound = (n + 3) * _U * (abs_dev / n + abs(mu)) + 4 * _U * abs(mu)
        m2_bound = 4 * (n + 3) * _U * shifted_s2 * (1 + 4 * _U) + 4 * _U * m2
        assert abs(float(m.mean) - mu) <= mean_bound
        assert abs(float(m.variance(ddof=0)) * n - m2) <= m2_bound
        # The stream-independent form: 4n(n + 3)u relative on m2.
        assert abs(float(m.variance(ddof=0)) * n - m2) <= (
            4 * n * (n + 3) * _U * m2 * (1 + 1e-9) + 4 * _U * m2
        )

    def test_constant_column_has_zero_variance(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(250.0, 9.0, (600, 3))
        xs[:, 1] = 287.3
        m = RunningMoments()
        for i in range(0, 600, 64):
            m.push_batch(xs[i:i + 64])
        var = m.variance()
        assert var[1] == 0.0
        assert np.asarray(m.std())[1] == 0.0
        assert np.all(np.isfinite(np.asarray(m.std())))
        assert m.mean[1] == 287.3
        scalar = RunningMoments()
        scalar.push_each(np.full(50, 1e-3))
        assert scalar.variance() == 0.0


#: Widths the batching properties cover, from one node to a wide fleet.
_WIDTHS = (1, 2, 7, 64, 1024)


def _cuts(draw_list, n_rows: int) -> list[int]:
    return sorted({c % n_rows for c in draw_list} - {0})


class TestBatchingIndependence:
    """Any cut of a stream into batches gives the one-pass state bits,
    and a column streamed alone has the bits of that column in a wide
    stream — what lets shards concatenate and routes agree."""

    @staticmethod
    def _rows(width: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        level = rng.uniform(100.0, 400.0, width)
        return level + rng.normal(0.0, 15.0, (600, width))

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(_WIDTHS),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 599), max_size=40),
    )
    def test_moments_any_batching_equals_one_pass(self, width, seed, cuts):
        rows = self._rows(width, seed)
        whole = RunningMoments()
        whole.push_batch(rows)
        split = RunningMoments()
        for part in np.split(rows, _cuts(cuts, 600)):
            split.push_batch(part)
        assert split.count == whole.count
        assert _state_bits(split) == _state_bits(whole)
        fleet = rows.mean(axis=1)
        cov_whole, cov_split = RunningCovariance(), RunningCovariance()
        cov_whole.push_batch(rows, fleet)
        for part, f in zip(
            np.split(rows, _cuts(cuts, 600)),
            np.split(fleet, _cuts(cuts, 600)),
        ):
            cov_split.push_batch(part, f)
        assert _state_bits(cov_split) == _state_bits(cov_whole)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(_WIDTHS[1:]), st.integers(0, 2**32 - 1),
           st.data())
    def test_column_slice_equals_wide_column(self, width, seed, data):
        rows = self._rows(width, seed)
        lo = data.draw(st.integers(0, width - 1))
        hi = data.draw(st.integers(lo + 1, width))
        fleet = rows.mean(axis=1)
        wide, part = RunningMoments(), RunningMoments()
        wide_cov, part_cov = RunningCovariance(), RunningCovariance()
        for i in range(0, 600, 60):
            wide.push_batch(rows[i:i + 60])
            part.push_batch(rows[i:i + 60, lo:hi])
            wide_cov.push_batch(rows[i:i + 60], fleet[i:i + 60])
            part_cov.push_batch(rows[i:i + 60, lo:hi], fleet[i:i + 60])
        for name in ("_shift", "_s1", "_s2", "_min", "_max"):
            assert getattr(part, name).tobytes() == (
                getattr(wide, name)[lo:hi].tobytes()
            )
        assert part_cov._sxy.tobytes() == wide_cov._sxy[lo:hi].tobytes()
        assert np.array_equal(
            part.variance(), np.asarray(wide.variance())[lo:hi]
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(_WIDTHS),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.9),
        st.lists(st.integers(1, 599), max_size=40),
    )
    def test_masked_any_batching_equals_one_pass(
        self, width, seed, hole_rate, cuts
    ):
        rows = self._rows(width, seed)
        valid = np.random.default_rng(seed + 1).random(rows.shape) >= hole_rate
        rows = np.where(valid, rows, np.nan)
        whole = MaskedRunningMoments(width)
        whole.push_batch(rows, valid)
        split = MaskedRunningMoments(width)
        for part, mask in zip(
            np.split(rows, _cuts(cuts, 600)),
            np.split(valid, _cuts(cuts, 600)),
        ):
            split.push_batch(part, mask)
        assert _state_bits(split) == _state_bits(whole)
        by_row = MaskedRunningMoments(width)
        for row, mask in zip(rows, valid):
            by_row.push_row(row, mask)
        assert _state_bits(by_row) == _state_bits(whole)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(_WIDTHS[1:]), st.integers(0, 2**32 - 1),
           st.floats(0.0, 0.9), st.data())
    def test_masked_column_slice_equals_wide_column(
        self, width, seed, hole_rate, data
    ):
        rows = self._rows(width, seed)
        valid = np.random.default_rng(seed + 1).random(rows.shape) >= hole_rate
        lo = data.draw(st.integers(0, width - 1))
        hi = data.draw(st.integers(lo + 1, width))
        wide, part = MaskedRunningMoments(width), MaskedRunningMoments(hi - lo)
        for i in range(0, 600, 60):
            wide.push_batch(rows[i:i + 60], valid[i:i + 60])
            part.push_batch(rows[i:i + 60, lo:hi], valid[i:i + 60, lo:hi])
        for name in MaskedRunningMoments.__slots__:
            assert getattr(part, name).tobytes() == (
                getattr(wide, name)[lo:hi].tobytes()
            )

    def test_all_valid_masked_column_equals_running_moments(self):
        rows = self._rows(7, 5)
        masked = MaskedRunningMoments(7)
        masked.push_batch(rows, np.ones(rows.shape, dtype=bool))
        plain = RunningMoments()
        plain.push_batch(rows)
        assert masked.mean.tobytes() == np.asarray(plain.mean).tobytes()
        assert masked.variance.tobytes() == (
            np.asarray(plain.variance()).tobytes()
        )


class TestRunningCovariance:
    def test_matches_numpy(self, samples):
        y = 0.5 * samples + np.random.default_rng(7).normal(
            0.0, 5.0, samples.size
        )
        c = RunningCovariance()
        c.push_batch(samples, y)
        mx, my = _moments(samples), _moments(y)
        expected = np.cov(samples, y, ddof=1)[0, 1]
        assert float(np.asarray(c.covariance(mx, my))) == pytest.approx(
            expected, rel=1e-10
        )
        expected_r = np.corrcoef(samples, y)[0, 1]
        assert float(np.asarray(c.correlation(mx, my))) == pytest.approx(
            expected_r, rel=1e-10
        )

    def test_vector_columns_match_numpy(self):
        rng = np.random.default_rng(11)
        y = rng.normal(300.0, 20.0, 400)
        xs = y[:, None] * [1.0, 0.5, 0.0] + rng.normal(0.0, 4.0, (400, 3))
        c = RunningCovariance()
        c.push_batch(xs, y)
        r = c.correlation(_moments(xs), _moments(y))
        for j in range(3):
            assert r[j] == pytest.approx(
                np.corrcoef(xs[:, j], y)[0, 1], rel=1e-10
            )

    def test_refuses_marginals_of_another_stream(self, samples):
        y = samples[::-1].copy()
        c = RunningCovariance()
        c.push_batch(samples, y)
        with pytest.raises(ValueError, match="marginal"):
            c.covariance(_moments(samples[1:]), _moments(y[1:]))
        with pytest.raises(ValueError, match="marginal"):
            c.correlation(_moments(y), _moments(samples))
        with pytest.raises(ValueError, match="one value per observation"):
            c.push_batch(samples[:4], y[:3])


#: Well-conditioned "node watts"-like values: positive, bounded spread,
#: so the exact-merge identities hold to ~1e-9 relative without being
#: swamped by catastrophic cancellation on adversarial floats.
_watt_streams = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=1.0, max_value=1e4),
)


def _moments(xs: np.ndarray) -> RunningMoments:
    m = RunningMoments()
    m.push_batch(xs)
    return m


def _close(a, b, rel=1e-9):
    assert float(np.asarray(a)) == pytest.approx(float(np.asarray(b)), rel=rel)


class TestMergeAlgebra:
    """Metamorphic determinism properties the parallel runner leans on:
    partial-stream merges must be associative and order-insensitive, or
    sharded telemetry would depend on which worker finished first."""

    @settings(max_examples=50, deadline=None)
    @given(_watt_streams, _watt_streams, _watt_streams)
    def test_moments_merge_associative(self, xs, ys, zs):
        left = _moments(xs).merge(_moments(ys)).merge(_moments(zs))
        right = _moments(xs).merge(_moments(ys).merge(_moments(zs)))
        assert left.count == right.count == xs.size + ys.size + zs.size
        _close(left.mean, right.mean)
        _close(left.minimum, right.minimum, rel=0)
        _close(left.maximum, right.maximum, rel=0)
        if left.count > 1:
            _close(left.variance(), right.variance(), rel=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(_watt_streams, _watt_streams)
    def test_moments_merge_commutes(self, xs, ys):
        ab = _moments(xs).merge(_moments(ys))
        ba = _moments(ys).merge(_moments(xs))
        _close(ab.mean, ba.mean)
        if ab.count > 1:
            _close(ab.variance(), ba.variance(), rel=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=2, max_value=60),
            elements=st.floats(min_value=1.0, max_value=1e4),
        ),
        st.randoms(use_true_random=False),
    )
    def test_moments_permutation_invariant(self, xs, shuffler):
        order = list(range(xs.size))
        shuffler.shuffle(order)
        direct = _moments(xs)
        shuffled = _moments(xs[np.asarray(order)])
        assert direct.count == shuffled.count
        _close(direct.mean, shuffled.mean)
        _close(direct.minimum, shuffled.minimum, rel=0)
        _close(direct.maximum, shuffled.maximum, rel=0)
        _close(direct.variance(), shuffled.variance(), rel=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=2, max_value=60),
            elements=st.floats(min_value=1.0, max_value=1e4),
        ),
        st.randoms(use_true_random=False),
    )
    def test_covariance_permutation_invariant(self, xs, shuffler):
        ys = np.log(xs)
        order = list(range(xs.size))
        shuffler.shuffle(order)
        idx = np.asarray(order)
        direct = RunningCovariance()
        direct.push_batch(xs, ys)
        shuffled = RunningCovariance()
        shuffled.push_batch(xs[idx], ys[idx])
        _close(
            direct.covariance(_moments(xs), _moments(ys)),
            shuffled.covariance(_moments(xs[idx]), _moments(ys[idx])),
            rel=1e-8,
        )


class TestP2Quantile:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.95])
    def test_accuracy_on_stationary_stream(self, samples, q):
        est = P2Quantile(q)
        est.push_batch(samples)
        exact = np.quantile(samples, q)
        assert est.value == pytest.approx(exact, rel=0.01)

    def test_small_sample_exact(self):
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.push(x)
        assert est.value == pytest.approx(3.0)

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            P2Quantile(0.0)
        with pytest.raises(ValueError, match="quantile"):
            P2Quantile(1.0)

    def test_empty_value_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            P2Quantile(0.5).value


#: Non-negative readings spanning zero, sub-watt and multi-kW values.
_readings = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=1e5),
    ),
)


def _sketch(*chunks) -> QuantileSketch:
    out = QuantileSketch()
    for chunk in chunks:
        out.push_batch(chunk)
    return out


def _order_statistic(xs: np.ndarray, q: float) -> float:
    """The lower order statistic at rank q·(n − 1)."""
    return float(np.sort(xs)[math.floor(q * (xs.size - 1))])


class TestQuantileSketch:
    @settings(max_examples=80, deadline=None)
    @given(_readings, st.lists(st.integers(0, 200), max_size=6))
    def test_any_chunking_equals_one_pass(self, xs, cuts):
        pieces = np.split(xs, sorted(c % (xs.size + 1) for c in cuts))
        assert _sketch(*pieces) == _sketch(xs)

    @settings(max_examples=80, deadline=None)
    @given(_readings, st.randoms(use_true_random=False), st.integers(1, 5))
    def test_merge_of_any_partition_equals_one_pass(self, xs, rnd, k):
        labels = np.asarray([rnd.randrange(k) for _ in range(xs.size)])
        parts = [_sketch(xs[labels == i]) for i in range(k)]
        merged = QuantileSketch()
        for part in parts:
            merged.merge(part)
        assert merged == _sketch(xs)

    @settings(max_examples=60, deadline=None)
    @given(_readings, _readings, _readings)
    def test_merge_associative(self, xs, ys, zs):
        left = _sketch(xs).merge(_sketch(ys)).merge(_sketch(zs))
        right = _sketch(xs).merge(_sketch(ys).merge(_sketch(zs)))
        assert left == right
        assert left.count == xs.size + ys.size + zs.size

    @settings(max_examples=80, deadline=None)
    @given(_readings, st.floats(min_value=0.0, max_value=1.0))
    def test_within_alpha_of_the_order_statistic(self, xs, q):
        exact = _order_statistic(xs, q)
        est = _sketch(xs).quantile(q)
        # A reading on a bucket boundary may round into the next bucket,
        # which costs at most a few ulps beyond α.
        assert abs(est - exact) <= QUANTILE_REL_ERROR * (1 + 1e-9) * exact

    def test_zeros_are_counted(self):
        sk = _sketch(np.array([0.0, 0.0, 0.0, 5.0]))
        assert sk.count == 4
        assert sk.quantile(0.5) == 0.0
        assert sk.quantile(1.0) == pytest.approx(5.0, rel=QUANTILE_REL_ERROR)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        sk = _sketch(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="non-finite"):
            sk.push_batch(np.array([3.0, bad]))
        assert sk == _sketch(np.array([1.0, 2.0]))

    def test_negative_rejected(self):
        sk = QuantileSketch()
        with pytest.raises(ValueError, match="negative"):
            sk.push_batch(np.array([3.0, -0.5]))
        assert sk.count == 0

    def test_accuracy_on_stationary_stream(self, samples):
        sk = _sketch(samples)
        for q in (0.1, 0.5, 0.9, 0.95):
            assert sk.quantile(q) == pytest.approx(
                np.quantile(samples, q), rel=0.01
            )

    def test_empty_and_bad_quantile_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            QuantileSketch().quantile(0.5)
        with pytest.raises(ValueError, match="quantile"):
            _sketch(np.array([1.0])).quantile(1.5)

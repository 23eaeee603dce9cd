"""Tests for repro.stream.estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.stream.estimators import (
    QUANTILE_REL_ERROR,
    P2Quantile,
    QuantileSketch,
    RunningCovariance,
    RunningMoments,
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
        assert float(np.asarray(b.mean)) == pytest.approx(
            float(np.asarray(a.mean)), rel=1e-12
        )
        assert float(np.asarray(b.variance())) == pytest.approx(
            float(np.asarray(a.variance())), rel=1e-12
        )
        assert b.count == a.count

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


class TestRunningCovariance:
    def test_matches_numpy(self, samples):
        y = 0.5 * samples + np.random.default_rng(7).normal(
            0.0, 5.0, samples.size
        )
        c = RunningCovariance()
        c.push_batch(samples, y)
        expected = np.cov(samples, y, ddof=1)[0, 1]
        assert float(np.asarray(c.covariance())) == pytest.approx(
            expected, rel=1e-10
        )
        expected_r = np.corrcoef(samples, y)[0, 1]
        assert float(np.asarray(c.correlation())) == pytest.approx(
            expected_r, rel=1e-10
        )

    def test_merge_exact(self, samples):
        y = samples[::-1].copy()
        a, b = RunningCovariance(), RunningCovariance()
        a.push_batch(samples[:2000], y[:2000])
        b.push_batch(samples[2000:], y[2000:])
        merged = a.merge(b)
        whole = RunningCovariance()
        whole.push_batch(samples, y)
        assert float(np.asarray(merged.covariance())) == pytest.approx(
            float(np.asarray(whole.covariance())), rel=1e-10
        )


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
    @given(_watt_streams, _watt_streams, _watt_streams)
    def test_covariance_merge_associative(self, xs, ys, zs):
        def cov_of(arr):
            c = RunningCovariance()
            c.push_batch(arr, np.sqrt(arr))
            return c

        left = cov_of(xs).merge(cov_of(ys)).merge(cov_of(zs))
        right = cov_of(xs).merge(cov_of(ys).merge(cov_of(zs)))
        assert left.count == right.count
        if left.count > 1:
            _close(left.covariance(), right.covariance(), rel=1e-8)

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
        _close(direct.covariance(), shuffled.covariance(), rel=1e-8)


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

"""Tests for repro.stream.stopping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidence import (
    ConfidenceInterval,
    finite_population_correction,
    t_quantile,
    z_quantile,
)
from repro.core.sampling import recommend_sample_size
from repro.experiments.table5 import ACCURACIES, CVS, PAPER_TABLE5
from repro.stream.estimators import RunningMoments
from repro.stream.stopping import SequentialStopper, StoppingDecision


class ScalarReference:
    """The Eq. 1 stopper evaluated node by node with scalar quantiles.

    An independent oracle for :class:`SequentialStopper`: one
    :meth:`RunningMoments.push`, one :func:`t_quantile` (or
    :func:`z_quantile`) and one :func:`finite_population_correction`
    per admitted node.
    """

    def __init__(self, *, accuracy, population, confidence=0.95,
                 method="t", cv_override=None, min_nodes=4):
        self.accuracy = accuracy
        self.population = population
        self.confidence = confidence
        self.method = method
        self.cv_override = cv_override
        self.min_nodes = min_nodes
        self.node_means = RunningMoments()
        self.stopped_at = None
        self.decision = StoppingDecision(False, 0, float("inf"),
                                         population, None)

    def update(self, w: float) -> StoppingDecision:
        self.node_means.push(w)
        self.decision = self._evaluate()
        return self.decision

    def _evaluate(self) -> StoppingDecision:
        n = self.node_means.count
        if n < 2:
            return StoppingDecision(False, n, float("inf"),
                                    self.population, None)
        mu = float(np.asarray(self.node_means.mean))
        sd = float(np.asarray(self.node_means.std()))
        cv = self.cv_override if self.cv_override is not None else sd / mu
        if self.method == "t":
            q = t_quantile(self.confidence, n - 1)
        else:
            q = z_quantile(self.confidence)
        fpc = finite_population_correction(n, self.population)
        achieved = q * cv / np.sqrt(n) * fpc
        projected = (
            recommend_sample_size(
                self.population, cv, self.accuracy, self.confidence
            ).n
            if cv > 0
            else self.min_nodes
        )
        stop = bool(n >= self.min_nodes and achieved <= self.accuracy + 1e-12)
        if stop and self.stopped_at is None:
            self.stopped_at = n
        return StoppingDecision(
            stop, n, float(achieved), int(projected),
            ConfidenceInterval(mu, float(achieved * mu), self.confidence,
                               self.method),
        )


def _moment_bytes(m: RunningMoments) -> tuple:
    """Every field of the estimator's state, as exact bytes."""
    if m.count == 0:
        return (0,)
    return (m.count,) + tuple(
        np.asarray(getattr(m, name)).tobytes() for name in m.__slots__
    )


def _state(stopper) -> tuple:
    return (stopper.node_means.count, stopper.stopped_at,
            _moment_bytes(stopper.node_means))


@st.composite
def _stopper_feeds(draw):
    means = draw(st.lists(
        st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False),
        min_size=0, max_size=60,
    ))
    cuts = sorted(draw(st.lists(
        st.integers(0, len(means)), max_size=6,
    )))
    chunks = [means[a:b] for a, b in zip([0, *cuts], [*cuts, len(means)])]
    kwargs = dict(
        accuracy=draw(st.sampled_from([0.5, 0.2, 0.05, 0.01, 0.002])),
        population=len(means) + draw(st.integers(2, 3000)),
        method=draw(st.sampled_from(["t", "z"])),
        cv_override=draw(st.none() | st.floats(1e-3, 0.5)),
        min_nodes=draw(st.integers(2, 5)),
    )
    return chunks, kwargs


class TestSequentialTable5:
    @pytest.mark.parametrize("i,lam", list(enumerate(ACCURACIES)))
    def test_reproduces_table5_row(self, i, lam):
        # With the z-quantile and a known sigma/mu the sequential
        # boundary is algebraically Eq. 5, so the stop count must equal
        # the published cell exactly.
        for j, cv in enumerate(CVS):
            stopper = SequentialStopper(
                accuracy=lam,
                population=10_000,
                method="z",
                cv_override=cv,
                min_nodes=2,
            )
            stopped = stopper.scan(np.full(10_000, 250.0))
            assert stopped == int(PAPER_TABLE5[i, j])

    def test_matches_batch_recommendation(self):
        plan = recommend_sample_size(5000, 0.04, 0.015, 0.95)
        stopper = SequentialStopper(
            accuracy=0.015,
            population=5000,
            method="z",
            cv_override=0.04,
            min_nodes=2,
        )
        assert stopper.scan(np.full(5000, 100.0)) == plan.n


class TestSequentialBehaviour:
    def test_no_stop_before_min_nodes(self):
        stopper = SequentialStopper(
            accuracy=0.5, population=100, min_nodes=4
        )
        rng = np.random.default_rng(3)
        decisions = [
            stopper.update(float(w))
            for w in rng.normal(200.0, 2.0, size=3)
        ]
        assert not any(d.should_stop for d in decisions)

    def test_stops_on_tight_fleet(self):
        # Nearly identical nodes: a handful suffice at 1%.
        stopper = SequentialStopper(accuracy=0.01, population=1000)
        rng = np.random.default_rng(4)
        stopped = stopper.scan(rng.normal(200.0, 1.0, size=1000))
        assert stopped < 20
        assert stopper.stopped_at == stopped

    def test_t_needs_more_than_z(self):
        # The t-quantile is wider than z at small n, so the sequential
        # t rule can never stop earlier under the same known cv.
        kwargs = dict(
            accuracy=0.02, population=10_000, cv_override=0.05, min_nodes=2
        )
        n_z = SequentialStopper(method="z", **kwargs).scan(
            np.full(10_000, 100.0)
        )
        n_t = SequentialStopper(method="t", **kwargs).scan(
            np.full(10_000, 100.0)
        )
        assert n_t >= n_z

    def test_achieved_lambda_decreases(self):
        stopper = SequentialStopper(
            accuracy=1e-6, population=50, cv_override=0.05, method="z",
        )
        lams = []
        for w in np.full(50, 100.0):
            lams.append(stopper.update(float(w)).achieved_lambda)
        finite = [x for x in lams if np.isfinite(x)]
        assert finite == sorted(finite, reverse=True)
        # Full census: the finite-population correction zeroes the
        # sampling error.
        assert finite[-1] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(_stopper_feeds())
    def test_update_many_equals_the_scalar_reference(self, feed):
        chunks, kwargs = feed
        stopper = SequentialStopper(**kwargs)
        reference = ScalarReference(**kwargs)
        for chunk in chunks:
            decision = stopper.update_many(chunk)
            for w in chunk:
                reference.update(w)
            assert decision == reference.decision
            assert _state(stopper) == _state(reference)
        # Empty input adds nothing and returns the current evaluation.
        assert stopper.update_many([]) == stopper.evaluate()

    @settings(max_examples=150, deadline=None)
    @given(
        means=st.lists(
            st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
            max_size=60,
        ),
        accuracy=st.sampled_from([0.5, 0.05, 0.01, 0.002]),
        spare=st.integers(0, 3000),
    )
    def test_decide_equals_update_many(self, means, accuracy, spare):
        # One push and one evaluation give the bits of the prefix scan.
        rule = dict(accuracy=accuracy, population=len(means) + 2 + spare)
        stopper = SequentialStopper(**rule)
        assert SequentialStopper.decide(means, **rule) == (
            stopper.update_many(means)
        )

    @pytest.mark.parametrize("method", ["t", "z"])
    def test_stop_boundary_inside_one_batch(self, method):
        means = np.random.default_rng(5).normal(200.0, 3.0, size=40)
        kwargs = dict(accuracy=0.005, population=100, method=method)
        reference = ScalarReference(**kwargs)
        expected = [reference.update(float(w)) for w in means]
        first = reference.stopped_at
        assert first is not None and 8 < first < 30
        stopper = SequentialStopper(**kwargs)
        # One batch ends just before the stop, the next straddles it.
        assert stopper.update_many(means[: first - 5]) == expected[first - 6]
        assert stopper.stopped_at is None
        assert stopper.update_many(means[first - 5 : first + 5]) == (
            expected[first + 4]
        )
        assert stopper.stopped_at == first
        assert stopper.update_many(means[first + 5 :]) == expected[-1]
        assert stopper.stopped_at == first
        assert _state(stopper) == _state(reference)
        assert SequentialStopper(**kwargs).scan(means) == first

    def test_update_validation(self):
        stopper = SequentialStopper(accuracy=0.01, population=10)
        with pytest.raises(ValueError, match="finite"):
            stopper.update(float("nan"))
        with pytest.raises(ValueError, match=">= 0"):
            stopper.update(-5.0)

    @pytest.mark.parametrize(
        "batch",
        [
            [201.0, 199.0, float("nan"), 200.0],
            [201.0, 199.0, -5.0, 200.0],
            [201.0, float("inf")],
            [200.0] * 9,  # one node more than the population left
        ],
    )
    def test_bad_batch_leaves_the_stopper_unchanged(self, batch):
        stopper = SequentialStopper(accuracy=0.05, population=12)
        stopper.update_many([200.0, 202.0, 198.0, 200.5])
        assert stopper.stopped_at == 4
        before = _state(stopper)
        decision = stopper.evaluate()
        with pytest.raises(ValueError, match="finite|population"):
            stopper.update_many(batch)
        assert _state(stopper) == before
        assert stopper.evaluate() == decision

    def test_non_positive_mean_reads_as_not_met(self):
        # Powered-off nodes read 0 W.  A set whose mean is not positive
        # cannot assess accuracy: it reads as not met, with no interval,
        # instead of raising, and such a prefix is never the first stop.
        not_met = StoppingDecision(False, 4, float("inf"), 12, None)
        stopper = SequentialStopper(accuracy=0.05, population=12)
        assert stopper.update_many([0.0] * 4) == not_met
        assert stopper.stopped_at is None
        assert SequentialStopper.decide(
            [0.0] * 4, accuracy=0.05, population=12
        ) == not_met
        decision = stopper.update_many([5.0])
        assert decision.interval is not None
        assert np.isfinite(decision.achieved_lambda)
        assert stopper.node_means.count == 5

    def test_population_exhausted(self):
        stopper = SequentialStopper(accuracy=1e-9, population=3, min_nodes=2)
        for w in (100.0, 101.0, 99.0):
            stopper.update(w)
        with pytest.raises(ValueError, match="population"):
            stopper.update(100.0)

    def test_scan_raises_when_unreachable(self):
        stopper = SequentialStopper(
            accuracy=1e-9, population=1000, cv_override=0.5, method="z",
        )
        with pytest.raises(ValueError, match="not reached"):
            stopper.scan(np.full(20, 100.0))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="accuracy"):
            SequentialStopper(accuracy=0.0, population=10)
        nan = float("nan")
        with pytest.raises(ValueError, match="accuracy"):
            SequentialStopper(accuracy=nan, population=10)
        with pytest.raises(ValueError, match="accuracy"):
            SequentialStopper.decide([100.0] * 5, accuracy=nan, population=10)
        with pytest.raises(ValueError, match="cv_override"):
            SequentialStopper(accuracy=0.01, population=10, cv_override=nan)
        with pytest.raises(ValueError, match="population"):
            SequentialStopper(accuracy=0.01, population=1)
        with pytest.raises(ValueError, match="method"):
            SequentialStopper(accuracy=0.01, population=10, method="w")
        with pytest.raises(ValueError, match="min_nodes"):
            SequentialStopper(accuracy=0.01, population=10, min_nodes=1)


"""Tests for repro.stream.stopping."""

import numpy as np
import pytest

from repro.core.sampling import recommend_sample_size
from repro.experiments.table5 import ACCURACIES, CVS, PAPER_TABLE5
from repro.stream.stopping import SequentialStopper


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

    def test_update_many_equals_the_update_loop(self):
        means = np.random.default_rng(5).normal(200.0, 3.0, size=40)
        looped = SequentialStopper(accuracy=0.005, population=100)
        decisions = [looped.update(float(w)) for w in means]
        batched = SequentialStopper(accuracy=0.005, population=100)
        assert batched.update_many(means[:15]) == decisions[14]
        assert batched.update_many(means[15:]) == decisions[-1]
        assert batched.stopped_at == looped.stopped_at is not None
        # Empty input adds nothing and returns the current evaluation.
        assert batched.update_many(np.empty(0)) == batched.evaluate()
        fresh = SequentialStopper(accuracy=0.005, population=100)
        assert fresh.update_many([]) == fresh.evaluate()

    def test_update_validation(self):
        stopper = SequentialStopper(accuracy=0.01, population=10)
        with pytest.raises(ValueError, match="finite"):
            stopper.update(float("nan"))
        with pytest.raises(ValueError, match=">= 0"):
            stopper.update(-5.0)

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
        with pytest.raises(ValueError, match="population"):
            SequentialStopper(accuracy=0.01, population=1)
        with pytest.raises(ValueError, match="method"):
            SequentialStopper(accuracy=0.01, population=10, method="w")
        with pytest.raises(ValueError, match="min_nodes"):
            SequentialStopper(accuracy=0.01, population=10, min_nodes=1)

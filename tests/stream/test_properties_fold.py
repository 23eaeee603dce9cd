"""The trusted fold under ``FleetFold.push`` keeps every bit.

``FleetFold.push`` validates a batch once and then calls the
estimators' private folds.  The reference here is the fold as a
sequence of public calls — ``ComplianceMonitor.observe``, then each
estimator's ``push_batch`` — each of which validates on its own.  Both
must leave every state field with the same bytes, for any batching, for
shard-style column slices judged against a global fleet series, and for
ticks whose fleet series is not positive (the ratio fallback).

A second test checks that one ``FleetFold.push`` calls none of those
public entry points and runs the monitor's one batch check exactly
once, so a second validation cannot creep back.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import estimators
from repro.stream.ingest import SampleBatch
from repro.stream.monitor import ComplianceMonitor
from repro.stream.session import FleetFold


def reference_push(fold: FleetFold, batch: SampleBatch, fleet_w) -> None:
    """The fold as public calls, in the order the fold runs them."""
    fold.monitor.observe(batch, fleet_w=fleet_w)
    fold.fleet_series.push_batch(fleet_w)
    fold.sketch.push_batch(batch.watts)
    fold.covar.push_batch(batch.watts, fleet_w)


def _fields(obj, path: str = "fold"):
    """Every leaf field of an object, nested estimators included, as
    ``(path, exact bytes or repr)`` pairs."""
    if isinstance(obj, np.ndarray):
        yield path, (obj.dtype.str, obj.shape, obj.tobytes())
    elif isinstance(obj, np.generic):
        yield path, (type(obj).__name__, obj.tobytes())
    elif isinstance(obj, (tuple, list)):
        yield path, len(obj)
        for i, item in enumerate(obj):
            yield from _fields(item, f"{path}[{i}]")
    elif obj is None or isinstance(obj, (bool, int, float, str)):
        yield path, repr(obj)
    else:
        yield path, type(obj).__name__
        for name in getattr(type(obj), "__slots__", None) or sorted(vars(obj)):
            yield from _fields(getattr(obj, name), f"{path}.{name}")


def _differing(a, b) -> list[str]:
    """The paths of the fields whose bytes differ between two objects."""
    fa, fb = dict(_fields(a)), dict(_fields(b))
    return sorted(p for p in fa.keys() | fb.keys() if fa.get(p) != fb.get(p))


@st.composite
def streams(draw):
    """A tick stream, its batching, and how each batch is judged.

    Readings are non-negative with exact zeros mixed in, so whole ticks
    can read 0 W.  Tick steps include repeats and steps back within the
    fold's 1e-12 s tolerance.  ``shard`` cuts a column slice and judges
    it against the full matrix's tick means, or against a drawn global
    series with zero and negative entries.
    """
    n_ticks = draw(st.integers(1, 40))
    n_nodes = draw(st.integers(1, 6))
    values = st.one_of(
        st.just(0.0), st.floats(1e-3, 1e4, allow_subnormal=False)
    )
    flat = draw(st.lists(values, min_size=n_ticks * n_nodes,
                         max_size=n_ticks * n_nodes))
    watts = np.array(flat).reshape(n_ticks, n_nodes)
    steps = draw(st.lists(st.sampled_from([1.0, 0.5, 0.0, -1e-13]),
                          min_size=n_ticks, max_size=n_ticks))
    times = 100.0 + np.cumsum(steps)
    cuts = sorted(
        c for c in draw(st.sets(st.integers(1, max(n_ticks - 1, 1)),
                                max_size=8))
        if c < n_ticks
    )
    shard = draw(st.sampled_from(["whole", "slice", "global"]))
    lo = draw(st.integers(0, n_nodes - 1))
    hi = draw(st.integers(lo + 1, n_nodes))
    if shard == "global":
        fleet = np.array(draw(st.lists(
            st.sampled_from([0.0, -3.0, 1e-3, 50.0, 400.0]),
            min_size=n_ticks, max_size=n_ticks,
        )))
    else:
        fleet = watts.mean(axis=1)
    if shard == "whole":
        lo, hi = 0, n_nodes
    fresh_ids = draw(st.booleans())
    return times, watts, fleet, cuts, (lo, hi), shard, fresh_ids


@settings(max_examples=150, deadline=None)
@given(streams())
def test_trusted_fold_equals_the_public_calls(stream):
    times, watts, fleet, cuts, (lo, hi), shard, fresh_ids = stream
    trusted = FleetFold((90.0, 200.0), required_interval_s=1.0)
    public = FleetFold((90.0, 200.0), required_interval_s=1.0)
    ids = np.arange(lo, hi)
    bounds = [0, *cuts, times.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        batch = SampleBatch(
            times=times[a:b], watts=watts[a:b, lo:hi],
            node_ids=ids.copy() if fresh_ids else ids,
        )
        fleet_w = batch.fleet_means() if shard == "whole" else fleet[a:b]
        trusted.push(batch, fleet_w)
        reference_push(public, batch, fleet_w)
        assert _differing(trusted, public) == []
    assert (
        trusted.monitor.report().to_dict()
        == public.monitor.report().to_dict()
    )
    # The ratio moments keep no extremes, so none can be read stale.
    with pytest.raises(ValueError, match="extremes"):
        trusted.monitor._ratio_moments.minimum


#: Every public entry point that validates on its own.
PUBLIC_ENTRIES = (
    (estimators, "_as_observation"),
    (ComplianceMonitor, "observe"),
    (estimators.RunningMoments, "push"),
    (estimators.RunningMoments, "push_batch"),
    (estimators.RunningMoments, "push_each"),
    (estimators.MaskedRunningMoments, "push_batch"),
    (estimators.RunningCovariance, "push_batch"),
    (estimators.QuantileSketch, "push_batch"),
    (estimators.P2Quantile, "push_batch"),
)


def test_push_validates_once(monkeypatch):
    calls: list[str] = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for owner, name in (*PUBLIC_ENTRIES, (ComplianceMonitor, "_admit")):
        monkeypatch.setattr(owner, name, counting(owner, name))
    rng = np.random.default_rng(7)
    ids = np.arange(8)
    fold = FleetFold((0.0, 100.0), required_interval_s=1.0)
    for t0 in (0.0, 5.0):
        batch = SampleBatch(
            times=np.arange(t0, t0 + 5.0),
            watts=rng.uniform(200.0, 300.0, (5, 8)), node_ids=ids,
        )
        fold.push(batch, batch.fleet_means())
        assert calls == ["_admit"]
        calls.clear()
    # The wrappers do see the public route, which runs the same check.
    ComplianceMonitor((0.0, 100.0)).observe(batch)
    assert calls == ["observe", "_admit"]

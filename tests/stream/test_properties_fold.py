"""The fold under ``ComplianceMonitor.observe`` keeps every bit.

``ComplianceMonitor.observe`` validates a batch once and folds it on
read: the pending batches are stacked and folded by the estimators'
private folds in one pass.  Two references hold it to the bits of a
fold batch by batch:

* ``reference_push``: the per-batch monitor update below, with every
  estimator fed by its public ``push_batch``, each of which validates
  on its own;
* ``eager_push``, a test-local copy of the per-batch fold (check, then
  fold this batch alone, judging its excursions against the ratio
  moments before it, and take its worst interval and rolling window
  from its own ticks, as ``_eager_ticks`` does).

Every state field must have the same bytes once the fold has read its
pending rows, for any batching, any point of reading, any pending cap
and any rolling-window capacity, for shard-style column slices judged
against a global fleet series, and for ticks whose fleet series is
below the ratio floor.

A last test checks that one ``observe`` calls none of the other public
entry points and runs the monitor's one batch check exactly once, so a
second validation cannot creep back.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stream import estimators
from repro.stream import monitor as monitor_module
from repro.stream.ingest import SampleBatch
from repro.stream.monitor import (
    EXCURSION_RATIO_FLOOR,
    EXCURSION_Z,
    FLEET_W_FLOOR,
    MIN_SAMPLES_FOR_FLAGS,
    ROLLING_HORIZON_S,
    ComplianceMonitor,
)


def _eager_ticks(monitor, times, fleet_w, span) -> None:
    """The per-batch tick update: the worst interval over the batch's
    steps and its gap from ``span``, the span before it; the rolling
    window cut at the latest tick seen so far, as ``_rolling_model`` in
    ``test_monitor.py`` cuts it after every tick."""
    if span is not None:
        monitor._worst_interval_s = max(
            monitor._worst_interval_s, float(times[0] - span[1])
        )
    if times.size >= 2:
        monitor._worst_interval_s = max(
            monitor._worst_interval_s, float((times[1:] - times[:-1]).max())
        )
    cap = monitor_module.ROLLING_CAPACITY
    rolling_t = np.concatenate((monitor._rolling_t, times))[-cap:]
    rolling_w = np.concatenate((monitor._rolling_w, fleet_w))[-cap:]
    monitor._newest_s = max(monitor._newest_s, float(times.max()))
    cutoff = monitor._newest_s - ROLLING_HORIZON_S - 1e-12
    cut = int(np.argmax(rolling_t >= cutoff))
    monitor._rolling_t, monitor._rolling_w = rolling_t[cut:], rolling_w[cut:]


def _eager_monitor(monitor: ComplianceMonitor, batch: SampleBatch, fleet_w):
    """Check the batch, then fold its ticks and power ratios alone,
    judging its excursions against the ratio moments before it.  Return
    the checked fleet series and smallest reading, or ``None`` for a
    batch without ticks."""
    fleet_w, lo = monitor._admit(batch, fleet_w)
    if batch.n_ticks == 0:
        return None
    span = monitor._span
    monitor._advance(batch)
    _eager_ticks(monitor, batch.times, fleet_w, span)
    ratio = monitor._ratio_moments
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ratios = batch.watts / fleet_w[:, None]
    ratios[~(fleet_w >= FLEET_W_FLOOR)] = 1.0
    if ratio.count >= MIN_SAMPLES_FOR_FLAGS:
        sd = np.maximum(np.asarray(ratio.std()), EXCURSION_RATIO_FLOOR)
        dev = np.abs(ratios - np.asarray(ratio.mean)) / sd
        monitor._excursions += (dev > EXCURSION_Z).sum(axis=0)
    ratio._fold(ratios, ratio._deviations(ratios), extremes=False)
    return fleet_w, lo


def reference_push(
    fold: ComplianceMonitor, batch: SampleBatch, fleet_w
) -> None:
    """The per-batch monitor update, then each estimator's public
    ``push_batch``, in the order the fold runs them."""
    admitted = _eager_monitor(fold, batch, fleet_w)
    if admitted is None:
        return
    fleet_w, _ = admitted
    fold._covar.push_batch(batch.watts, fleet_w)
    fold._node_moments.push_batch(batch.watts)
    fold._fleet_series.push_batch(fleet_w)
    fold._sketch.push_batch(batch.watts)


def eager_push(fold: ComplianceMonitor, batch: SampleBatch, fleet_w) -> None:
    """The per-batch fold: check the batch, then fold it alone, judging
    its excursions against the ratio moments before it."""
    admitted = _eager_monitor(fold, batch, fleet_w)
    if admitted is None:
        return
    fleet_w, lo = admitted
    w, moments = batch.watts, fold._node_moments
    d = moments._deviations(w)
    fold._covar._fold(d, fleet_w, moments._shift)
    moments._fold(w, d)
    fold._fleet_series._fold(fleet_w, fold._fleet_series._deviations(fleet_w))
    if w.size:
        fold._sketch._fold(w, lo)


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
    trusted = ComplianceMonitor((90.0, 200.0), required_interval_s=1.0)
    public = ComplianceMonitor((90.0, 200.0), required_interval_s=1.0)
    ids = np.arange(lo, hi)
    bounds = [0, *cuts, times.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        batch = SampleBatch(
            times=times[a:b], watts=watts[a:b, lo:hi],
            node_ids=ids.copy() if fresh_ids else ids,
        )
        fleet_w = batch.fleet_means() if shard == "whole" else fleet[a:b]
        trusted.observe(batch, fleet_w)
        reference_push(public, batch, fleet_w)
        trusted.flush()
        assert _differing(trusted, public) == []
    assert trusted.report().to_dict() == public.report().to_dict()
    # The ratio moments keep no extremes, so none can be read stale.
    with pytest.raises(ValueError, match="extremes"):
        trusted._ratio_moments.minimum


@st.composite
def read_streams(draw):
    """A stream long enough to pass the flag warm-up, with private
    steps, batch cuts, a pending cap, and reads between pushes.

    Nodes read about 300 W with one drawn step per stream, so the
    excursion judge fires at some batchings and not at others; zero
    readings and ticks whose fleet series is 0 or below the ratio floor
    are mixed in.  Tick steps include repeats, steps back within the
    1e-12 s tolerance, and a step just over the rolling horizon plus
    that tolerance, which puts ticks between a cut at a batch's own
    latest tick and a cut at the latest tick seen.  ``reads`` maps a
    batch index to the read made after that push.  ``rolling_cap`` is
    the rolling window's capacity.
    """
    n_ticks = draw(st.integers(1, 90))
    n_nodes = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    watts = 300.0 + rng.normal(0.0, draw(st.sampled_from([0.0, 1.0, 8.0])),
                               (n_ticks, n_nodes))
    node = draw(st.integers(0, n_nodes - 1))
    t0 = draw(st.integers(0, n_ticks - 1))
    watts[t0:t0 + draw(st.integers(1, 40)), node] += draw(
        st.sampled_from([0.0, 80.0, -250.0])
    )
    watts[rng.random(watts.shape) < draw(st.sampled_from([0.0, 0.05]))] = 0.0
    steps = draw(st.lists(
        st.sampled_from([1.0, 0.0, -1e-13, 60.0 + 1.05e-12]),
        min_size=n_ticks, max_size=n_ticks,
    ))
    times = 100.0 + np.cumsum(steps)
    if draw(st.booleans()):  # a shard judged against a global series
        fleet = 300.0 + rng.normal(0.0, 1.0, n_ticks)
        odd = rng.random(n_ticks) < 0.1
        fleet[odd] = rng.choice([0.0, -3.0, 1e-300, FLEET_W_FLOOR],
                                odd.sum())
    else:
        fleet = None
    cuts = sorted(draw(st.sets(st.integers(1, max(n_ticks - 1, 1)),
                               max_size=12)) - {n_ticks})
    n_batches = len(cuts) + 1
    reads = draw(st.dictionaries(
        st.integers(0, n_batches - 1),
        st.sampled_from(["report", "quantiles", "correlation", "concat",
                         "pickle"]),
        max_size=4,
    ))
    cap = draw(st.sampled_from([1, 7, 40, 150, 1 << 15]))
    rolling_cap = draw(st.sampled_from([1, 3, 8, 4096]))
    return times, watts, fleet, cuts, reads, cap, rolling_cap


def _read(
    fold: ComplianceMonitor, how: str
) -> tuple[ComplianceMonitor, object]:
    """Make one read; return the fold to go on with and what it read."""
    if how == "report":
        return fold, fold.report().to_dict()
    if how == "quantiles":
        return fold, fold.quantiles_w() if fold.sketch.count else None
    if how == "correlation":
        try:
            return fold, fold.correlation().tobytes()
        except ValueError as exc:
            return fold, str(exc)
    if how == "concat":
        if not fold.samples_seen:
            return fold, None
        return fold, _differing(ComplianceMonitor.merge_shards([fold]), fold)
    return pickle.loads(pickle.dumps(fold)), None


def _example(steps, cuts, reads, cap, rolling_cap):
    """A ``read_streams`` value: two nodes at 300 W, each tick 1 W up."""
    watts = 300.0 + np.arange(len(steps))[:, None] * np.ones(2)
    times = 100.0 + np.cumsum(steps)
    return times, watts, None, cuts, reads, cap, rolling_cap


@settings(max_examples=200, deadline=None)
@given(read_streams())
# A 1e-13 s step back across a stack boundary: the read after batch 1
# folds the stack, and batch 2 opens the next one a step back from it.
@example(_example([1.0] * 40 + [-1e-13] + [1.0] * 39, [20, 40, 60],
                  {0: "report", 1: "report"}, 1 << 15, 4096))
# One stack of 70 ticks, 69 s from first to last, into a rolling
# window of at most 8.
@example(_example([1.0] * 70, [10, 25, 40, 55], {}, 1 << 15, 8))
# A batch whose latest tick steps back from the one before it: a cut at
# that tick keeps the second tick, a cut at the latest tick seen drops it.
@example(_example([0.0, -1e-13, 60.0 + 1.05e-12, -1e-13], [3], {},
                  1 << 15, 3))
def test_fold_on_read_equals_the_eager_fold(stream):
    times, watts, fleet, cuts, reads, cap, rolling_cap = stream
    n_ticks, n_nodes = watts.shape
    lazy = ComplianceMonitor((90.0, 200.0), required_interval_s=1.0)
    eager = ComplianceMonitor((90.0, 200.0), required_interval_s=1.0)
    ids = np.arange(n_nodes)
    bounds = [0, *cuts, n_ticks]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monitor_module, "PENDING_SAMPLES", cap)
        patch.setattr(monitor_module, "ROLLING_CAPACITY", rolling_cap)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            # The caller's own arrays, overwritten after every push,
            # which no state may alias.
            batch = SampleBatch(
                times=times[a:b].copy(), watts=watts[a:b].copy(),
                node_ids=ids,
            )
            fleet_w = (
                batch.fleet_means() if fleet is None else fleet[a:b].copy()
            )
            lazy.observe(batch, fleet_w)
            eager_push(eager, batch, fleet_w)
            for arr in (batch.times, batch.watts, fleet_w):
                arr.fill(np.nan)
            if i in reads:
                lazy, got = _read(lazy, reads[i])
                eager, want = _read(eager, reads[i])
                assert got == want
                assert _differing(lazy, eager) == []
        lazy.flush()
    assert _differing(lazy, eager) == []
    assert lazy.report() == eager.report()
    # The tick state the fold takes on read is among the fields compared.
    assert {
        "fold._rolling_t", "fold._rolling_w", "fold._worst_interval_s",
    } <= dict(_fields(lazy)).keys()


def _step_stream() -> tuple[np.ndarray, np.ndarray]:
    """64 nodes at 300 W ± 8 W for 600 ticks, with node 3 stepping up
    80 W for ticks 100-129: the excursion judge flags it 3, 5 and 0
    times at 1-, 5- and 600-tick batches."""
    rng = np.random.default_rng(1)
    watts = 300.0 + rng.normal(0.0, 8.0, (600, 64))
    watts[100:130, 3] += 80.0
    return np.arange(600.0), watts


@pytest.mark.parametrize("ticks, flags", [(1, 3), (5, 5), (600, 0)])
def test_batching_dependent_excursions_keep_their_bits(ticks, flags):
    times, watts = _step_stream()
    ids = np.arange(64)
    lazy = ComplianceMonitor((0.0, 600.0), required_interval_s=1.0)
    eager = ComplianceMonitor((0.0, 600.0), required_interval_s=1.0)
    for a in range(0, 600, ticks):
        batch = SampleBatch(
            times=times[a:a + ticks], watts=watts[a:a + ticks], node_ids=ids
        )
        lazy.observe(batch, batch.fleet_means())
        eager_push(eager, batch, batch.fleet_means())
    lazy.flush()
    assert _differing(lazy, eager) == []
    assert {
        f.node_id: f.excursion_count
        for f in lazy.report().excursion_nodes
    } == ({3: flags} if flags else {})


def test_zero_node_batches_past_the_stack(monkeypatch):
    # A batch with no nodes carries no readings, so only its ticks can
    # fill the pending stack: one longer than the stack folds at once,
    # a short one waits on it.
    monkeypatch.setattr(monitor_module, "PENDING_SAMPLES", 40)
    lazy = ComplianceMonitor((0.0, 1e3), required_interval_s=1.0)
    eager = ComplianceMonitor((0.0, 1e3), required_interval_s=1.0)
    for a, b in ((0, 50), (50, 55), (55, 100)):
        batch = SampleBatch(
            times=np.arange(float(a), float(b)), watts=np.empty((b - a, 0)),
            node_ids=np.arange(0),
        )
        fleet_w = np.full(b - a, 250.0)
        lazy.observe(batch, fleet_w)
        eager_push(eager, batch, fleet_w)
    lazy.flush()
    assert _differing(lazy, eager) == []
    assert lazy.fleet_series.count == 100


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
    fold = ComplianceMonitor((0.0, 100.0), required_interval_s=1.0)
    for t0 in (0.0, 5.0):
        batch = SampleBatch(
            times=np.arange(t0, t0 + 5.0),
            watts=rng.uniform(200.0, 300.0, (5, 8)), node_ids=ids,
        )
        fold.observe(batch, batch.fleet_means())
        # The wrappers see the entry itself, and inside it one check.
        assert calls == ["observe", "_admit"]
        calls.clear()
    # The read folds both batches and checks nothing again.
    assert fold.report().samples_seen == 80
    assert calls == []

"""Tests for repro.stream.monitor."""

import numpy as np
import pytest

from repro.stream.ingest import SampleBatch, replay_run
from repro.stream.monitor import ComplianceMonitor


def _monitor_for(run) -> ComplianceMonitor:
    return ComplianceMonitor(
        run.core_window, required_interval_s=max(run.dt, 1.0)
    )


class TestCompliance:
    def test_full_replay_is_compliant(self, small_run):
        mon = _monitor_for(small_run)
        for batch in replay_run(small_run, ticks_per_batch=64):
            mon.observe(batch)
        rep = mon.report()
        assert rep.interval_ok
        assert rep.full_core_compliant
        assert rep.window_fraction_covered == pytest.approx(1.0, abs=0.01)
        assert rep.legal_level1_window
        assert rep.nodes_seen == small_run.system.n_nodes

    def test_partial_coverage_not_full_core(self, small_run):
        mon = _monitor_for(small_run)
        batches = list(replay_run(small_run, ticks_per_batch=64))
        for batch in batches[: len(batches) // 4]:
            mon.observe(batch)
        rep = mon.report()
        assert not rep.full_core_compliant
        assert rep.window_fraction_covered < 0.5

    def test_sampling_gap_flags_violation(self, small_run):
        mon = _monitor_for(small_run)
        batches = list(replay_run(small_run, ticks_per_batch=64))
        mon.observe(batches[0])
        mon.observe(batches[2])  # skip one batch: a cadence gap
        rep = mon.report()
        assert not rep.interval_ok
        assert rep.worst_interval_s > rep.required_interval_s

    def test_node_set_change_rejected(self, small_run):
        mon = _monitor_for(small_run)
        batches = list(replay_run(small_run, ticks_per_batch=64))
        mon.observe(batches[0])
        bad = SampleBatch(
            times=batches[1].times,
            watts=batches[1].watts[:, :8],
            node_ids=batches[1].node_ids[:8],
        )
        with pytest.raises(ValueError, match="node set"):
            mon.observe(bad)


class TestAnomalyFlags:
    def test_clean_run_is_quiet(self, small_run):
        mon = _monitor_for(small_run)
        for batch in replay_run(small_run, ticks_per_batch=64):
            mon.observe(batch)
        rep = mon.report()
        assert not rep.excursion_nodes
        assert not rep.outlier_nodes

    def test_private_step_flags_one_node(self, small_run):
        # Fig. 4: one node's fan policy adds ~120 W for a stretch while
        # the fleet ramps; only that node should flag an excursion.
        mon = _monitor_for(small_run)
        t0_s, _ = small_run.core_window
        for batch in replay_run(small_run, ticks_per_batch=64):
            watts = batch.watts.copy()
            mask = (batch.times >= t0_s + 600.0) & (
                batch.times <= t0_s + 900.0
            )
            watts[mask, 3] += 120.0
            mon.observe(
                SampleBatch(
                    times=batch.times,
                    watts=watts,
                    node_ids=batch.node_ids,
                )
            )
        rep = mon.report()
        assert [f.node_id for f in rep.excursion_nodes] == [3]
        assert rep.excursion_nodes[0].excursion_count > 0

    def test_persistent_shift_flags_outlier(self, small_run):
        # A node running persistently hot shows up as a mean-level
        # outlier vs the fleet's node-to-node spread.
        mon = ComplianceMonitor(
            small_run.core_window,
            required_interval_s=max(small_run.dt, 1.0),
        )
        for batch in replay_run(small_run, ticks_per_batch=64):
            watts = batch.watts.copy()
            watts[:, 7] *= 1.25
            mon.observe(
                SampleBatch(
                    times=batch.times,
                    watts=watts,
                    node_ids=batch.node_ids,
                )
            )
        rep = mon.report()
        assert 7 in [f.node_id for f in rep.outlier_nodes]

    @pytest.mark.parametrize(("n_nodes", "flagged"), [(17, False), (18, True)])
    def test_lone_outlier_needs_eighteen_nodes(self, n_nodes, flagged):
        # Samuelson's bound: no node of an n-node fleet sits more than
        # (n - 1) / sqrt(n) sample deviations from the mean (3.88 at
        # n = 17, 4.01 at n = 18), so even a node at 10x power cannot
        # pass OUTLIER_Z = 4 in a fleet below 18 nodes.
        times = np.arange(60.0)
        watts = np.tile(100.0 + 0.01 * np.arange(n_nodes), (times.size, 1))
        watts[:, 0] *= 10.0
        mon = ComplianceMonitor((0.0, 60.0))
        mon.observe(
            SampleBatch(times=times, watts=watts, node_ids=np.arange(n_nodes))
        )
        outliers = [f.node_id for f in mon.report().outlier_nodes]
        assert outliers == ([0] if flagged else [])

    def test_validation(self, small_run):
        with pytest.raises(ValueError, match="duration"):
            ComplianceMonitor((10.0, 10.0))
        with pytest.raises(ValueError, match="positive"):
            ComplianceMonitor(
                small_run.core_window, required_interval_s=0.0
            )


class TestInsufficientData:
    """Degenerate windows must not manufacture a compliance verdict."""

    def test_no_samples_is_flagged_not_judged(self, small_run):
        rep = _monitor_for(small_run).report()
        assert rep.insufficient_data
        assert not rep.interval_ok
        assert not rep.full_core_compliant
        assert not rep.legal_level1_window
        assert rep.window_fraction_covered == 0.0
        assert rep.worst_interval_s == np.inf
        assert rep.nodes_seen == 0
        assert rep.lines() == [
            "insufficient data: no samples observed — no compliance verdict"
        ]
        assert rep.to_dict()["insufficient_data"] is True

    def test_empty_batch_is_a_no_op(self, small_run):
        mon = _monitor_for(small_run)
        empty = SampleBatch(
            times=np.empty(0),
            watts=np.empty((0, small_run.system.n_nodes)),
            node_ids=np.arange(small_run.system.n_nodes, dtype=np.int64),
        )
        mon.observe(empty)
        assert mon.report().insufficient_data

    def test_any_real_sample_clears_the_flag(self, small_run):
        mon = _monitor_for(small_run)
        mon.observe(next(iter(replay_run(small_run, ticks_per_batch=4))))
        rep = mon.report()
        assert not rep.insufficient_data
        assert "insufficient" not in "\n".join(rep.lines())

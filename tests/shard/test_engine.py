"""Shard engine: bit-identity across shard counts, pools, and serial."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.shard.engine import (
    RowTable,
    fleet_reference,
    run_shard,
    run_sharded,
    shard_rows,
    sharded_session,
)
from repro.shard.plan import ShardPlan, ShardSpec, plan_shards
from repro.shard.reduce import reduce_states
from repro.stream import monitor as monitor_module
from repro.stream.monitor import ComplianceMonitor
from repro.stream.session import stream_session
from repro.traces.synth import simulate_run
from repro.workloads.base import ConstantWorkload


def _identity_view(result) -> dict:
    """The fields of a session result that must be shard-count
    invariant to the bit (everything except the plan provenance)."""
    d = result.to_dict()
    return {
        "samples_ingested": d["samples_ingested"],
        "fleet_mean_w": d["fleet_mean_w"],
        "fleet_std_w": d["fleet_std_w"],
        "quantiles_w": d["quantiles_w"],
        "node_fleet_correlation": d["node_fleet_correlation"],
        "stopping": d["stopping"],
        "monitor": d["monitor"],
        "quality": d["quality"],
        "node_means": np.asarray(result.node_moments.mean).tolist(),
        "node_stds": np.asarray(result.node_moments.std()).tolist(),
    }


class TestFleetReference:
    def test_matches_the_serial_fleet_mean(self, tiny_run):
        t0_s, t1_s = tiny_run.core_window
        _, watts = tiny_run.node_power_matrix(t0_s, t1_s)
        ref_w, _ = fleet_reference(tiny_run, ticks_per_batch=17)
        assert np.array_equal(ref_w, watts.mean(axis=1))


class TestShardCountInvariance:
    def test_quality_is_the_fold_label_for_every_k(self, tiny_run):
        single = _identity_view(
            sharded_session(tiny_run, n_shards=1, ticks_per_batch=16)
        )
        for k in (1, 2, 3, tiny_run.system.n_nodes):
            result = sharded_session(tiny_run, n_shards=k, ticks_per_batch=16)
            assert _identity_view(result)["quality"] == single["quality"]
            # The label's fleet statistics are the fold's node moments.
            means = np.asarray(result.node_moments.mean)
            stds = np.asarray(result.node_moments.std())
            quality = result.provenance["quality"]
            assert quality.fleet_mean_w == float(means.mean()), k
            assert quality.sigma_node_w == float(means.std(ddof=1)), k
            assert quality.sigma_tick_w == float(stds.mean()), k

    def test_quantile_bound_is_stated(self, tiny_run):
        d = sharded_session(tiny_run, n_shards=2, ticks_per_batch=16).to_dict()
        assert d["quantile_rel_error"] == 0.005
        assert "notes" not in d

    def test_single_node_shards_match_too(self, tiny_run):
        # The extreme partition: every node its own shard.  This is the
        # case that catches width-dependent reduction paths (numpy's
        # pairwise summation on single-column batches).
        n = tiny_run.system.n_nodes
        baseline = _identity_view(
            sharded_session(tiny_run, n_shards=1, ticks_per_batch=13)
        )
        extreme = _identity_view(
            sharded_session(tiny_run, n_shards=n, ticks_per_batch=13)
        )
        assert extreme == baseline


class TestPoolEquivalence:
    def test_fork_pool_matches_inline_exactly(self, tiny_run):
        inline = sharded_session(
            tiny_run, n_shards=4, ticks_per_batch=16, processes=0
        )
        pooled = sharded_session(
            tiny_run, n_shards=4, ticks_per_batch=16, processes=2
        )
        assert pooled.to_dict() == inline.to_dict()


class TestShardStateIsFolded:
    def test_run_shard_returns_no_pending_rows(self, tiny_run, monkeypatch):
        # A cap above the whole shard would keep every row pending until
        # a read; the shard folds them itself, so a pool worker never
        # sends rows back and the kernel's time includes the fold.
        monkeypatch.setattr(monitor_module, "PENDING_SAMPLES", 1 << 16)
        plan = plan_shards(tiny_run.system.n_nodes, 2, ticks_per_batch=16)
        reference_w, rows = fleet_reference(tiny_run, ticks_per_batch=16)
        fold = run_shard(
            tiny_run, plan.shards[0], shard_rows(rows, plan.shards[0]),
            ticks_per_batch=16, reference_w=reference_w,
        )
        assert fold._pending is None
        assert fold.samples_seen == (
            reference_w.size * plan.shards[0].n_nodes
        )


class TestSerialCrossCheck:
    def test_matches_stream_session_state(self, small_run):
        serial = stream_session(small_run, ticks_per_batch=60)
        sharded = sharded_session(
            small_run, n_shards=3, ticks_per_batch=60
        )
        assert np.array_equal(
            np.asarray(sharded.node_moments.mean),
            np.asarray(serial.node_moments.mean),
        )
        assert np.array_equal(
            np.asarray(sharded.node_moments.std()),
            np.asarray(serial.node_moments.std()),
        )
        assert (
            sharded.node_fleet_correlation
            == serial.node_fleet_correlation
        )
        assert (
            sharded.monitor_report.to_dict()
            == serial.monitor_report.to_dict()
        )
        assert sharded.samples_ingested == serial.samples_ingested
        # Both pool their fleet scalar from the same per-node moments.
        assert sharded.fleet_moments.mean == serial.fleet_moments.mean
        assert sharded.fleet_moments.std() == serial.fleet_moments.std()


class TestOneTickCorePhase:
    def test_sharded_and_stream_sessions_agree_on_nan(self, tiny_run):
        # One tick has no correlation: both routes report NaN.
        workload = ConstantWorkload(
            core_s=0.5, setup_s=20.0, teardown_s=10.0
        )
        run = simulate_run(tiny_run.system, workload, dt=1.0, seed=3)
        serial = stream_session(run)
        sharded = sharded_session(run, n_shards=3)
        assert serial.samples_ingested == run.system.n_nodes
        assert math.isnan(serial.node_fleet_correlation)
        assert math.isnan(sharded.node_fleet_correlation)
        assert np.array_equal(
            np.asarray(sharded.node_moments.mean),
            np.asarray(serial.node_moments.mean),
        )
        assert sharded.quantiles_w == serial.quantiles_w
        assert sharded.stopping.to_dict() == serial.stopping.to_dict()
        assert (
            sharded.monitor_report.to_dict()
            == serial.monitor_report.to_dict()
        )
        assert sharded.samples_ingested == serial.samples_ingested


class TestValidation:
    def test_plan_must_cover_the_fleet(self, tiny_run):
        plan = plan_shards(tiny_run.system.n_nodes - 1, 2)
        with pytest.raises(ValueError, match="plan covers"):
            run_sharded(tiny_run, plan)

    def test_reference_length_is_checked(self, tiny_run):
        plan = plan_shards(tiny_run.system.n_nodes, 2, ticks_per_batch=16)
        _, rows = fleet_reference(tiny_run, ticks_per_batch=16)
        with pytest.raises(ValueError, match="reference series"):
            run_shard(
                tiny_run,
                plan.shards[0],
                shard_rows(rows, plan.shards[0]),
                ticks_per_batch=16,
                reference_w=np.zeros(3),
            )

    @pytest.mark.parametrize("which", ["fleet", "other-shard"])
    def test_row_table_must_match_the_shard(self, tiny_run, which):
        plan = plan_shards(tiny_run.system.n_nodes, 2, ticks_per_batch=16)
        assert plan.shards[0].n_nodes == plan.shards[1].n_nodes
        reference_w, table = fleet_reference(tiny_run, ticks_per_batch=16)
        # The whole fleet's table, or a same-width slice of shard 1.
        rows = table if which == "fleet" else shard_rows(table, plan.shards[1])
        with pytest.raises(ValueError, match="row table covers nodes"):
            run_shard(
                tiny_run,
                plan.shards[0],
                rows,
                ticks_per_batch=16,
                reference_w=reference_w,
            )

    def test_row_table_is_checked_on_construction(self, tiny_run):
        _, table = fleet_reference(tiny_run, ticks_per_batch=16)
        with pytest.raises(ValueError, match="columns"):
            RowTable(0, 3, table.in_span, table.grid, table.pos, table.w)
        with pytest.raises(ValueError, match="span tick"):
            RowTable(
                table.node_lo, table.node_hi, table.in_span,
                table.grid, table.pos[1:], table.w[1:],
            )
        outside = plan_shards(tiny_run.system.n_nodes + 1, 1).shards[0]
        with pytest.raises(ValueError, match="outside"):
            shard_rows(table, outside)

    @staticmethod
    def _folds(run, plan):
        reference_w, table = fleet_reference(
            run, ticks_per_batch=plan.ticks_per_batch
        )
        return [
            run_shard(
                run, spec, shard_rows(table, spec),
                ticks_per_batch=plan.ticks_per_batch,
                reference_w=reference_w,
            )
            for spec in plan
        ]

    def test_reduce_refuses_a_wrong_number_of_folds(self, tiny_run):
        plan = plan_shards(tiny_run.system.n_nodes, 3, ticks_per_batch=16)
        folds = self._folds(tiny_run, plan)
        for wrong in (folds[:2], [*folds, folds[0]], []):
            with pytest.raises(ValueError, match="shard folds for a 3-shard"):
                reduce_states(wrong, plan)
        # The full set, in any arrival order, merges.
        merged = reduce_states(folds[::-1], plan)
        assert merged.samples_seen == sum(f.samples_seen for f in folds)

    @pytest.mark.parametrize("wrong", ["repeated", "other-cut", "empty"])
    def test_reduce_refuses_a_fold_off_its_planned_shard(
        self, tiny_run, wrong
    ):
        n = tiny_run.system.n_nodes
        plan = plan_shards(n, 2, ticks_per_batch=16)
        folds = self._folds(tiny_run, plan)
        if wrong == "repeated":  # shard 0's fold twice: shard 1 has none
            folds = [folds[0], folds[0]]
        elif wrong == "other-cut":  # two folds that tile the fleet
            other = ShardPlan(
                n_nodes=n, ticks_per_batch=16,
                shards=(ShardSpec(0, 2, 0, 5), ShardSpec(1, 2, 5, n)),
            )
            folds = self._folds(tiny_run, other)
        else:  # a fold that saw no batch
            folds[1] = ComplianceMonitor(tiny_run.core_window)
        with pytest.raises(ValueError, match="no fold covers exactly"):
            reduce_states(folds, plan)

    def test_negative_processes_are_refused(self, tiny_run):
        plan = plan_shards(tiny_run.system.n_nodes, 2)
        with pytest.raises(ValueError, match="processes"):
            run_sharded(tiny_run, plan, processes=-1)

    def test_render_text_and_to_dict_are_complete(self, tiny_run):
        result = sharded_session(tiny_run, n_shards=2, ticks_per_batch=16)
        text = result.render_text()
        assert "n_shards: 2" in text
        assert "sequential stopping" in text
        d = result.to_dict()
        assert d["n_shards"] == 2
        assert set(d["quantiles_w"]) == {"0.5", "0.95"}

"""Shard engine: bit-identity across shard counts, pools, and serial."""

from __future__ import annotations

import numpy as np
import pytest

from repro.shard.engine import (
    fleet_reference,
    run_shard,
    run_sharded,
    sharded_session,
)
from repro.shard.plan import plan_shards
from repro.stream.session import stream_session


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
        ref_w = fleet_reference(tiny_run, ticks_per_batch=17)
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
            quality = result.quality
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


class TestValidation:
    def test_plan_must_cover_the_fleet(self, tiny_run):
        plan = plan_shards(tiny_run.system.n_nodes - 1, 2)
        with pytest.raises(ValueError, match="plan covers"):
            run_sharded(tiny_run, plan)

    def test_reference_length_is_checked(self, tiny_run):
        plan = plan_shards(tiny_run.system.n_nodes, 2, ticks_per_batch=16)
        with pytest.raises(ValueError, match="reference series"):
            run_shard(
                tiny_run,
                plan.shards[0],
                ticks_per_batch=16,
                reference_w=np.zeros(3),
            )

    def test_negative_processes_are_refused(self, tiny_run):
        plan = plan_shards(tiny_run.system.n_nodes, 2)
        with pytest.raises(ValueError, match="processes"):
            run_sharded(tiny_run, plan, processes=-1)

    def test_render_text_and_to_dict_are_complete(self, tiny_run):
        result = sharded_session(tiny_run, n_shards=2, ticks_per_batch=16)
        text = result.render_text()
        assert "sharded session (2 shards" in text
        assert "sequential stopping" in text
        d = result.to_dict()
        assert d["n_shards"] == 2
        assert set(d["quantiles_w"]) == {"0.5", "0.95"}

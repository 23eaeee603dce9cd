"""The verdict every chaos harness shares (`AuditOutcome`)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.faults.chaos import ChaosOutcome, ChaosScenario, run_chaos
from repro.faults.pathology import run_pathology, standard_scenarios
from repro.wire.chaos import WireChaosOutcome, WireScenario, run_wire_chaos

NODES = np.arange(8)

#: ``to_dict`` keys of each outcome type, as released before the three
#: types shared one base: the JSON shape must not move.
CHAOS_KEYS = {
    "scenario", "gap_policy", "seed", "clean_fleet_mean_w",
    "clean_node_cv", "rel_err_fleet_mean", "rel_err_node_cv",
    "mean_within_bound", "cv_within_bound", "reconciliation", "retries",
    "batches_abandoned", "report", "ledger",
}
WIRE_KEYS = {
    "scenario", "codec", "drop_rate", "corrupt_rate", "gap_policy", "seed",
    "clean_fleet_mean_w", "clean_node_cv", "rel_err_fleet_mean",
    "rel_err_node_cv", "bytes_on_wire", "samples_sent", "bytes_per_sample",
    "mean_within_bound", "cv_within_bound", "reconciliation", "report",
    "ledger",
}
PATHOLOGY_KEYS = {
    "scenario", "gap_policy", "seed", "clean_fleet_mean_w",
    "clean_node_cv", "rel_err_fleet_mean", "rel_err_node_cv",
    "mean_within_bound", "cv_within_bound",
    "independent_bound_mean_violated", "reconciliation", "report",
    "ledger", "detection", "gaming", "cost",
}


@pytest.fixture()
def chaos_outcome(small_run) -> ChaosOutcome:
    scenario = ChaosScenario(name="drop", dropout_rate=0.05)
    return run_chaos(small_run, scenario, seed=3, node_indices=NODES)


@pytest.fixture()
def wire_outcome(small_run) -> WireChaosOutcome:
    scenario = WireScenario(name="lossy", drop_rate=0.1, corrupt_rate=0.1)
    return run_wire_chaos(small_run, scenario, seed=3, node_indices=NODES)


class TestDegenerateCleanCv:
    def test_chaos_outcome(self, chaos_outcome):
        out = chaos_outcome
        assert np.isfinite(out.report.error_bound_node_cv())
        flat = ChaosOutcome(
            scenario=out.scenario,
            gap_policy=out.gap_policy,
            seed=out.seed,
            ledger=out.ledger,
            clean_fleet_mean_w=out.clean_fleet_mean_w,
            clean_node_cv=0.0,
            report=out.report,
            reconciliation=out.reconciliation,
        )
        assert flat.rel_err_node_cv == math.inf
        assert flat.cv_within_bound is False
        assert not flat.ok()

    def test_wire_chaos_outcome(self, wire_outcome):
        out = wire_outcome
        assert np.isfinite(out.report.error_bound_node_cv())
        flat = WireChaosOutcome(
            scenario=out.scenario,
            gap_policy=out.gap_policy,
            seed=out.seed,
            ledger=out.ledger,
            bytes_on_wire=out.bytes_on_wire,
            samples_sent=out.samples_sent,
            clean_fleet_mean_w=out.clean_fleet_mean_w,
            clean_node_cv=0.0,
            report=out.report,
            reconciliation=out.reconciliation,
        )
        assert flat.rel_err_node_cv == math.inf
        assert flat.cv_within_bound is False
        assert not flat.ok()


class TestJsonShape:
    def test_chaos_keys(self, chaos_outcome):
        assert set(chaos_outcome.to_dict()) == CHAOS_KEYS

    def test_wire_chaos_keys(self, wire_outcome):
        assert set(wire_outcome.to_dict()) == WIRE_KEYS

    def test_pathology_keys(self, small_run):
        scenario = standard_scenarios(("aliasing",), intensity="low")[0]
        out = run_pathology(small_run, scenario, seed=3, node_indices=NODES)
        assert set(out.to_dict()) == PATHOLOGY_KEYS

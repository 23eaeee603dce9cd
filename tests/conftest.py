"""Shared fixtures for the test suite.

Heavy objects (calibrated registry systems, simulated runs) are
session-scoped: the registry's ``lru_cache`` already memoises them per
process, and the fixtures make that sharing explicit for tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.components import CpuModel, DramModel, FanModel, GpuModel
from repro.cluster.node import NodeConfig
from repro.cluster.system import SystemModel
from repro.cluster.thermal import FanController
from repro.cluster.variability import ManufacturingVariation
from repro.traces.powertrace import PowerTrace
from repro.workloads.hpl import HplWorkload


#: Suites in which a RuntimeWarning (an overflow, an invalid value) is a
#: failure: neither the fold's arithmetic, the power synthesis that
#: feeds it, nor the wire, recovery and service layers in front of it
#: may produce one silently.
STRICT_RUNTIME_WARNINGS = (
    "tests/stream/",
    "tests/shard/",
    "tests/traces/",
    "tests/serve/",
    "tests/faults/",
    "tests/wire/",
    "tests/test_route_equivalence.py",
)


def pytest_collection_modifyitems(items):
    strict = pytest.mark.filterwarnings("error::RuntimeWarning")
    for item in items:
        if item.nodeid.startswith(STRICT_RUNTIME_WARNINGS):
            item.add_marker(strict)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def cpu_config() -> NodeConfig:
    """A small CPU-only node design."""
    return NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        dram=DramModel.for_capacity(32.0),
        fan=FanModel(max_watts=40.0),
        other_watts=20.0,
    )


@pytest.fixture()
def gpu_config() -> NodeConfig:
    """A 4-GPU node design (L-CSC-like)."""
    return NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        gpu=GpuModel(idle_watts=18.0, peak_watts=220.0),
        n_gpus=4,
        dram=DramModel.for_capacity(128.0),
        fan=FanModel(max_watts=150.0),
        other_watts=30.0,
    )


@pytest.fixture()
def small_system(cpu_config) -> SystemModel:
    """A 64-node CPU system with typical variability."""
    return SystemModel(
        "test-cpu",
        64,
        cpu_config,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(fan_model=cpu_config.fan,
                                     reference_watts=300.0),
        seed=77,
    )


@pytest.fixture()
def gpu_system(gpu_config) -> SystemModel:
    """A 32-node GPU system."""
    return SystemModel(
        "test-gpu",
        32,
        gpu_config,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(fan_model=gpu_config.fan,
                                     reference_watts=1000.0),
        seed=78,
    )


@pytest.fixture()
def flat_trace() -> PowerTrace:
    """A constant 100 W trace over 1000 s at 1 Hz."""
    return PowerTrace.constant(100.0, 1000.0)


@pytest.fixture()
def ramp_trace() -> PowerTrace:
    """A linear 0→100 W ramp over 100 s."""
    t = np.linspace(0.0, 100.0, 101)
    return PowerTrace(t, t)


@pytest.fixture()
def gpu_hpl() -> HplWorkload:
    """A short in-core GPU HPL workload with a visible tail-off."""
    return HplWorkload.gpu_in_core(1800.0, setup_s=60.0, teardown_s=30.0)


@pytest.fixture()
def cpu_hpl() -> HplWorkload:
    """A flat out-of-core CPU HPL workload."""
    return HplWorkload.cpu_out_of_core(3600.0, setup_s=60.0, teardown_s=30.0)

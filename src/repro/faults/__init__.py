"""Deterministic fault injection and self-healing ingestion.

The paper's measurements came from real meters that drop samples,
latch stale readings, glitch, drift and die mid-run; this package
models those failures deterministically and hardens the streaming
pipeline against them, labelling every degraded aggregate with an
exact :class:`~repro.faults.quality.QualityReport`.

Layout:

* :mod:`repro.faults.models` — seeded, composable fault models over
  per-node power matrices, with an exact injection ledger.
* :mod:`repro.faults.recovery` — bounded retry with backoff, fault
  detection, gap repair policies, per-node quarantine and the
  compliance circuit breaker.
* :mod:`repro.faults.quality` — the provenance label and its stated
  error bounds.
* :mod:`repro.faults.chaos` — the end-to-end harness auditing that
  recovery accounts for every injected fault and stays within the
  bounds it states, and the :class:`~repro.faults.chaos.AuditOutcome`
  verdict every chaos harness shares.
* :mod:`repro.faults.wire` — frame-level transport faults (drops and
  CRC-detectable corruption) over the :mod:`repro.wire` protocol,
  under the same determinism and disjointness contracts.
* :mod:`repro.faults.pathology` — *correlated* meter pathologies from
  the related literature (duty-cycled aliasing meters, input-entropy-
  dependent power, per-accelerator spread), their gaming and
  sampling-cost analyses, and the widened-bound audit harness.
* :mod:`repro.faults.detectors` — stream-level correlated-excursion
  detectors (repeat/beat structure, persistent per-node offsets,
  segment-boundary jumps) the per-cell recovery layer cannot see.
"""

from repro.faults.chaos import ChaosOutcome, ChaosScenario, run_chaos
from repro.faults.detectors import (
    AliasingDetector,
    CorrelatedDetectors,
    CorrelatedVerdict,
    EntropyDriftDetector,
    PersistentOffsetDetector,
)
from repro.faults.models import (
    BurstDropout,
    ClockDrift,
    ClockJitter,
    FaultInjection,
    FaultLedger,
    FaultModel,
    FaultPlan,
    NodeLoss,
    SampleDropout,
    SpikeGlitch,
    StuckAtLastValue,
    TruncatedTail,
    inject_run,
)
from repro.faults.pathology import (
    AliasingMeter,
    DeviceSpreadModel,
    EntropyPowerModel,
    PathologyOutcome,
    PathologyScenario,
    run_pathology,
    standard_scenarios,
)
from repro.faults.quality import QualityReport
from repro.faults.recovery import (
    FlakySource,
    RecoveryPipeline,
    RetryingSource,
    RetryPolicy,
    TransientMeterError,
)
from repro.faults.wire import (
    FrameCorruption,
    FrameDrop,
    WireDelivery,
    WireFaultModel,
    WireFaultPlan,
    WireLedger,
)
from repro.stream.estimators import MaskedRunningMoments

__all__ = [
    "AliasingDetector",
    "AliasingMeter",
    "BurstDropout",
    "ChaosOutcome",
    "ChaosScenario",
    "ClockDrift",
    "ClockJitter",
    "CorrelatedDetectors",
    "CorrelatedVerdict",
    "DeviceSpreadModel",
    "EntropyDriftDetector",
    "EntropyPowerModel",
    "FaultInjection",
    "FaultLedger",
    "FaultModel",
    "FaultPlan",
    "FlakySource",
    "FrameCorruption",
    "FrameDrop",
    "MaskedRunningMoments",
    "NodeLoss",
    "PathologyOutcome",
    "PathologyScenario",
    "PersistentOffsetDetector",
    "QualityReport",
    "RecoveryPipeline",
    "RetryingSource",
    "RetryPolicy",
    "SampleDropout",
    "SpikeGlitch",
    "StuckAtLastValue",
    "TransientMeterError",
    "TruncatedTail",
    "WireDelivery",
    "WireFaultModel",
    "WireFaultPlan",
    "WireLedger",
    "inject_run",
    "run_chaos",
    "run_pathology",
    "standard_scenarios",
]

"""Online power-telemetry: single-pass estimators, live compliance,
sequential stopping.

The batch pipeline materialises a full :class:`~repro.traces.synth.SimulatedRun`
and post-processes it; this package answers the same questions *while
the samples arrive*:

* :mod:`repro.stream.estimators` — moments, masked moments and
  covariance from shifted running sums whose bits do not depend on
  batching, and a relative-error quantile sketch, all with exact
  per-node → fleet roll-up (plus the P² quantile baseline);
* :mod:`repro.stream.ingest` — deterministic tick-driven ingestion
  (simulated clock only) replaying simulated runs as batched samples;
* :mod:`repro.stream.monitor` — live EE HPC WG rule compliance, the
  rolling fleet-power window, per-node anomaly flags, and the one
  check every batch passes before it folds;
* :mod:`repro.stream.stopping` — Eq. 1–5 sample-size logic: the one
  stopping decision over the node means every route reads, and the
  sequential stop signal;
* :mod:`repro.stream.session` — the orchestration the ``repro stream``
  CLI subcommand drives, and the one session result every route
  returns.

Everything in this package is a pure function of ``(inputs, seed)``:
time advances only via the simulated tick clock, never the wall clock.
"""

from repro.stream.estimators import (
    P2Quantile,
    QuantileSketch,
    RunningCovariance,
    RunningMoments,
)
from repro.stream.ingest import SampleBatch, SimClock, replay_run
from repro.stream.monitor import ComplianceMonitor, MonitorReport
from repro.stream.session import (
    LiveStreamState,
    SessionResult,
    StreamSnapshot,
    StreamVerdict,
    stream_session,
)
from repro.stream.stopping import SequentialStopper, StoppingDecision

__all__ = [
    "P2Quantile",
    "QuantileSketch",
    "RunningCovariance",
    "RunningMoments",
    "SampleBatch",
    "SimClock",
    "replay_run",
    "ComplianceMonitor",
    "MonitorReport",
    "LiveStreamState",
    "SessionResult",
    "StreamSnapshot",
    "StreamVerdict",
    "stream_session",
    "SequentialStopper",
    "StoppingDecision",
]

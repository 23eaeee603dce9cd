"""Wire chaos harness: mangle the transport, recover, audit the label.

:func:`run_wire_chaos` is the transport analogue of
:func:`repro.faults.chaos.run_chaos`.  It replays a simulated fleet
through the full wire path::

    replay_run -> WireWriter(codec) -> WireFaultPlan -> WireReader
               -> RecoveryPipeline

and then puts the result on trial twice:

* **reconciliation** — the reader's CRC and sequence-gap counters, and
  the :class:`~repro.faults.quality.QualityReport` sample accounting,
  must explain the injected :class:`~repro.faults.wire.WireLedger`
  *exactly* — ``==``, no tolerances;
* **bounds** — the degraded fleet mean and node σ/μ must sit inside the
  bounds the report states, which now include the codec's declared
  per-sample error.

The emitted report carries the wire provenance: codec spec, per-sample
error bound and frame-loss counters.  The verdict is the shared
:class:`~repro.faults.chaos.AuditOutcome`.

Everything is a pure function of ``(run, codec, rates, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.faults.chaos import AuditOutcome, clean_truth
from repro.faults.recovery import RecoveryPipeline
from repro.faults.wire import (
    FrameCorruption,
    FrameDrop,
    WireFaultModel,
    WireFaultPlan,
    WireLedger,
)
from repro.stream.ingest import replay_run
from repro.wire.session import WireReader, WireWriter

__all__ = ["WireScenario", "WireChaosOutcome", "run_wire_chaos"]

#: Detector settings that must stay inert on the wire path: quantized
#: readings may legitimately repeat, and frame loss hits all nodes at
#: once, so per-node stuck/quarantine heuristics would misfire.  Large
#: thresholds switch them off without forking the recovery layer.
_DETECTORS_OFF = 10**6


@dataclass(frozen=True)
class WireScenario:
    """A named transport-fault intensity bundle."""

    name: str = "wire"
    codec: str = "delta-varint"
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt_flips: int = 4

    def models(self) -> list[WireFaultModel]:
        """The frame-level fault models this scenario switches on."""
        out: list[WireFaultModel] = []
        if self.corrupt_rate > 0:
            out.append(
                FrameCorruption(
                    rate=self.corrupt_rate, flips=self.corrupt_flips
                )
            )
        if self.drop_rate > 0:
            out.append(FrameDrop(rate=self.drop_rate))
        return out

    def plan(self, seed: int) -> WireFaultPlan:
        """Canonical seeded wire fault plan for this scenario."""
        return WireFaultPlan.canonical(self.models(), seed)


@dataclass(frozen=True)
class WireChaosOutcome(AuditOutcome):
    """One wire chaos trial: estimates, label, and both verdicts."""

    scenario: WireScenario
    gap_policy: str
    seed: int
    ledger: WireLedger
    bytes_on_wire: int
    samples_sent: int

    @property
    def bytes_per_sample(self) -> float:
        """Wire bytes per scalar sample actually framed."""
        return self.bytes_on_wire / max(self.samples_sent, 1)

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "scenario": self.scenario.name,
            "codec": self.scenario.codec,
            "drop_rate": self.scenario.drop_rate,
            "corrupt_rate": self.scenario.corrupt_rate,
            "gap_policy": self.gap_policy,
            "seed": self.seed,
            **self._audit_rows(),
            "bytes_on_wire": self.bytes_on_wire,
            "samples_sent": self.samples_sent,
            "bytes_per_sample": self.bytes_per_sample,
            "report": self.report.to_dict(),
            "ledger": self.ledger.to_dict(),
        }

    def lines(self) -> list[str]:
        """Human-readable verdict block."""
        return [
            f"wire scenario {self.scenario.name} "
            f"(codec={self.scenario.codec}, policy={self.gap_policy})",
            f"  wire cost     {self.bytes_per_sample:.2f} B/sample over "
            f"{self.ledger.frames_sent} frames",
            *self._audit_lines(),
            *("  " + line for line in self.report.lines()),
        ]


def run_wire_chaos(
    run,
    scenario: WireScenario,
    *,
    seed: int,
    gap_policy: str = "hold",
    ticks_per_batch: int = 20,
    node_indices: np.ndarray | None = None,
) -> WireChaosOutcome:
    """Send ``run`` through a faulty wire, recover, and audit the label.

    Pure function of its arguments: the same ``(run, scenario, seed)``
    produces a bit-identical :class:`WireChaosOutcome` on every call.
    """
    batches = list(
        replay_run(
            run,
            node_indices=node_indices,
            ticks_per_batch=ticks_per_batch,
            core_only=True,
        )
    )
    clean_mean_w, clean_cv = clean_truth(np.vstack([b.watts for b in batches]))

    writer = WireWriter(scenario.codec)
    frames = writer.write_all(batches)
    delivery = scenario.plan(seed).apply(frames)
    ledger = delivery.ledger

    reader = WireReader(dt_s=float(run.dt))
    pipeline = RecoveryPipeline(
        gap_policy=gap_policy,
        stuck_min_repeats=_DETECTORS_OFF,
        quarantine_after=_DETECTORS_OFF,
    )
    for chunk in delivery.chunks:
        for batch in reader.feed(chunk):
            pipeline.observe(batch)
    for batch in reader.close():
        pipeline.observe(batch)

    report = replace(
        pipeline.finalize(
            expected_ticks=sum(b.n_ticks for b in batches),
            batches_retried=0,
            batches_abandoned=0,
        ),
        codec=writer.codec.name,
        codec_error_bound_w=writer.error_bound_w,
        frames_dropped=ledger.frames_dropped,
        frames_corrupt=ledger.frames_corrupted,
    )

    samples_accounted = report.samples_missing + report.samples_never_arrived
    reconciliation = {
        "crc_detects_corruption": reader.crc_failures
        == ledger.frames_corrupted,
        "frames_conserved": reader.frames_ok + ledger.frames_lost
        == ledger.frames_sent,
        "gaps_explain_losses": samples_accounted == ledger.samples_lost,
        "no_false_flags": report.samples_stuck == 0
        and report.samples_spiked == 0,
        "repairs_cover_missing": report.samples_repaired
        == report.samples_missing,
        "nothing_quarantined": report.nodes_quarantined == (),
        "no_duplicates_or_garbage": reader.frames_duplicate == 0
        and reader.garbage_bytes == 0,
    }
    return WireChaosOutcome(
        scenario=scenario,
        gap_policy=gap_policy,
        seed=seed,
        clean_fleet_mean_w=clean_mean_w,
        clean_node_cv=clean_cv,
        report=report,
        ledger=ledger,
        bytes_on_wire=writer.bytes_written,
        samples_sent=writer.samples_written,
        reconciliation=reconciliation,
    )

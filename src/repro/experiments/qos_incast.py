"""Degraded-capacity run: offered-load sweep x congestion, PFC on/off.

The congestion-robustness counterpart of the paper's throughput figures:
instead of asking how fast one core can go, this asks what happens when
offered load *exceeds* what the pipeline can serve.  Two scenarios over
the shipped :func:`repro.core.nfs.qos_forwarder` pipeline:

- **oversubscription** -- constant offered load swept from half to 4x
  the rated service capacity, split evenly across the lossless (prio 0)
  and lossy (prio 1) classes;
- **incast** -- synchronized many-to-one bursts at priority 0 over a
  background of priority-1 traffic, the transient PFC headroom exists
  to absorb.

Each cell runs twice: with the PFCPause element (PFC on) and without it
(the lossy baseline) -- the same buffer carving either way, so the only
difference is whether occupancy crossing XOFF pauses the source or the
excess is dropped at admission.  Reporting goes through
:func:`repro.perf.report.classify_qos` (healthy vs congested) and every
run ends with the full buffer-checker audit
(:func:`repro.faults.audit.qos_audit`); an audit violation fails the
experiment, not just the report.

The headline claim (``check``): under every congested cell, PFC keeps
priority-0 loss at zero while the PFC-off baseline drops, and the books
balance exactly in both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.nfs import qos_forwarder
from repro.core.packetmill import PacketMill
from repro.experiments.common import Row, format_rows
from repro.experiments.result import ExperimentResult
from repro.faults.audit import qos_audit
from repro.hw.params import MachineParams
from repro.net.trace import IncastBurstTrace, OversubscribedTrace, TraceSpec
from repro.perf.report import CONGESTED, classify_qos
from repro.qos import QosConfig, default_qos, tight_qos

#: Per-queue service rate (packets per iteration) of the rated queues.
SERVICE_RATE = 8
#: Total service capacity per iteration (two priority queues).
CAPACITY = 2 * SERVICE_RATE
#: Offered load as a multiple of CAPACITY.
OFFERED_RATIOS = (0.5, 1.0, 2.0, 4.0)
#: Packets per measured run.
RUN_PACKETS = 4000
#: Hard step cap: a run that cannot reach EOF within this is stuck.
MAX_STEPS = 20_000


@dataclass
class QosIncastResult(ExperimentResult):
    """Per-cell records of the oversubscription sweep and incast runs."""

    name: str = "qos_incast"
    records: List[Dict[str, object]] = field(default_factory=list)
    run_packets: int = RUN_PACKETS
    service_rate: int = SERVICE_RATE

    def _params(self) -> Dict[str, object]:
        return {
            "run_packets": self.run_packets,
            "service_rate": self.service_rate,
            "offered_ratios": list(OFFERED_RATIOS),
        }

    def _points(self) -> List[Dict[str, object]]:
        return self.records


def _run_cell(trace, pfc: bool, qos: QosConfig) -> Dict[str, object]:
    """Build, run to EOF, audit, and flatten one congestion cell."""
    mill = PacketMill(
        qos_forwarder(pfc=pfc, rate=SERVICE_RATE),
        params=MachineParams(),
        trace=trace,
        qos=qos,
    )
    binary = mill.build()
    driver = binary.driver
    steps = 0
    while not driver.at_eof() and steps < MAX_STEPS:
        driver.step()
        steps += 1
    audit = qos_audit(driver)
    errors = [e for b in audit.values() for e in b["errors"]]
    books = audit[0]["priorities"]
    prio0 = books[0]
    prio1 = books.get(1, {"offered": 0, "dropped": 0})
    snapshot = binary.qos_ports[0].snapshot()
    return {
        "variant": "pfc-on" if pfc else "pfc-off",
        "health": classify_qos(audit),
        "reached_eof": driver.at_eof(),
        "steps": steps,
        "tx": driver.stats.tx_packets,
        "prio0_offered": prio0["offered"],
        "prio0_dropped": prio0["dropped"],
        "prio1_offered": prio1["offered"],
        "prio1_dropped": prio1["dropped"],
        "pause_events": prio0["pause_events"],
        "pause_iterations": prio0["pause_iterations"],
        "headroom_hwm": snapshot["headroom.hwm"],
        "source_throttled": round(trace.source_throttled, 1),
        "audit_errors": errors,
    }


def _oversubscribed_trace(ratio: float) -> OversubscribedTrace:
    per_prio = ratio * CAPACITY / 2.0
    return OversubscribedTrace(
        rates={0: per_prio, 1: per_prio},
        limit=RUN_PACKETS,
        spec=TraceSpec(seed=23),
    )


def _incast_trace() -> IncastBurstTrace:
    return IncastBurstTrace(
        senders=8, burst_len=4, period=4, priority=0,
        background_rate=4.0, background_priority=1,
        limit=RUN_PACKETS, spec=TraceSpec(seed=23),
    )


def run(scale=None) -> QosIncastResult:
    """The full sweep: oversubscription grid plus the incast scenario.

    ``scale`` is accepted for the common experiment protocol but unused:
    congestion cells are sized by packet count and service rate, not by
    the throughput-measurement grid.
    """
    result = QosIncastResult()
    for ratio in OFFERED_RATIOS:
        for pfc in (False, True):
            record = _run_cell(_oversubscribed_trace(ratio), pfc,
                               default_qos())
            record["scenario"] = "oversubscribed"
            record["offered_ratio"] = ratio
            result.records.append(record)
    for pfc in (False, True):
        # The tight carving: the incast transient must overrun the
        # reserved+shared quota so the shared headroom pool is what
        # saves (or, without PFC, fails to save) priority 0.
        record = _run_cell(_incast_trace(), pfc, tight_qos())
        record["scenario"] = "incast"
        record["offered_ratio"] = None
        result.records.append(record)
    return result


def check(result: QosIncastResult) -> None:
    """The robustness claims, asserted.

    1. every run's buffer books balance (the audit found no violation)
       and every run reaches EOF (backpressure never deadlocks);
    2. in every congested cell, PFC-on loses no priority-0 frames;
    3. wherever the PFC-off baseline dropped priority-0 frames, PFC-on
       dropped strictly fewer (bounded loss vs the baseline);
    4. undersubscribed cells stay healthy -- QoS never manufactures
       congestion that is not there.
    """
    by_key: Dict[tuple, Dict[str, Dict[str, object]]] = {}
    for record in result.records:
        key = (record["scenario"], record["offered_ratio"])
        by_key.setdefault(key, {})[record["variant"]] = record
    for record in result.records:
        assert not record["audit_errors"], (
            "audit violation in %s: %s" % (record, record["audit_errors"]))
        assert record["reached_eof"], "run never reached EOF: %s" % record
    for key, pair in by_key.items():
        on, off = pair["pfc-on"], pair["pfc-off"]
        if on["health"] == CONGESTED or off["health"] == CONGESTED:
            assert on["prio0_dropped"] == 0, (
                "PFC-on lost %d priority-0 frames at %s"
                % (on["prio0_dropped"], key))
        if off["prio0_dropped"]:
            assert on["prio0_dropped"] < off["prio0_dropped"], (
                "PFC did not bound priority-0 loss at %s" % (key,))
    for record in result.records:
        if (record["scenario"] == "oversubscribed"
                and record["offered_ratio"] < 1.0):
            assert record["health"] == "healthy", (
                "undersubscribed run classified %s" % record["health"])


def format_table(result: QosIncastResult) -> str:
    rows = []
    for record in result.records:
        ratio = record["offered_ratio"]
        label = "%s %s %s" % (
            record["scenario"],
            "x%.1f" % ratio if ratio is not None else "",
            record["variant"],
        )
        rows.append(Row(label, {
            "health": record["health"],
            "tx": float(record["tx"]),
            "p0 drops": float(record["prio0_dropped"]),
            "p1 drops": float(record["prio1_dropped"]),
            "pauses": float(record["pause_events"]),
            "hr hwm": float(record["headroom_hwm"]),
        }))
    return format_rows(
        rows,
        ("health", "tx", "p0 drops", "p1 drops", "pauses", "hr hwm"),
        header="QoS congestion sweep (service=%d pkt/iter/queue, %d packets)"
               % (SERVICE_RATE, RUN_PACKETS),
        fmt="%10.0f",
    )

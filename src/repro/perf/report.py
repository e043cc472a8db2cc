"""Run health reporting: distinguish "CPU-bound" from "fault-degraded".

A throughput number alone cannot tell an operator *why* a run fell short
of line rate: the core may simply be saturated, or the pipeline may be
shedding load because of faults (mempool exhaustion, link flaps, frame
corruption, TX backpressure).  This module reads the degraded-path ledger
(:class:`repro.click.driver.RunStats` or a measured run's counter dict)
and renders the distinction, the same way an operator would
read ``rte_eth_stats``/xstats next to a perf profile.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.click.driver import RunStats
from repro.telemetry.ledger import HW_DETAIL_NAMES, LEDGER_FIELDS, LEDGER_NAMES

HEALTHY = "healthy"
FAULT_DEGRADED = "fault-degraded"
CONGESTED = "congested"


def _ledger(source: Union[RunStats, Dict[str, int]]) -> Dict[str, int]:
    """Normalize a RunStats or measured-run counter dict into the ledger
    entries that mark a run as degraded."""
    if isinstance(source, RunStats):
        source = source.ledger()
    return {name: int(source.get(name, 0)) for name in LEDGER_NAMES}


def classify(source: Union[RunStats, Dict[str, int]]) -> str:
    """``"healthy"`` or ``"fault-degraded"`` for one run's ledger."""
    ledger = _ledger(source)
    return FAULT_DEGRADED if any(ledger.values()) else HEALTHY


def drop_breakdown(source: Union[RunStats, Dict[str, int]]) -> Dict[str, int]:
    """The nonzero entries of the drop ledger."""
    return {name: count for name, count in _ledger(source).items() if count}


def format_report(
    stats: RunStats,
    bound_by: Optional[str] = None,
    label: str = "run",
) -> str:
    """Render one run's health report.

    ``bound_by`` is the physical ceiling from
    :class:`repro.perf.runner.ThroughputPoint` ("cpu", "link", ...); it is
    reported only for healthy runs, where it is the true explanation of
    the achieved rate.
    """
    verdict = classify(stats)
    lines = ["%s: %s" % (label, verdict)]
    if verdict == HEALTHY:
        if bound_by:
            lines.append("  bound by: %s" % bound_by)
        lines.append("  rx=%d tx=%d drops=%d"
                     % (stats.rx_packets, stats.tx_packets, stats.drops))
        return "\n".join(lines)
    ledger = _ledger(stats)
    lines.append("  rx=%d tx=%d pipeline_drops=%d dropped_total=%d"
                 % (stats.rx_packets, stats.tx_packets, stats.drops,
                    stats.dropped_total))
    for name, description in LEDGER_FIELDS:
        if ledger[name]:
            lines.append("  %-38s %d" % (description + ":", ledger[name]))
    if stats.errors_by_element:
        for element, count in sorted(stats.errors_by_element.items()):
            lines.append("    error boundary at %-20s %d" % (element + ":", count))
    detail = stats.hw_counters
    for extra in HW_DETAIL_NAMES:
        if detail.get(extra):
            lines.append("  %-38s %d" % (extra + ":", detail[extra]))
    return "\n".join(lines)


def classify_qos(audit: Dict[int, Dict[str, object]]) -> str:
    """``"healthy"`` or ``"congested"`` from a :func:`qos_audit` result.

    A run is *congested* when the QoS machinery had to act: admission
    dropped frames, pause asserted, or the shared headroom pool was
    touched.  This is deliberately distinct from :func:`classify`'s
    fault verdict -- congestion is offered load exceeding capacity, not
    a malfunction.
    """
    for breakdown in audit.values():
        for acc in breakdown["priorities"].values():
            if acc["dropped"] or acc["pause_events"]:
                return CONGESTED
    return HEALTHY


def format_qos_report(audit: Dict[int, Dict[str, object]],
                      label: str = "run") -> str:
    """Render per-port, per-priority QoS books from a :func:`qos_audit`.

    Shows offered/admitted/dropped/pause accounting per priority plus
    the port-level pool usage; audit ``errors`` (conservation
    violations) are rendered prominently when present.
    """
    lines = ["%s: %s" % (label, classify_qos(audit))]
    for port, breakdown in sorted(audit.items()):
        lines.append("  port %d: shared=%d headroom=%d occupancy=%d "
                     "unpooled_drops=%d"
                     % (port, breakdown["shared_used"],
                        breakdown["headroom_used"], breakdown["occupancy"],
                        breakdown["unpooled_drops"]))
        for prio, acc in sorted(breakdown["priorities"].items()):
            lines.append(
                "    prio %d: offered=%-6d admitted=%-6d dropped=%-5d "
                "pause_events=%-4d pause_iterations=%d"
                % (prio, acc["offered"], acc["admitted"], acc["dropped"],
                   acc["pause_events"], acc["pause_iterations"]))
        for error in breakdown["errors"]:
            lines.append("    CONSERVATION VIOLATION: %s" % error)
    return "\n".join(lines)


def format_telemetry_report(telemetry, metric: str = "cycles",
                            window_names=None) -> str:
    """Render one build's telemetry: attribution, flamegraph, windows.

    ``telemetry`` is the :class:`repro.telemetry.Telemetry` bundle a
    measured run carries (``run.telemetry``); sections whose recorder
    was disabled are skipped.
    """
    sections = []
    if telemetry.attribution is not None and telemetry.attribution.buckets():
        sections.append(telemetry.attribution.format_top(metric))
    if telemetry.spans is not None and telemetry.spans.folded():
        sections.append(telemetry.flamegraph())
    if telemetry.sampler is not None and telemetry.sampler.windows:
        sections.append(telemetry.sampler.format_table(window_names))
    if not sections:
        return "(no telemetry recorded)"
    return "\n\n".join(sections)

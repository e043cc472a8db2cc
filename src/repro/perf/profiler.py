"""Per-element profiling: where do the packet's nanoseconds go?

The paper's premise for specialization is that "for a given network
function and workload there is a subset of all execution paths that are
very frequently used".  A :class:`ProfileReport` is the breakdown a
perf-record session would give on the real system -- and the input a
PGO-style workflow would consume.  It is a view over the binary's
:class:`~repro.telemetry.attribution.CycleAttribution` buckets (one per
element, ``pmd.rx``, ``pmd.tx`` and ``driver``), so the rows tile the
run: they sum to its totals.  Build with telemetry on, measure, then
read the report::

    binary = PacketMill(config, telemetry=True).build()
    binary.measure(batches=150, warmup_batches=80)
    print(ProfileReport.from_binary(binary).format_table())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.binary import SpecializedBinary
from repro.telemetry.attribution import DRIVER_BUCKET

#: The integer cache events every bucket carries.
CACHE_EVENTS = ("l1_hits", "l2_hits", "llc_loads", "llc_hits", "llc_misses")


class ProfileError(ValueError):
    """The binary cannot be profiled (built without cycle attribution)."""


@dataclass
class ElementProfile:
    """Accumulated cost of one element (or the PMD/driver pseudo-element)."""

    name: str
    class_name: str
    packets: int = 0
    cycles: float = 0.0
    ns: float = 0.0
    instructions: float = 0.0
    events: Dict[str, int] = field(default_factory=dict)

    @property
    def ns_per_packet(self) -> float:
        return self.ns / self.packets if self.packets else 0.0


@dataclass
class ProfileReport:
    """The whole run's attribution."""

    total_ns: float
    total_packets: int
    elements: Dict[str, ElementProfile] = field(default_factory=dict)

    @classmethod
    def from_binary(cls, binary: SpecializedBinary) -> "ProfileReport":
        """The attribution since the binary's last measurement reset.

        Elements are keyed by name; the PMD paths and the main loop by
        their bucket names (``pmd.rx``, ``pmd.tx``, ``driver``).
        Untraversed elements appear with zero cost.
        """
        attribution = binary.telemetry.attribution
        if attribution is None:
            raise ProfileError(
                "binary was built without cycle attribution; "
                "build it with telemetry=True to profile it")
        owners = {
            "element." + e.name: (e.name, e.decl.class_name)
            for e in binary.graph.all_elements()
        }
        pmd_class = type(next(iter(binary.pmds.values()))).__name__
        owners["pmd.rx"] = ("pmd.rx", pmd_class)
        owners["pmd.tx"] = ("pmd.tx", pmd_class)
        owners[DRIVER_BUCKET] = (DRIVER_BUCKET, type(binary.driver).__name__)
        elements = {
            name: ElementProfile(name, class_name)
            for name, class_name in owners.values()
        }
        freq_ghz = binary.params.freq_ghz
        for record in attribution.to_records():
            bucket = record["bucket"]
            name, class_name = owners[bucket]
            elements[name] = ElementProfile(
                name, class_name,
                packets=attribution.registry.get(bucket + ".packets"),
                cycles=record["cycles"],
                ns=record["cycles"] / freq_ghz,
                instructions=record["instructions"],
                events={event: record[event] for event in CACHE_EVENTS},
            )
        return cls(
            total_ns=binary.cpu.elapsed_ns(),
            total_packets=binary.driver.stats.rx_packets,
            elements=elements,
        )

    def sorted_by_cost(self) -> List[ElementProfile]:
        return sorted(self.elements.values(), key=lambda e: -e.ns)

    def share(self, name: str) -> float:
        if self.total_ns == 0:
            return 0.0
        return self.elements[name].ns / self.total_ns

    def hottest(self) -> ElementProfile:
        return self.sorted_by_cost()[0]

    def format_table(self) -> str:
        lines = [
            "%-26s %-18s %10s %10s %7s"
            % ("element", "class", "ns/pkt", "instr/pkt", "share"),
        ]
        for profile in self.sorted_by_cost():
            if profile.packets == 0:
                continue
            lines.append(
                "%-26s %-18s %10.2f %10.1f %6.1f%%"
                % (
                    profile.name,
                    profile.class_name,
                    profile.ns_per_packet,
                    profile.instructions / profile.packets,
                    self.share(profile.name) * 100,
                )
            )
        lines.append("total: %.1f ns/packet over %d packets"
                     % (self.total_ns / max(1, self.total_packets),
                        self.total_packets))
        return "\n".join(lines)

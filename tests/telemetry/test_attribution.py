"""Conservation: attributed costs tile the run and sum to its totals."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nfs import forwarder, router, workpackage_forwarder
from repro.faults import ALL_KINDS, FaultSchedule, FaultSpec
from repro.hw.params import MachineParams
from repro.telemetry.attribution import DRIVER_BUCKET, TRACKED, CycleAttribution
from repro.telemetry.registry import CounterRegistry

from tests.telemetry.conftest import build

pytestmark = pytest.mark.telemetry

RUN_BATCHES = 40

#: Integer event counts conserve exactly; cycles/instructions are floats
#: and conserve to accumulation error.
INTEGER_METRICS = ("l1_hits", "l2_hits", "llc_loads", "llc_hits", "llc_misses")


def assert_conserved(binary):
    """Attributed bucket totals must sum to the core's run totals."""
    attribution = binary.telemetry.attribution
    cpu = binary.cpu
    assert math.isclose(
        attribution.total("cycles"), cpu.total_cycles(), rel_tol=1e-9, abs_tol=1e-6
    )
    assert math.isclose(
        attribution.total("instructions"), cpu.instructions,
        rel_tol=1e-9, abs_tol=1e-6,
    )
    counters = cpu.counters
    for metric in INTEGER_METRICS:
        assert attribution.total(metric) == getattr(counters, metric), metric


class TestConservation:
    @pytest.mark.parametrize("config", [forwarder, router])
    def test_buckets_sum_to_run_totals(self, config):
        binary = build(config=config())
        binary.driver.run_batches(RUN_BATCHES)
        assert_conserved(binary)

    def test_conservation_survives_reset(self):
        binary = build()
        binary.driver.run_batches(RUN_BATCHES)
        binary.reset_measurements()
        binary.driver.run_batches(RUN_BATCHES)
        assert_conserved(binary)

    def test_buckets_cover_the_active_pipeline(self):
        binary = build(config=router())
        binary.driver.run_batches(RUN_BATCHES)
        buckets = binary.telemetry.attribution.buckets()
        assert DRIVER_BUCKET in buckets
        assert "pmd.rx" in buckets and "pmd.tx" in buckets
        # Only known owners appear: the driver, the PMDs, and elements.
        element_names = {e.name for e in binary.graph.all_elements()}
        element_buckets = set()
        for bucket in buckets:
            if bucket in (DRIVER_BUCKET, "pmd.rx", "pmd.tx"):
                continue
            assert bucket.startswith("element.")
            assert bucket[len("element."):] in element_names
            element_buckets.add(bucket)
        # Elements that saw packets got charged (idle branches -- the
        # ARP responder on a data-only trace -- correctly get nothing).
        assert len(element_buckets) >= 3

    def test_attribution_lands_in_the_registry(self):
        binary = build(config=router())
        binary.driver.run_batches(RUN_BATCHES)
        registry = binary.telemetry.registry
        per_element = registry.match("element.*.cycles")
        assert per_element
        attribution = binary.telemetry.attribution
        totals = attribution.totals("cycles")
        for name, value in per_element.items():
            bucket = name[: -len(".cycles")]
            assert totals[bucket] == value


class TestPerElement:
    def test_packets_land_in_the_traversed_buckets(self):
        binary = build(config=router())
        run = binary.measure(batches=40, warmup_batches=20)
        attribution = binary.telemetry.attribution
        registry = attribution.registry
        cycles = attribution.totals("cycles")
        for name in ("c", "rt", "dec"):
            assert cycles["element." + name] > 0, name
            assert registry.get("element.%s.packets" % name) > 0, name
        assert registry.get("pmd.rx.packets") == run.packets
        assert registry.get("pmd.tx.packets") == run.tx_packets
        # No ARP traffic in the trace: the responder never runs.
        arp = binary.graph.by_class("ARPResponder")[0].name
        assert registry.get("element.%s.packets" % arp) == 0

    def test_top_finds_the_hot_element(self):
        """A memory-heavy WorkPackage takes over a quarter of the cycles."""
        binary = build(config=workpackage_forwarder(16, 5, 20))
        binary.measure(batches=60, warmup_batches=30)
        (wp,) = binary.graph.by_class("WorkPackage")
        shares = {bucket: share for bucket, _, share
                  in binary.telemetry.attribution.top("cycles")}
        assert shares["element." + wp.name] > 0.25


@settings(max_examples=10, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=3),
    probability=st.floats(0.05, 1.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_conservation_under_fault_schedules(kinds, probability, seed):
    """Degraded paths (drops, resets, backpressure) still tile the run."""
    schedule = FaultSchedule(
        [FaultSpec(kind=kind, probability=probability) for kind in kinds],
        seed=seed,
    )
    binary = build(
        faults=schedule,
        params=MachineParams(rx_ring_size=64, tx_ring_size=64),
    )
    binary.driver.run_batches(RUN_BATCHES)
    assert_conserved(binary)


class TestReading:
    def make_synthetic(self):
        class FakeCounters:
            l1_hits = l2_hits = llc_loads = llc_hits = llc_misses = 0

        class FakeCpu:
            def __init__(self):
                self.counters = FakeCounters()
                self.instructions = 0.0
                self._cycles = 0.0

            def total_cycles(self):
                return self._cycles

        registry = CounterRegistry()
        attribution = CycleAttribution(registry)
        cpu = FakeCpu()
        attribution.bind(cpu)
        return attribution, cpu

    def test_top_orders_and_shares(self):
        attribution, cpu = self.make_synthetic()
        cpu._cycles = 30.0
        attribution.sync("element.a")
        cpu._cycles = 100.0
        attribution.sync("element.b")
        rows = attribution.top("cycles")
        assert [r[0] for r in rows] == ["element.b", "element.a"]
        assert rows[0][1] == pytest.approx(70.0)
        assert rows[0][2] == pytest.approx(0.7)
        table = attribution.format_top("cycles")
        assert "element.b" in table.splitlines()[2]

    def test_rebase_skips_attribution(self):
        attribution, cpu = self.make_synthetic()
        cpu._cycles = 50.0
        attribution.rebase()
        cpu._cycles = 60.0
        attribution.sync("element.a")
        assert attribution.totals("cycles") == {"element.a": pytest.approx(10.0)}

    def test_to_records_covers_tracked_metrics(self):
        attribution, cpu = self.make_synthetic()
        cpu._cycles = 5.0
        attribution.sync("element.a")
        (record,) = attribution.to_records()
        assert record["bucket"] == "element.a"
        assert set(record) == {"bucket", *TRACKED}

"""Tests for the PMD's degraded paths: rx_nombuf, rx_errors, tx_full."""

from repro.compiler.pipeline import PassManager, compile_pmd
from repro.compiler.structlayout import LayoutRegistry
from repro.core.options import BuildOptions
from repro.dpdk.metadata import make_model
from repro.dpdk.nic import Nic
from repro.dpdk.pmd import MlxPmd
from repro.faults import (
    CORRUPT,
    TX_BACKPRESSURE,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
)
from repro.hw.cpu import CpuCore
from repro.hw.layout import AddressSpace
from repro.hw.memory import MemorySystem
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec


def make_rig(frame=128, rx_ring=64, tx_ring=None):
    params = MachineParams(rx_ring_size=rx_ring, tx_ring_size=tx_ring or rx_ring)
    mem = MemorySystem(params)
    cpu = CpuCore(params, mem)
    space = AddressSpace(seed=0)
    trace = FixedSizeTraceGenerator(frame, TraceSpec(pool_size=128))
    nic = Nic(params, mem, space, trace)
    model = make_model("copying")
    model.setup(space, params)
    registry = LayoutRegistry()
    model.register_layouts(registry)
    programs = compile_pmd(model, BuildOptions.vanilla(), registry,
                           PassManager())
    return MlxPmd(nic, model, cpu, programs), nic, model


def attach(nic, specs, seed=0):
    injector = FaultInjector(FaultSchedule(specs, seed=seed))
    injector.begin_iteration()
    nic.faults = injector
    return injector


class TestRxNombuf:
    def test_replenish_failure_counts_not_raises(self):
        pmd, nic, model = make_rig()
        # Empty the pool from outside (another consumer won the race).
        hostages = []
        while model.mempool.available:
            hostages.append(model.mempool.get())
        pkts = pmd.rx_burst(8)        # consumes 8 posted buffers
        assert len(pkts) == 8         # delivery itself still works
        assert nic.counters.rx_nombuf > 0
        assert nic.rx_posted == nic.params.rx_ring_size - 8
        for ref in hostages:
            model.mempool.put(ref)

    def test_replenish_recovers_after_pressure_lifts(self):
        pmd, nic, model = make_rig()
        hostages = [model.mempool.get() for _ in range(model.mempool.available)]
        pmd.rx_burst(8)
        assert not nic.rx_ring.is_full()
        for ref in hostages:
            model.mempool.put(ref)
        pmd.rx_burst(8)               # next poll tops the ring back up
        assert nic.rx_ring.is_full()


class TestRxErrors:
    def test_damaged_frames_dropped_and_buffers_freed(self):
        pmd, nic, model = make_rig()
        attach(nic, [FaultSpec(CORRUPT, probability=1.0)])
        before = model.mempool.gets - model.mempool.puts
        pkts = pmd.rx_burst(8)
        assert pkts == []             # every frame failed validation
        assert nic.counters.rx_errors == 8
        assert nic.counters.rx_corrupt == 8
        # All 8 buffers went back to the pool and the ring was refilled.
        assert model.mempool.gets - model.mempool.puts == before
        assert nic.rx_ring.is_full()


class TestTxFull:
    def test_backpressure_refuses_burst_and_counts(self):
        pmd, nic, model = make_rig()
        attach(nic, [FaultSpec(TX_BACKPRESSURE, probability=1.0)])
        pkts = pmd.rx_burst(8)
        sent = pmd.tx_burst(pkts)
        assert sent == 0
        assert nic.counters.tx_full == 8
        assert nic.tx_sent == 0

    def test_ring_full_counts_remainder(self):
        pmd, nic, model = make_rig(rx_ring=64, tx_ring=4)
        pkts = pmd.rx_burst(8)
        sent = pmd.tx_burst(pkts)
        # 4-slot ring: some of the burst is refused and counted.
        assert sent < len(pkts)
        assert nic.counters.tx_full == len(pkts) - sent

    def test_recover_reaps_and_replenishes(self):
        pmd, nic, model = make_rig()
        pkts = pmd.rx_burst(8)
        pmd.tx_burst(pkts)
        pmd.recover()
        assert nic.tx_ring.count == 0
        assert nic.rx_ring.is_full()

"""The DPDK l2fwd sample application and its X-Change port (§4.6).

l2fwd is the minimal pure-DPDK forwarder: no modular framework, no
annotations -- it swaps MAC addresses directly in the mbuf's data and
retransmits.  ``l2fwd-xchg`` is the paper's modified version where "the
metadata is reduced to two simple fields (the buffer address and packet
length) instead of the 128-B rte_mbuf".
"""

from __future__ import annotations

from repro.compiler.ir import BranchHint, Compute, DataAccess, Program
from repro.compiler.lower import lower
from repro.compiler.pipeline import PassManager, compile_pmd
from repro.compiler.structlayout import LayoutRegistry
from repro.compiler.runtime import execute_bases
from repro.core.binary import MeasuredRun
from repro.core.options import BuildOptions, MetadataModel
from repro.dpdk.metadata import OverlayingModel, XChangeModel
from repro.dpdk.nic import Nic
from repro.dpdk.pmd import MlxPmd
from repro.dpdk.xchg_api import minimal_conversions
from repro.hw.cpu import CpuCore
from repro.hw.layout import AddressSpace
from repro.hw.memory import MemorySystem
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec


def _app_program() -> Program:
    """l2fwd's per-packet main-loop body: read/patch the Ethernet header."""
    return Program(
        "l2fwd_loop",
        [
            DataAccess(0, 12, write=True),  # MAC swap
            Compute(34, note="l2fwd-loop"),
            BranchHint(0.02, note="port-check"),
        ],
    )


class L2fwdBinary:
    """A pure-DPDK forwarder bound to one core and one port."""

    def __init__(self, params: MachineParams, model, frame_len: int,
                 seed: int = 0, burst: int = 32):
        self.params = params
        self.options = BuildOptions.metadata(MetadataModel(model.name))
        self.mem = MemorySystem(params, n_cores=1, seed=seed)
        self.cpu = CpuCore(params, self.mem)
        self.space = AddressSpace(seed=seed)
        self.registry = LayoutRegistry()
        self.model = model
        model.setup(self.space, params)
        model.register_layouts(self.registry)
        trace = FixedSizeTraceGenerator(frame_len, TraceSpec(seed=seed + 5))
        self.nic = Nic(params, self.mem, self.space, trace, name="l2fwd_nic")
        self.pmd = MlxPmd(self.nic, model, self.cpu, compile_pmd(
            model, self.options, self.registry, PassManager()))
        self.pmds = {0: self.pmd}
        self.burst = burst
        self._app = lower(_app_program(), self.registry)
        self._rx_packets = 0
        self._tx_packets = 0
        self._tx_bytes = 0

    # -- main loop ---------------------------------------------------------------

    def step(self) -> int:
        pkts = self.pmd.rx_burst(self.burst)
        rows = []
        for pkt in pkts:
            ref = pkt.mbuf
            rows.append((ref.meta_addr, ref.mbuf_addr, 0, ref.data_addr, 0))
            pkt.ether().swap_addresses()
        execute_bases(self.cpu, self._app, rows)
        sent = self.pmd.tx_burst(pkts)
        self._rx_packets += len(pkts)
        self._tx_packets += sent
        self._tx_bytes += sum(len(p) for p in pkts[:sent])
        return len(pkts)

    # -- measurement API (duck-typed to SpecializedBinary) --------------------------

    def warmup(self, batches: int = 100) -> None:
        for _ in range(batches):
            self.step()
        self.reset_measurements()

    def reset_measurements(self) -> None:
        self.cpu.reset()
        self.mem.reset_counters()
        self._rx_packets = 0
        self._tx_packets = 0
        self._tx_bytes = 0

    def run(self, batches: int) -> MeasuredRun:
        for _ in range(batches):
            self.step()
        counters = self.cpu.counters
        counters.packets += self._rx_packets
        return MeasuredRun(
            packets=self._rx_packets,
            tx_packets=self._tx_packets,
            tx_bytes=self._tx_bytes,
            drops=0,
            elapsed_ns=self.cpu.elapsed_ns(),
            instructions=self.cpu.instructions,
            total_cycles=self.cpu.total_cycles(),
            counters=counters.snapshot(),
            core_cycles=self.cpu.core_cycles,
            uncore_ns=self.cpu.uncore_ns,
        )

    def measure(self, batches: int = 250, warmup_batches: int = 120) -> MeasuredRun:
        self.warmup(warmup_batches)
        return self.run(batches)


def l2fwd(params: MachineParams, frame_len: int, seed: int = 0) -> L2fwdBinary:
    """Stock l2fwd: operates directly on the full rte_mbuf."""
    return L2fwdBinary(params, OverlayingModel(), frame_len, seed=seed)


def l2fwd_xchg(params: MachineParams, frame_len: int, seed: int = 0) -> L2fwdBinary:
    """l2fwd ported to X-Change with the two-field minimal metadata."""
    model = XChangeModel(conversions=minimal_conversions())
    return L2fwdBinary(params, model, frame_len, seed=seed)

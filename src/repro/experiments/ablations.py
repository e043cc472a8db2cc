"""Ablations of the design choices DESIGN.md calls out.

Not paper figures -- these isolate single knobs of the system:

- ``ddio_ways``: the paper tunes ``IIO LLC WAYS`` to 8 set bits so DDIO
  does not bottleneck; sweep the way quota and watch LLC behaviour.
- ``burst_size``: the RX burst amortizes poll/doorbell overheads and
  bounds X-Change's metadata working set.
- ``xchg_meta_buffers``: §3.1's "limited number of metadata buffers
  (e.g., 32)" claim -- too few hurts nothing here (they only get warmer),
  too many cools the working set.
- ``driver_models``: TinyNF vs. X-Change vs. vectorized classic DPDK.
- ``pgo``: the §5 future-work item stacked on top of PacketMill.

``run(scale)`` measures all five into one :class:`AblationsResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List

from repro.core.nfs import forwarder
from repro.core.options import BuildOptions, MetadataModel
from repro.exec import cache as exec_cache
from repro.exec.sweep import PointSpec, TraceKey, run_points
from repro.experiments.common import QUICK, Scale
from repro.experiments.result import ExperimentResult
from repro.hw.params import MachineParams
from repro.net.trace import TraceSpec

FRAME = 1024
FREQ = 2.3

#: Every ablation replays the same fixed-size trace on every port/core.
TRACE = TraceKey("fixed", FRAME, seed=7, per_port=False)


@dataclass
class AblationResult(ExperimentResult):
    # The mixin's ``name`` class attribute reads as an inherited default
    # here, so ``rows`` needs one too to keep the field order legal.
    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def _points(self):
        return [dict(row) for row in self.rows]

    def column(self, key):
        return [row[key] for row in self.rows]

    def format_table(self) -> str:
        if not self.rows:
            return self.name
        columns = list(self.rows[0])
        lines = ["Ablation: %s" % self.name,
                 "".join("%16s" % c for c in columns)]
        for row in self.rows:
            cells = []
            for column in columns:
                value = row[column]
                cells.append("%16s" % (("%.2f" % value) if isinstance(value, float) else value))
            lines.append("".join(cells))
        return "\n".join(lines)


def ddio_ways(scale: Scale = QUICK) -> AblationResult:
    """LLC I/O way quota: 1 way starves DMA locality; 8 (the paper's
    setting) keeps packet data cache-resident."""
    way_counts = (1, 2, 4, 8)
    specs = [
        PointSpec(forwarder(), BuildOptions.metadata(MetadataModel.COPYING),
                  FREQ, scale.batches, scale.warmup_batches, trace=TRACE,
                  params_overrides=(("ddio_ways", ways),))
        for ways in way_counts
    ]
    rows = []
    for ways, point in zip(way_counts, run_points(specs)):
        rows.append({
            "ddio_ways": ways,
            "cpu_mpps": point.cpu_pps / 1e6,
            "llc_miss_per_pkt": point.run.counters["llc_misses"] / point.run.packets,
        })
    return AblationResult("ddio_ways", rows)


def check_ddio_ways(result: AblationResult) -> None:
    misses = result.column("llc_miss_per_pkt")
    assert misses[0] >= misses[-1], "more DDIO ways should not add misses"
    mpps = result.column("cpu_mpps")
    assert mpps[-1] >= mpps[0] * 0.99, "more DDIO ways should not hurt"


def burst_size(scale: Scale = QUICK) -> AblationResult:
    """Per-burst overheads amortize with larger bursts, with diminishing
    returns once the poll/doorbell share is negligible."""
    bursts = (4, 8, 16, 32, 64, 128)
    specs = [
        PointSpec(forwarder(burst=burst), BuildOptions.packetmill(),
                  FREQ, scale.batches, scale.warmup_batches, trace=TRACE)
        for burst in bursts
    ]
    rows = [
        {"burst": burst, "cpu_mpps": point.cpu_pps / 1e6}
        for burst, point in zip(bursts, run_points(specs))
    ]
    return AblationResult("burst_size", rows)


def check_burst_size(result: AblationResult) -> None:
    mpps = result.column("cpu_mpps")
    assert mpps[2] > mpps[0], "bursting should amortize per-burst overhead"
    # Diminishing returns: the last doubling buys less than the first.
    first_gain = mpps[1] - mpps[0]
    last_gain = mpps[-1] - mpps[-2]
    assert last_gain < max(first_gain, 0.02)


def xchg_meta_buffers(scale: Scale = QUICK) -> AblationResult:
    """The metadata working set: a handful of buffers stays L1-warm; a
    mempool-sized population cycles through the cache like rte_mbufs."""
    from repro.dpdk.metadata import XChangeModel
    from repro.dpdk.nic import Nic
    from repro.dpdk.pmd import MlxPmd
    from repro.compiler.pipeline import PassManager, compile_pmd
    from repro.compiler.structlayout import LayoutRegistry
    from repro.hw.cpu import CpuCore
    from repro.hw.layout import AddressSpace
    from repro.hw.memory import MemorySystem

    rows = []
    for count in (8, 32, 64, 1024, 8192):
        params = MachineParams(freq_ghz=FREQ)
        mem = MemorySystem(params)
        cpu = CpuCore(params, mem)
        space = AddressSpace(seed=0)
        model = XChangeModel(meta_buffers=count)
        model.setup(space, params)
        registry = LayoutRegistry()
        model.register_layouts(registry)
        nic = Nic(params, mem, space,
                  exec_cache.trace_from_spec("fixed", FRAME, TraceSpec(seed=2)))
        pmd = MlxPmd(nic, model, cpu, compile_pmd(
            model, BuildOptions.metadata(MetadataModel.XCHANGE), registry,
            PassManager()))
        for _ in range(scale.warmup_batches):
            pmd.tx_burst(pmd.rx_burst(32))
        cpu.reset()
        mem.reset_counters()
        for _ in range(scale.batches):
            pmd.tx_burst(pmd.rx_burst(32))
        packets = scale.batches * 32
        rows.append({
            "meta_buffers": count,
            "ns_per_pkt": cpu.elapsed_ns() / packets,
            "l1_share": cpu.counters.l1_hits
            / max(1, cpu.counters.l1_hits + cpu.counters.l2_hits
                  + cpu.counters.llc_loads),
        })
    return AblationResult("xchg_meta_buffers", rows)


def check_xchg_meta_buffers(result: AblationResult) -> None:
    ns = result.column("ns_per_pkt")
    # The paper's sizing (burst + queue slack, ~32-64) is on the flat
    # optimum; a mempool-scale population is measurably worse.
    assert min(ns[:3]) <= ns[-1]
    assert ns[-1] >= ns[1] * 0.999


def _build_rows(key: str, config: str, cases, scale: Scale):
    """One ``{key: label, "cpu_mpps": ...}`` row per ``(label, options)``."""
    specs = [
        PointSpec(config, options, FREQ, scale.batches,
                  scale.warmup_batches, trace=TRACE)
        for _, options in cases
    ]
    return [
        {key: label, "cpu_mpps": point.cpu_pps / 1e6}
        for (label, _), point in zip(cases, run_points(specs))
    ]


def driver_models(scale: Scale = QUICK) -> AblationResult:
    """TinyNF vs. X-Change vs. vectorized/scalar classic DPDK."""
    cases = [
        ("copying", BuildOptions.metadata(MetadataModel.COPYING)),
        ("copying+vec", BuildOptions(lto=True, vectorized_pmd=True)),
        ("xchange", BuildOptions.metadata(MetadataModel.XCHANGE)),
        ("tinynf", BuildOptions(metadata_model=MetadataModel.TINYNF, lto=True)),
    ]
    return AblationResult("driver_models",
                          _build_rows("model", forwarder(), cases, scale))


def check_driver_models(result: AblationResult) -> None:
    rates = {row["model"]: row["cpu_mpps"] for row in result.rows}
    assert rates["tinynf"] >= rates["xchange"] * 0.98
    assert rates["xchange"] > rates["copying+vec"] > rates["copying"]


def pgo_stacking(scale: Scale = QUICK) -> AblationResult:
    """PGO on top of each build (the §5 'why not PGO instead' answer:
    it composes, and its margin is BOLT-class, not PacketMill-class)."""
    from repro.core.nfs import router

    cases = [
        ("vanilla", BuildOptions.vanilla()),
        ("vanilla+pgo", BuildOptions(pgo=True)),
        ("packetmill", BuildOptions.packetmill()),
        ("packetmill+pgo", dc_replace(BuildOptions.packetmill(), pgo=True)),
    ]
    return AblationResult("pgo_stacking",
                          _build_rows("build", router(), cases, scale))


def check_pgo_stacking(result: AblationResult) -> None:
    rates = {row["build"]: row["cpu_mpps"] for row in result.rows}
    pgo_gain = rates["vanilla+pgo"] / rates["vanilla"] - 1
    pm_gain = rates["packetmill"] / rates["vanilla"] - 1
    assert 0.0 < pgo_gain < 0.10, "PGO should be a sub-ten-percent win"
    assert pm_gain > pgo_gain * 2, "PacketMill dominates PGO alone"
    assert rates["packetmill+pgo"] >= rates["packetmill"]


ALL = {
    "ddio_ways": (ddio_ways, check_ddio_ways),
    "burst_size": (burst_size, check_burst_size),
    "xchg_meta_buffers": (xchg_meta_buffers, check_xchg_meta_buffers),
    "driver_models": (driver_models, check_driver_models),
    "pgo_stacking": (pgo_stacking, check_pgo_stacking),
}


@dataclass
class AblationsResult(ExperimentResult):
    """The five ablations of one run, in :data:`ALL` order."""

    results: List[AblationResult]

    name = "ablations"

    def _points(self):
        return [result.to_dict() for result in self.results]


def run(scale: Scale = QUICK) -> AblationsResult:
    return AblationsResult([run_fn(scale) for run_fn, _ in ALL.values()])


def check(result: AblationsResult) -> None:
    for ablation in result.results:
        ALL[ablation.name][1](ablation)


def format_table(result: AblationsResult) -> str:
    return "\n\n".join(ablation.format_table() for ablation in result.results)

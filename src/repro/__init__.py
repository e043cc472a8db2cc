"""PacketMill (ASPLOS '21) reproduction on a simulated commodity-hardware substrate.

The package is organized in layers, bottom-up:

- :mod:`repro.telemetry` -- counter registry, windowed sampling, cycle
  attribution, trace spans (the one source of truth for every statistic).
- :mod:`repro.net` -- packets, protocol headers, traffic traces.
- :mod:`repro.hw` -- cycle-level hardware model (caches, DDIO, TLB, CPU).
- :mod:`repro.dpdk` -- userspace NIC substrate (mbufs, mempools, PMD, PCIe).
- :mod:`repro.compiler` -- mini-IR and the optimization passes PacketMill
  applies (devirtualization, constant embedding, static graph, LTO inlining,
  metadata struct-field reordering).
- :mod:`repro.click` -- the modular packet-processing framework (FastClick
  analogue): config language, element library, run-to-completion driver.
- :mod:`repro.core` -- the paper's contribution: the X-Change metadata model
  and the PacketMill build pipeline producing specialized binaries.
- :mod:`repro.frameworks` -- baseline frameworks (VPP, BESS, l2fwd, ...).
- :mod:`repro.perf` -- measurement harness (throughput, latency, counters).
- :mod:`repro.experiments` -- one module per paper figure/table.
"""

__version__ = "1.0.0"

__all__ = [
    "PacketMill",
    "RunProfile",
    "BuildOptions",
    "MetadataModel",
    "FaultSchedule",
    "FaultSpec",
    "ShardedRuntime",
    "RssConfig",
    "SteeringPolicy",
    "ControlSocket",
    "MergedRegistry",
    "CounterRegistry",
    "Telemetry",
    "TelemetryConfig",
    "AnalysisReport",
    "analyze_config",
    "__version__",
]

_LAZY = {
    "PacketMill": ("repro.core.packetmill", "PacketMill"),
    "RunProfile": ("repro.core.profile", "RunProfile"),
    "BuildOptions": ("repro.core.options", "BuildOptions"),
    "MetadataModel": ("repro.core.options", "MetadataModel"),
    "FaultSchedule": ("repro.faults.schedule", "FaultSchedule"),
    "FaultSpec": ("repro.faults.schedule", "FaultSpec"),
    "ShardedRuntime": ("repro.core.sharded", "ShardedRuntime"),
    "RssConfig": ("repro.net.rss", "RssConfig"),
    "SteeringPolicy": ("repro.net.steering", "SteeringPolicy"),
    "ControlSocket": ("repro.control", "ControlSocket"),
    "MergedRegistry": ("repro.telemetry.registry", "MergedRegistry"),
    "CounterRegistry": ("repro.telemetry.registry", "CounterRegistry"),
    "Telemetry": ("repro.telemetry", "Telemetry"),
    "TelemetryConfig": ("repro.telemetry", "TelemetryConfig"),
    "AnalysisReport": ("repro.analyze.findings", "AnalysisReport"),
    "analyze_config": ("repro.analyze.api", "analyze_config"),
}


def __getattr__(name):
    """Lazily expose the top-level API without importing every layer upfront."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError("module 'repro' has no attribute %r" % name) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

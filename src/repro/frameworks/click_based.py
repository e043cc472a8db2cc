"""Click-family baselines built through the PacketMill pipeline.

Each framework is one row of :data:`CLICK_FRAMEWORKS` (build options and
RX burst) fed to :func:`click_forwarder`.  Framework differences, per the
paper's §2/§4.6 descriptions:

- **FastClick** -- Copying model (its default), dynamic graph, LTO on
  (every §4.6 build uses LTO so models compare at their best).
- **FastClick-Light** -- "disabling extra features and using the
  Overlaying model": lighter app path, mbuf-cast metadata.
- **BESS** -- Overlaying by design (``sn_buff`` over the mbuf), lean
  run-to-completion pipeline, so it matches FastClick-Light.
- **VPP** -- Copying+Overlaying hybrid (casts the mbuf but still copies
  fields into ``vlib_buffer_t`` for SSE-friendliness), 256-packet vectors; the
  paper measures it at Copying-level performance.
- **PacketMill** -- X-Change + all source-code optimizations + LTO.
"""

from __future__ import annotations

from repro.core.nfs import forwarder
from repro.core.options import BuildOptions, MetadataModel
from repro.core.packetmill import PacketMill
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec

#: Framework label -> (build options, RX burst) of its forwarder.
CLICK_FRAMEWORKS = {
    "FastClick (Copying)": (BuildOptions.metadata(MetadataModel.COPYING), 32),
    "FastClick-Light (Overlaying)":
        (BuildOptions.metadata(MetadataModel.OVERLAYING), 32),
    "PacketMill (X-Change)": (BuildOptions.packetmill(), 32),
    "VPP": (BuildOptions.metadata(MetadataModel.COPYING), 256),
    "BESS": (BuildOptions.metadata(MetadataModel.OVERLAYING), 32),
}


def click_forwarder(options: BuildOptions, burst: int, params: MachineParams,
                    frame_len: int, seed: int = 0):
    """A ``burst``-packet forwarder built with ``options``, fed
    ``frame_len``-byte frames."""
    def trace(port, core):
        return FixedSizeTraceGenerator(frame_len, TraceSpec(seed=seed + port))

    return PacketMill(forwarder(burst=burst), options, params=params,
                      trace=trace, seed=seed).build()


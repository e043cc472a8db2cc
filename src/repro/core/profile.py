"""RunProfile: one documented config object for a PacketMill build.

Subsystem wiring used to accumulate as ad-hoc ``PacketMill(...)`` keyword
arguments (``faults=``, ``telemetry=``, ``qos=``, ``analyze=``, ...).
:class:`RunProfile` consolidates them into a single declarative value that
can be stored, compared, and passed around:

    profile = RunProfile(
        options=BuildOptions.packetmill(),
        params=MachineParams(freq_ghz=2.3),
        telemetry=TelemetryConfig(),
        tier="codegen",
    )
    binary = PacketMill.from_profile(config, profile).build()

Every field has the same meaning (and default) as the corresponding
``PacketMill`` keyword, which remains a thin shim over this object, so
existing call sites keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Union

from repro.compiler.runtime import ExecutionTier
from repro.core.options import BuildOptions
from repro.faults.schedule import FaultSchedule
from repro.faults.watchdog import DEFAULT_THRESHOLD
from repro.hw.params import MachineParams
from repro.net.rss import RssConfig
from repro.qos import QosConfig
from repro.telemetry import TelemetryConfig


@dataclass
class RunProfile:
    """Everything that shapes one PacketMill build beyond the config text.

    Fields:

    - ``options``: the build variant (default ``BuildOptions.vanilla()``).
    - ``params``: machine parameters (default ``DEFAULT_PARAMS``).
    - ``trace``: a trace generator, or a ``(port, core) -> generator``
      factory (default: cached campus trace per port/core).
    - ``seed``: address-space / memory-system seed.
    - ``burst``: driver burst size (default: from ``options``).
    - ``faults``: a :class:`~repro.faults.schedule.FaultSchedule`; wiring
      is inert when ``None`` or empty.
    - ``watchdog_threshold``: stall iterations before a watchdog reset.
    - ``telemetry``: ``True`` or a :class:`TelemetryConfig` to attach the
      optional recorders (windows, attribution, spans).
    - ``analyze``: ``"error"``/``"warn"``/``True`` to run static analysis
      at build time (``REPRO_ANALYZE`` opts whole runs in).
    - ``qos``: a :class:`~repro.qos.QosConfig` for ingress buffer carving
      and PFC; every QoS hook is unreachable when ``None``.
    - ``tier``: requested :class:`ExecutionTier` or its spelling
      (``REPRO_TIER`` applies when ``None``).
    - ``n_cores``: replica count; ``> 1`` makes
      :meth:`PacketMill.build_runtime` return the RSS-sharded
      :class:`~repro.core.sharded.ShardedRuntime` instead of one binary.
    - ``rss``: the :class:`~repro.net.rss.RssConfig` driving flow
      sharding (key, indirection table size, mempool policy, per-queue
      backlog bound); defaults apply when ``None``.
    - ``facts``: ``True`` to feed constant-propagation facts into the
      build -- proven-dead classifier arms and decided switches are
      dead-code-eliminated from every tier's programs (``REPRO_FACTS``
      opts whole runs in when ``None``).
    """

    options: Optional[BuildOptions] = None
    params: Optional[MachineParams] = None
    trace: Union[None, object, Callable[[int, int], object]] = None
    seed: int = 0
    burst: Optional[int] = None
    faults: Optional[FaultSchedule] = None
    watchdog_threshold: int = DEFAULT_THRESHOLD
    telemetry: Union[None, bool, TelemetryConfig] = None
    analyze: Union[None, bool, str] = None
    qos: Optional[QosConfig] = None
    tier: Union[None, str, ExecutionTier] = None
    n_cores: int = 1
    rss: Optional[RssConfig] = None
    facts: Union[None, bool] = None

    def with_overrides(self, **changes) -> "RunProfile":
        """A copy with the given fields replaced (sweep convenience)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """The non-default fields, one per line (for logs and reports)."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                lines.append("%s=%r" % (f.name, value))
        return "\n".join(lines) or "(defaults)"


__all__ = ["RunProfile"]

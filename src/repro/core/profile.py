"""RunProfile: one documented config object for a PacketMill build.

:class:`RunProfile` is the one place a build field (``faults``,
``telemetry``, ``qos``, ...) is declared, with its default.
``PacketMill(config, options, **fields)`` forwards its keywords here
and keeps the result as ``mill.profile``, a single declarative value
that can be stored, compared, and passed around:

    mill = PacketMill(config, BuildOptions.packetmill(),
                      params=MachineParams(freq_ghz=2.3),
                      telemetry=TelemetryConfig())
    mill.profile.with_overrides(seed=2)   # a sweep's next point

A keyword that names no field -- in
``PacketMill(...)`` or :meth:`RunProfile.with_overrides` -- raises
:class:`ProfileError` naming it, and so does a value of the wrong kind
for any field.  The burst is not a field: the configuration states it
(``FromDPDKDevice(BURST n)``).  Static analysis is not a build field
either: :meth:`PacketMill.analysis` runs it on request.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Union

from repro.core.options import BuildOptions
from repro.faults.schedule import FaultSchedule
from repro.faults.watchdog import DEFAULT_THRESHOLD
from repro.hw.params import MachineParams
from repro.net.rss import RssConfig
from repro.qos import QosConfig
from repro.telemetry import TelemetryConfig


class BuildError(RuntimeError):
    """The requested build cannot be assembled (re-exported by
    :mod:`repro.core.packetmill`)."""


class ProfileError(BuildError, ValueError):
    """A build field that :class:`RunProfile` does not have, or a value
    it refuses."""


@dataclass
class RunProfile:
    """Everything that shapes one PacketMill build beyond the config text.

    Fields:

    - ``options``: the build variant (default ``BuildOptions.vanilla()``).
    - ``params``: machine parameters (default ``DEFAULT_PARAMS``).
    - ``trace``: a trace generator, or a ``(port, core) -> generator``
      factory (default: cached campus trace per port/core).
    - ``seed``: address-space / memory-system seed.
    - ``faults``: a :class:`~repro.faults.schedule.FaultSchedule`; wiring
      is inert when ``None`` or empty.
    - ``watchdog_threshold``: stall iterations before a watchdog reset.
    - ``telemetry``: ``True`` or a :class:`TelemetryConfig` to attach the
      optional recorders (windows, attribution, spans).
    - ``qos``: a :class:`~repro.qos.QosConfig` for ingress buffer carving
      and PFC; every QoS hook is unreachable when ``None``.
    - ``n_cores``: replica count, the number of per-core replicas
      :meth:`PacketMill.build_sharded` steers the ports' flows across.
    - ``rss``: the :class:`~repro.net.rss.RssConfig` driving flow
      sharding (key, indirection table size, mempool policy, per-queue
      backlog bound); defaults apply when ``None``.
    """

    options: Optional[BuildOptions] = None
    params: Optional[MachineParams] = None
    trace: Union[None, object, Callable[[int, int], object]] = None
    seed: int = 0
    faults: Optional[FaultSchedule] = None
    watchdog_threshold: int = DEFAULT_THRESHOLD
    telemetry: Union[None, bool, TelemetryConfig] = None
    qos: Optional[QosConfig] = None
    n_cores: int = 1
    rss: Optional[RssConfig] = None

    def __post_init__(self):
        def positive_int(value):
            return type(value) is int and value > 0

        def none_or(value, kind):
            return value is None or isinstance(value, kind)

        trace = self.trace
        for name, ok, expected in (
                ("options", none_or(self.options, BuildOptions),
                 "a BuildOptions or None"),
                ("params", none_or(self.params, MachineParams),
                 "a MachineParams or None"),
                ("trace", trace is None or callable(trace)
                 or hasattr(trace, "next_packet"),
                 "a trace generator, a (port, core) factory or None"),
                ("seed", type(self.seed) is int, "an int"),
                ("faults", none_or(self.faults, FaultSchedule),
                 "a FaultSchedule or None"),
                ("watchdog_threshold", positive_int(self.watchdog_threshold),
                 "a positive int"),
                ("telemetry", none_or(self.telemetry, (bool, TelemetryConfig)),
                 "True, False, a TelemetryConfig or None"),
                ("qos", none_or(self.qos, QosConfig), "a QosConfig or None"),
                ("n_cores", positive_int(self.n_cores), "a positive int"),
                ("rss", none_or(self.rss, RssConfig), "an RssConfig or None")):
            if not ok:
                raise ProfileError("RunProfile field %r must be %s, not %r"
                                   % (name, expected, getattr(self, name)))

    def with_overrides(self, /, **changes) -> "RunProfile":
        """A copy with the given fields replaced (sweep convenience);
        an unknown field raises :class:`ProfileError`."""
        unknown = sorted(set(changes) - _FIELD_NAMES)
        if unknown:
            raise ProfileError(
                "unknown RunProfile field%s %s (known: %s)" % (
                    "s" if len(unknown) > 1 else "",
                    ", ".join(map(repr, unknown)),
                    ", ".join(sorted(_FIELD_NAMES)),
                ))
        return replace(self, **changes)

    def describe(self) -> str:
        """The non-default fields, one per line (for logs and reports)."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                lines.append("%s=%r" % (f.name, value))
        return "\n".join(lines) or "(defaults)"


_FIELD_NAMES = frozenset(f.name for f in fields(RunProfile))

__all__ = ["BuildError", "ProfileError", "RunProfile"]

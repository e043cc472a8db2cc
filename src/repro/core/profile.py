"""RunProfile: one documented config object for a PacketMill build.

:class:`RunProfile` is the one place a build field (``faults``,
``telemetry``, ``qos``, ``analyze``, ...) is declared, with its default.
It is a single declarative value that can be stored, compared, and
passed around:

    profile = RunProfile(
        options=BuildOptions.packetmill(),
        params=MachineParams(freq_ghz=2.3),
        telemetry=TelemetryConfig(),
    )
    binary = PacketMill.from_profile(config, profile).build()

``PacketMill(config, options, **fields)`` forwards its keywords here, so
``PacketMill(config, telemetry=True)`` and the profile form build the
same thing.  A keyword that names no field -- in ``PacketMill(...)`` or
:meth:`RunProfile.with_overrides` -- raises :class:`ProfileError`
naming it, and so does a bad ``n_cores`` or ``seed``.  The burst is
not a field: the configuration states it (``FromDPDKDevice(BURST n)``).
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
    - ``analyze``: ``"error"``/``"warn"``/``True`` to run static analysis
      at build time (``REPRO_ANALYZE`` opts whole runs in).
    - ``qos``: a :class:`~repro.qos.QosConfig` for ingress buffer carving
      and PFC; every QoS hook is unreachable when ``None``.
    - ``n_cores``: replica count; ``> 1`` makes
      :meth:`PacketMill.build_runtime` return the RSS-sharded
      :class:`~repro.core.sharded.ShardedRuntime` instead of one binary.
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
    analyze: Union[None, bool, str] = None
    qos: Optional[QosConfig] = None
    n_cores: int = 1
    rss: Optional[RssConfig] = None

    def __post_init__(self):
        for name, ok, expected in (
                ("n_cores", type(self.n_cores) is int and self.n_cores > 0,
                 "a positive int"),
                ("seed", type(self.seed) is int, "an int")):
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

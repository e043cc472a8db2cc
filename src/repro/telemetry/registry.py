"""The counter registry: one source of truth for every statistic.

Each statistic is one :class:`Counter` handle stored under a hierarchical
dotted name (``cpu.llc_misses``, ``nic.0.imissed``, ``driver.rx_packets``,
``element.rt.drops``).  ``RunStats``, ``PerfCounters`` and the NICs'
xstats are :class:`CounterView` subclasses: named attributes over their
own cells, never copies of another view's.  A drop is counted once --
cumulatively by the NIC port, per run under ``driver.hw.``, or by the
driver for software drops (:mod:`repro.telemetry.ledger` maps them).

Handles are deliberately tiny (``__slots__``, direct ``.value`` access)
so the hardware model's hot loops pay the same cost they paid for plain
dataclass attributes.  Reading is uniform: :meth:`CounterRegistry.snapshot`
flattens everything (including mounted sub-registries) into one dict, and
:meth:`CounterRegistry.match` answers glob queries like ``nic.*.imissed``.

Snapshot/delta semantics: a snapshot is a plain ``{name: value}`` dict;
:func:`delta` subtracts two of them, which is how the window sampler and
the driver's per-run NIC ledger express "since the last reset".
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]

#: Monotonically non-decreasing event count (perf-style).
COUNTER = "counter"
#: Point-in-time level (queue depth, window rate); may move both ways.
GAUGE = "gauge"

_GLOB_CHARS = frozenset("*?[")


def is_glob(pattern: str) -> bool:
    """Whether ``pattern`` contains glob metacharacters."""
    return bool(_GLOB_CHARS.intersection(pattern))


class TelemetryError(ValueError):
    """Registry misuse: kind mismatch or non-monotone counter update."""


class Counter:
    """One named statistic.  The handle *is* the storage.

    Hot paths (the cache model, the PMDs) keep a direct reference and
    bump ``handle.value`` -- everything else reads the same cell through
    the registry, so there is nothing to mirror and nothing to drift.
    """

    __slots__ = ("name", "kind", "value")

    def __init__(self, name: str, kind: str = COUNTER, value: Number = 0):
        self.name = name
        self.kind = kind
        self.value = value

    def add(self, n: Number = 1) -> None:
        """Increment; counters reject negative steps (monotonicity)."""
        if n < 0 and self.kind == COUNTER:
            raise TelemetryError(
                "counter %r is monotone; cannot add %r" % (self.name, n)
            )
        self.value += n

    def set(self, value: Number) -> None:
        """Overwrite the value (gauges and resets)."""
        self.value = value

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return "Counter(%r, %s=%r)" % (self.name, self.kind, self.value)


class CounterRegistry:
    """Hierarchical, dot-named counter store with mounts and glob reads."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._mounts: Dict[str, "CounterRegistry"] = {}

    # -- creation / access ---------------------------------------------------

    def counter(self, name: str, kind: str = COUNTER) -> Counter:
        """Get or create the handle for ``name`` (kind-checked)."""
        for prefix, mounted in self._mounts.items():
            if name.startswith(prefix + "."):
                return mounted.counter(name[len(prefix) + 1:], kind)
        handle = self._counters.get(name)
        if handle is None:
            handle = self._counters[name] = Counter(name, kind)
        elif handle.kind != kind:
            raise TelemetryError(
                "counter %r is a %s, requested as %s" % (name, handle.kind, kind)
            )
        return handle

    def gauge(self, name: str) -> Counter:
        return self.counter(name, GAUGE)

    def get(self, name: str, default: Number = 0) -> Number:
        """Current value of ``name`` (mounts resolved), or ``default``."""
        for prefix, mounted in self._mounts.items():
            if name.startswith(prefix + "."):
                return mounted.get(name[len(prefix) + 1:], default)
        handle = self._counters.get(name)
        return default if handle is None else handle.value

    def __contains__(self, name: str) -> bool:
        for prefix, mounted in self._mounts.items():
            if name.startswith(prefix + "."):
                return name[len(prefix) + 1:] in mounted
        return name in self._counters

    # -- composition ---------------------------------------------------------

    def mount(self, prefix: str, registry: "CounterRegistry") -> None:
        """Expose another registry's counters under ``prefix.``.

        Mounting is how one per-binary registry unifies storage that is
        created elsewhere (the shared memory system's per-core counters)
        without migrating live handles.
        """
        if not prefix or is_glob(prefix):
            raise TelemetryError("mount prefix must be a literal name")
        self._mounts[prefix] = registry

    # -- reading -------------------------------------------------------------

    def names(self, pattern: Optional[str] = None) -> List[str]:
        """All counter names (mounts flattened), sorted, optionally globbed."""
        out = list(self._counters)
        for prefix, mounted in self._mounts.items():
            out.extend(prefix + "." + name for name in mounted.names())
        if pattern is not None:
            out = [name for name in out if fnmatchcase(name, pattern)]
        return sorted(out)

    def kind_of(self, name: str) -> Optional[str]:
        for prefix, mounted in self._mounts.items():
            if name.startswith(prefix + "."):
                return mounted.kind_of(name[len(prefix) + 1:])
        handle = self._counters.get(name)
        return None if handle is None else handle.kind

    def snapshot(self, pattern: Optional[str] = None) -> Dict[str, Number]:
        """Flattened ``{name: value}`` view, optionally glob-filtered."""
        return {name: self.get(name) for name in self.names(pattern)}

    def match(self, pattern: str) -> Dict[str, Number]:
        """Glob read: ``registry.match("nic.*.imissed")``."""
        return self.snapshot(pattern)

    # -- lifecycle -----------------------------------------------------------

    def reset(self, prefix: str = "") -> None:
        """Zero every counter under ``prefix`` (all, when empty)."""
        for name, handle in self._counters.items():
            if name.startswith(prefix):
                handle.reset()
        for mount_prefix, mounted in self._mounts.items():
            if not prefix:
                mounted.reset()
            elif prefix.startswith(mount_prefix + "."):
                mounted.reset(prefix[len(mount_prefix) + 1:])
            elif (mount_prefix + ".").startswith(prefix):
                mounted.reset()

    def scope(self, prefix: str) -> "CounterScope":
        return CounterScope(self, prefix)

    @classmethod
    def merge(cls, registries: Iterable["CounterRegistry"],
              prefix: str = "core") -> "MergedRegistry":
        """A live cluster-level view over per-core registries.

        ``merged.get("driver.rx_packets")`` sums the name across every
        child; ``merged.get("core2.driver.rx_packets")`` reads core 2
        alone.  The returned registry is *live*: reads see the children's
        current values, so a control plane can watch a run in flight.
        """
        return MergedRegistry(registries, prefix=prefix)


class MergedRegistry(CounterRegistry):
    """Aggregating read-only view over N per-core registries.

    Name resolution order: ordinary mounts first (the sharded runtime
    mounts per-port RSS ledgers here), then ``<prefix><i>.rest`` reads
    child ``i`` directly, then a bare name sums across every child that
    has it.  ``names()`` exposes both forms, so glob reads and
    Prometheus exposition see aggregate series *and* per-core series.

    Creating counters through the merged view is refused -- per-core hot
    paths own their handles; the merged view exists to be read.
    """

    def __init__(self, children: Iterable[CounterRegistry], prefix: str = "core"):
        super().__init__()
        if not prefix or is_glob(prefix):
            raise TelemetryError("core prefix must be a literal name")
        self.children: List[CounterRegistry] = list(children)
        self.prefix = prefix

    # -- resolution ----------------------------------------------------------

    def _child_split(self, name: str):
        """``core3.driver.x`` -> ``(3, "driver.x")``, else ``None``."""
        if not name.startswith(self.prefix):
            return None
        head, dot, rest = name.partition(".")
        if not dot:
            return None
        digits = head[len(self.prefix):]
        if not digits.isdigit():
            return None
        return int(digits), rest

    def counter(self, name: str, kind: str = COUNTER) -> Counter:
        raise TelemetryError(
            "merged registry is read-only; create %r on a per-core registry"
            % name)

    def get(self, name: str, default: Number = 0) -> Number:
        for prefix, mounted in self._mounts.items():
            if name.startswith(prefix + "."):
                return mounted.get(name[len(prefix) + 1:], default)
        split = self._child_split(name)
        if split is not None:
            index, rest = split
            if 0 <= index < len(self.children):
                return self.children[index].get(rest, default)
            return default
        total: Optional[Number] = None
        for child in self.children:
            if name in child:
                total = (total or 0) + child.get(name)
        return default if total is None else total

    def __contains__(self, name: str) -> bool:
        for prefix, mounted in self._mounts.items():
            if name.startswith(prefix + "."):
                return name[len(prefix) + 1:] in mounted
        split = self._child_split(name)
        if split is not None:
            index, rest = split
            return 0 <= index < len(self.children) and rest in self.children[index]
        return any(name in child for child in self.children)

    def kind_of(self, name: str) -> Optional[str]:
        for prefix, mounted in self._mounts.items():
            if name.startswith(prefix + "."):
                return mounted.kind_of(name[len(prefix) + 1:])
        split = self._child_split(name)
        if split is not None:
            index, rest = split
            if 0 <= index < len(self.children):
                return self.children[index].kind_of(rest)
            return None
        for child in self.children:
            kind = child.kind_of(name)
            if kind is not None:
                return kind
        return None

    def names(self, pattern: Optional[str] = None) -> List[str]:
        seen = set()
        for mount_prefix, mounted in self._mounts.items():
            seen.update(mount_prefix + "." + n for n in mounted.names())
        for index, child in enumerate(self.children):
            for n in child.names():
                seen.add(n)
                seen.add("%s%d.%s" % (self.prefix, index, n))
        if pattern is not None:
            seen = {n for n in seen if fnmatchcase(n, pattern)}
        return sorted(seen)

    def aggregate_names(self, pattern: Optional[str] = None) -> List[str]:
        """Only the summed (non-core-prefixed) names."""
        seen = set()
        for child in self.children:
            seen.update(child.names())
        if pattern is not None:
            seen = {n for n in seen if fnmatchcase(n, pattern)}
        return sorted(seen)

    def per_core(self, name: str) -> List[Number]:
        """The per-child values behind one aggregate name."""
        return [child.get(name) for child in self.children]

    def reset(self, prefix: str = "") -> None:
        for child in self.children:
            child.reset(prefix)
        super().reset(prefix)


class CounterScope:
    """A prefixed window onto a registry (one element's, one NIC's)."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: CounterRegistry, prefix: str):
        if prefix and not prefix.endswith("."):
            prefix += "."
        self.registry = registry
        self.prefix = prefix

    def counter(self, name: str, kind: str = COUNTER) -> Counter:
        return self.registry.counter(self.prefix + name, kind)

    def gauge(self, name: str) -> Counter:
        return self.registry.gauge(self.prefix + name)

    def get(self, name: str, default: Number = 0) -> Number:
        return self.registry.get(self.prefix + name, default)

    def snapshot(self) -> Dict[str, Number]:
        """Scope-local names (prefix stripped), sorted."""
        strip = len(self.prefix)
        return {
            name[strip:]: value
            for name, value in self.registry.snapshot(self.prefix + "*").items()
        }

    def reset(self) -> None:
        self.registry.reset(self.prefix)


class _Cell:
    """Descriptor: one :class:`CounterView` attribute, read through to its
    registry cell."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __get__(self, view, owner=None):
        if view is None:
            return self
        return view._cells[self.name].value

    def __set__(self, view, value: Number) -> None:
        view._cells[self.name].value = value


class CounterView:
    """Named attributes over a fixed set of registry cells.

    A subclass lists its cells in ``FIELDS``, dotted names relative to the
    view's ``prefix``; each becomes a read/write attribute named by the
    cell's last component (``"hw.imissed"`` is ``view.imissed``).
    Constructed bare, a view owns a private registry.  Keyword arguments
    set initial values through the class's settable attributes
    (``PerfCounters(llc_loads=500)``); any other name is refused.
    """

    FIELDS: Tuple[str, ...] = ()

    __slots__ = ("registry", "prefix", "_cells")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for cell in cls.__dict__.get("FIELDS", ()):
            name = cell.rpartition(".")[2]
            setattr(cls, name, _Cell(name))

    def __init__(self, registry: Optional[CounterRegistry] = None,
                 prefix: str = "", **initial):
        self._bind(registry if registry is not None else CounterRegistry(),
                   prefix)
        cls = type(self)
        for name, value in initial.items():
            if not isinstance(getattr(cls, name, None), (_Cell, property)):
                raise TypeError("unexpected counter %r" % name)
            setattr(self, name, value)

    def _bind(self, registry: CounterRegistry, prefix: str) -> None:
        if prefix and not prefix.endswith("."):
            prefix += "."
        self.registry = registry
        self.prefix = prefix
        self._cells = {
            cell.rpartition(".")[2]: registry.counter(prefix + cell)
            for cell in self.FIELDS
        }

    def snapshot(self) -> Dict[str, Number]:
        return {name: cell.value for name, cell in self._cells.items()}

    def reset(self) -> None:
        for cell in self._cells.values():
            cell.value = 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % kv for kv in self.snapshot().items() if kv[1]))


def delta(new: Dict[str, Number], old: Dict[str, Number]) -> Dict[str, Number]:
    """Per-name difference of two snapshots (names absent from ``old`` = 0)."""
    return {name: value - old.get(name, 0) for name, value in new.items()}

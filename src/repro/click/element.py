"""Element base class and the element class registry.

An element contributes three things:

1. **Functional behaviour** -- :meth:`Element.process` really transforms
   the packet (swap MACs, decrement TTL, rewrite the 5-tuple, ...) and
   picks an output port.
2. **A per-packet IR program** -- :meth:`Element.ir_program` declares the
   memory/compute profile of that work so the compiler passes and the
   hardware model can price it.
3. **Mutable state** -- :attr:`Element.state_size` bytes, allocated on the
   heap for a dynamic graph or packed into the static segment when
   PacketMill embeds the graph (the paper's static-graph optimization).

Configuration parameters are declared with :meth:`Element.declare_param`,
which both parses the Click argument and assigns it a state offset so
``ParamRead`` IR ops know what they load.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple, Type

from repro.click.config.ast import Declaration
from repro.compiler.ir import Compute, ParamRead, Program


class ElementConfigError(ValueError):
    """Bad element configuration string, named by the offending element."""


class Element(abc.ABC):
    """Base class for all processing elements."""

    class_name: str = "Element"
    #: Default port counts; elements may override in configure().
    n_inputs: int = 1
    n_outputs: int = 1
    #: Bytes of mutable state (beyond declared parameters).
    base_state_size: int = 64

    def __init__(self, name: str, decl: Optional[Declaration] = None):
        self.name = name
        self.decl = decl or Declaration(name, self.class_name)
        # targets[port] = (element, dst_port) wired by the graph builder.
        self.targets: List[Optional[Tuple["Element", int]]] = []
        self.state_region = None  # assigned at build time
        self._params: Dict[str, object] = {}
        self._param_offsets: Dict[str, int] = {}
        self._next_param_offset = 0
        self.drops = 0
        # CounterScope over element.<name>.* when built with telemetry.
        self.telemetry_scope = None
        try:
            self.configure(self.decl.positional_args(), self.decl.keyword_args())
        except ValueError as exc:
            raise ElementConfigError(
                "%s :: %s: %s" % (name, self.class_name, exc)) from exc
        if len(self.targets) < self.n_outputs:
            self.targets.extend([None] * (self.n_outputs - len(self.targets)))

    # -- configuration ---------------------------------------------------------

    def configure(self, args: List[str], kwargs: Dict[str, str]) -> None:
        """Parse configuration arguments.  Override in subclasses."""

    def declare_param(self, name: str, value, size: int = 8):
        """Record a configuration parameter and give it a state offset."""
        self._params[name] = value
        self._param_offsets[name] = self._next_param_offset
        self._next_param_offset += size
        return value

    def param(self, name: str):
        return self._params[name]

    def param_read_op(self, name: str) -> ParamRead:
        """The IR load for one declared parameter."""
        return ParamRead(name, offset=self._param_offsets[name])

    @property
    def state_size(self) -> int:
        return self.base_state_size + self._next_param_offset

    # -- graph wiring -------------------------------------------------------------

    def connect(self, port: int, target: "Element", target_port: int = 0) -> None:
        while len(self.targets) <= port:
            self.targets.append(None)
        self.targets[port] = (target, target_port)

    def target(self, port: int) -> Optional[Tuple["Element", int]]:
        if port < len(self.targets):
            return self.targets[port]
        return None

    # -- behaviour ------------------------------------------------------------------

    def process(self, pkt) -> Optional[int]:
        """Process one packet; return the output port, or None to drop."""
        return 0

    def ir_program(self) -> Program:
        """Per-packet cost profile.  Subclasses should extend this."""
        return Program(self.name, [Compute(6, note="element-prologue")])

    # -- introspection ---------------------------------------------------------------

    def bind_telemetry(self, scope) -> None:
        """Attach this element's registry scope (``element.<name>.*``)."""
        self.telemetry_scope = scope

    def xstats(self) -> Dict[str, object]:
        """Extended statistics, uniform across every element class.

        The base implementation exposes whatever the registry holds for
        this element -- drops, error batches, attributed cycles and cache
        events -- under their scope-local names.  I/O elements extend it
        with their port's hardware counters.  Unbound (no telemetry, or a
        hand-built element), it returns ``{}``.
        """
        if self.telemetry_scope is None:
            return {}
        return self.telemetry_scope.snapshot()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.name)


class ElementRegistry:
    """Maps Click class names to Python element classes."""

    _classes: Dict[str, Type[Element]] = {}

    @classmethod
    def register(cls, element_cls: Type[Element]) -> Type[Element]:
        """Class decorator: register under the element's ``class_name``."""
        name = element_cls.class_name
        if name in cls._classes and cls._classes[name] is not element_cls:
            raise ValueError("element class %r registered twice" % name)
        cls._classes[name] = element_cls
        return element_cls

    @classmethod
    def create(cls, decl: Declaration) -> Element:
        try:
            element_cls = cls._classes[decl.class_name]
        except KeyError:
            raise ElementConfigError(
                "unknown element class %r" % decl.class_name
            ) from None
        return element_cls(decl.name, decl)

    @classmethod
    def known_classes(cls) -> List[str]:
        return sorted(cls._classes)


register = ElementRegistry.register

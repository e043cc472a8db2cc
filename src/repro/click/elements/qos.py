"""QoS elements: PFC pause generation, rated queues, priority routing.

The graph-side half of :mod:`repro.qos`:

- :class:`PFCPause` is the pause element of 802.1Qbb: a control element
  (no packet ports) bound at build time to its port's
  :class:`~repro.qos.port.QosPort`.  Once per driver iteration it polls
  pool occupancy and asserts/deasserts per-priority pause, which the NIC
  reports to the trace source -- backpressure instead of silent drops.
  Its presence in a config is what "PFC on" means; the same config
  without it is the lossy baseline.
- :class:`RatedQueue` is a Queue with a bounded per-iteration service
  rate.  The plain Queue fully drains every iteration, so occupancy can
  never build; a rated queue is the congestion point that makes
  oversubscription and incast observable.
- :class:`PrioritySwitch` routes by 802.1p priority (the PCP bits of the
  VLAN TCI) and :class:`LengthSwitch` by frame length.
"""

from __future__ import annotations

from repro.click.element import Element, register
from repro.click.elements.flow import Queue
from repro.compiler.ir import BranchHint, Compute, FieldAccess, Program
from repro.qos.config import PCP_MASK, PCP_SHIFT


@register
class PFCPause(Element):
    """Watch a port's QoS pool occupancy; assert per-priority pause.

    ``PORT`` names the NIC port whose :class:`~repro.qos.port.QosPort`
    this element watches; ``PRIORITIES`` (optional, ``/``-separated)
    restricts pause generation to a subset of the port's lossless
    priorities (default: every priority with a buffer profile).  The
    build fails if the port has no QoS pool bound -- a pause element
    watching an unbound pool is exactly the misconfiguration the
    ``repro.analyze`` QoS lints flag statically.
    """

    class_name = "PFCPause"
    n_inputs = 0
    n_outputs = 0

    def configure(self, args, kwargs):
        port = int(kwargs.get("PORT", args[0] if args else 0))
        self.declare_param("port", port)
        raw = kwargs.get("PRIORITIES")
        self.priorities = (
            None if raw is None
            else tuple(int(p) for p in str(raw).split("/"))
        )
        self._pool = None

    def bind_pool(self, qos_port) -> None:
        """Build-time binding to the watched port's buffer accounting."""
        self._pool = qos_port
        qos_port.enable_pfc(self.priorities)

    def tick(self) -> None:
        """One occupancy poll (the driver calls this once per iteration)."""
        if self._pool is not None:
            self._pool.poll_pause()

    def xstats(self):
        out = super().xstats()
        if self._pool is not None:
            for prio in sorted(self._pool.pfc_priorities):
                out["prio%d_paused" % prio] = int(self._pool.is_paused(prio))
        return out

    def process(self, pkt):
        return None  # control element: never on the data path

    def ir_program(self) -> Program:
        # The pause watch runs per iteration, not per packet; the program
        # exists so the verifier/lowering treat the element uniformly.
        return Program(
            self.name,
            [
                self.param_read_op("port"),
                Compute(4, note="pfc-watch"),
            ],
        )


@register
class RatedQueue(Queue):
    """A Queue whose drain is limited to ``RATE`` packets per iteration.

    The service-capacity model for congestion scenarios: arrivals beyond
    the rate accumulate as occupancy, which is what the PFC thresholds
    and the shared-pool spill react to.  The budget is reset by the
    driver through :meth:`begin_drain` once per iteration, so the
    drain loop's fixed-point rounds cannot exceed it.
    """

    class_name = "RatedQueue"

    def configure(self, args, kwargs):
        super().configure(args, kwargs)
        rate = int(kwargs.get("RATE", args[1] if len(args) > 1 else 16))
        if rate < 1:
            raise ValueError("rated queue needs a positive rate")
        self.declare_param("rate", rate, size=4)
        self._budget = rate

    def begin_drain(self) -> None:
        """Reset this iteration's service budget (driver hook)."""
        self._budget = self.param("rate")

    def drain(self, max_packets: int):
        allowed = min(max_packets, self._budget)
        out = super().drain(allowed)
        self._budget -= len(out)
        return out


@register
class PrioritySwitch(Element):
    """Route packets by 802.1p priority (PCP bits of the VLAN TCI).

    One output per priority; packets whose priority has no output are
    dropped (counted at this element), mirroring PaintSwitch.  Pure
    routing: the route is a function of the VLAN annotation alone.
    """

    class_name = "PrioritySwitch"

    def configure(self, args, kwargs):
        self.n_outputs = int(kwargs.get("N", args[0] if args else 2))

    def process(self, pkt):
        prio = (pkt.vlan_tci >> PCP_SHIFT) & PCP_MASK
        if prio >= self.n_outputs:
            return None
        return prio

    def ir_program(self) -> Program:
        return Program(
            self.name,
            [
                FieldAccess("Packet", "vlan_anno"),
                Compute(4, note="pcp-extract"),
                BranchHint(0.10, note="priority-dispatch"),
            ],
        )


@register
class LengthSwitch(Element):
    """Split short frames (output 0) from long ones (output 1).

    ``THRESHOLD`` is the largest length routed to output 0.  Pure
    routing by the length metadata field -- the elephant/mouse split of
    QoS pipelines.
    """

    class_name = "LengthSwitch"
    n_outputs = 2

    def configure(self, args, kwargs):
        threshold = int(kwargs.get("THRESHOLD", args[0] if args else 128))
        if threshold < 1:
            raise ValueError("length threshold must be positive")
        self.declare_param("threshold", threshold, size=4)
        self._threshold = threshold

    def process(self, pkt):
        return 0 if pkt.length <= self._threshold else 1

    def dispatch_predicates(self):
        """Interval conditions on the ``length`` field: a proven upstream
        range (an MTU clamp, a minimum frame size) can decide the split."""
        return [
            {"range": {"length": (0, self._threshold)}},
            {"range": {"length": (self._threshold + 1, 1 << 30)}},
        ]

    def ir_program(self) -> Program:
        return Program(
            self.name,
            [
                self.param_read_op("threshold"),
                FieldAccess("Packet", "length"),
                Compute(3, note="compare"),
                BranchHint(0.5, note="length-split"),
            ],
        )

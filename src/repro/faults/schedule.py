"""Declarative, seed-driven fault schedules.

A :class:`FaultSchedule` is a list of :class:`FaultSpec` entries, each
describing *one* fault mechanism, *when* it is armed (an iteration window
``[start, stop)`` of the driver's main loop), and *how intensely* it fires
(an activation probability evaluated against the schedule's seeded RNG
plus a kind-specific magnitude).  Schedules are pure data: the same
schedule with the same seed always produces the same fault sequence, so
degraded runs are as reproducible as healthy ones.

Fault taxonomy (see ``docs/FAULTS.md``):

==================  ==========================================================
kind                 models
==================  ==========================================================
MBUF_EXHAUSTION      mempool pressure -- a fraction of the pool is held
                     hostage, so PMD replenishment fails (``rx_nombuf``).
RX_UNDERRUN          the NIC intermittently has no frame ready for a poll.
LINK_FLAP            the link is down for the window (zero deliveries).
RATE_DIP             the arrival rate dips to ``magnitude`` of nominal.
TRUNCATE             frames arrive cut short (runts / mid-frame loss).
CORRUPT              frames arrive with flipped bytes (bad IP/TCP checksum).
CQE_STALL            completion delivery stalls (CQEs withheld).
TX_BACKPRESSURE      the TX ring refuses new work (peer asserting pause).
==================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

# -- fault kinds ----------------------------------------------------------------

MBUF_EXHAUSTION = "mbuf_exhaustion"
RX_UNDERRUN = "rx_underrun"
LINK_FLAP = "link_flap"
RATE_DIP = "rate_dip"
TRUNCATE = "truncate"
CORRUPT = "corrupt"
CQE_STALL = "cqe_stall"
TX_BACKPRESSURE = "tx_backpressure"

ALL_KINDS = (
    MBUF_EXHAUSTION,
    RX_UNDERRUN,
    LINK_FLAP,
    RATE_DIP,
    TRUNCATE,
    CORRUPT,
    CQE_STALL,
    TX_BACKPRESSURE,
)

#: Default ``magnitude`` per kind (see :class:`FaultSpec.magnitude`).
_DEFAULT_MAGNITUDE = {
    MBUF_EXHAUSTION: 1.0,  # fraction of the free pool held hostage
    RATE_DIP: 0.25,        # fraction of the nominal arrival rate kept
    TRUNCATE: 0.5,         # fraction of the frame that survives
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault mechanism armed over an iteration window.

    ``start``/``stop`` bound the main-loop iterations (driver steps) in
    which the fault is armed; ``None`` means unbounded on that side.
    While armed, *window faults* (link flap, CQE stall, mempool pressure)
    are simply in force; *probabilistic faults* (underrun, truncation,
    corruption, TX backpressure) additionally roll ``probability`` against
    the schedule's seeded RNG per opportunity.
    """

    kind: str
    start: Optional[int] = None
    stop: Optional[int] = None
    probability: float = 1.0
    magnitude: Optional[float] = None
    port: Optional[int] = None
    #: RX queue scope: ``None`` hits every queue (the pre-sharding
    #: behaviour); an integer arms the fault only on that queue's
    #: replica, so a schedule can degrade one core of a sharded run.
    queue: Optional[int] = None

    def __post_init__(self):
        if self.queue is not None and self.queue < 0:
            raise ValueError("queue must be >= 0")
        if self.kind not in ALL_KINDS:
            raise ValueError(
                "unknown fault kind %r (expected one of %s)"
                % (self.kind, ", ".join(ALL_KINDS))
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability %r outside [0, 1]" % (self.probability,))
        if self.start is not None and self.start < 0:
            raise ValueError("start must be >= 0")
        if (
            self.start is not None
            and self.stop is not None
            and self.stop <= self.start
        ):
            raise ValueError(
                "empty fault window [%d, %d)" % (self.start, self.stop)
            )
        if self.magnitude is not None and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("magnitude %r outside [0, 1]" % (self.magnitude,))

    @property
    def effective_magnitude(self) -> float:
        if self.magnitude is not None:
            return self.magnitude
        return _DEFAULT_MAGNITUDE.get(self.kind, 1.0)

    def active_at(self, tick: int) -> bool:
        """Whether the window covers main-loop iteration ``tick``."""
        if self.start is not None and tick < self.start:
            return False
        if self.stop is not None and tick >= self.stop:
            return False
        return True

    def applies_to_port(self, port: int) -> bool:
        return self.port is None or self.port == port

    def last_tick(self) -> Optional[int]:
        """Last iteration the window covers (None = unbounded)."""
        if self.stop is None:
            return None
        return self.stop - 1


class FaultSchedule:
    """An ordered collection of fault specs plus the seed that drives them."""

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0):
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed

    # -- constructors ----------------------------------------------------------

    @classmethod
    def empty(cls, seed: int = 0) -> "FaultSchedule":
        return cls((), seed=seed)

    @classmethod
    def from_dicts(cls, entries: Sequence[Dict], seed: int = 0) -> "FaultSchedule":
        """Build a schedule from plain dicts (the JSON/TOML-friendly form).

        >>> FaultSchedule.from_dicts(
        ...     [{"kind": "link_flap", "start": 100, "stop": 120}], seed=7)
        ... # doctest: +ELLIPSIS
        <FaultSchedule 1 spec(s), seed=7>
        """
        return cls((FaultSpec(**entry) for entry in entries), seed=seed)

    # -- queries -----------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def for_queue(self, queue: int) -> "FaultSchedule":
        """The sub-schedule one RX queue's replica sees.

        Specs with ``queue=None`` apply everywhere; queue-scoped specs
        survive only on their own queue.  The seed is preserved -- each
        replica's injector already decorrelates it per core -- and an
        empty result means that core runs entirely fault-free (no
        injector is even wired).
        """
        return FaultSchedule(
            (spec for spec in self.specs
             if spec.queue is None or spec.queue == queue),
            seed=self.seed,
        )

    def active(self, kind: str, tick: int, port: Optional[int] = None) -> List[FaultSpec]:
        """Specs of ``kind`` whose window covers ``tick`` (and ``port``)."""
        return [
            spec
            for spec in self.specs
            if spec.kind == kind
            and spec.active_at(tick)
            and (port is None or spec.applies_to_port(port))
        ]

    def any_active(self, tick: int) -> bool:
        return any(spec.active_at(tick) for spec in self.specs)

    def quiet_after(self) -> Optional[int]:
        """First iteration after which every window has closed.

        Returns ``None`` when some spec is unbounded (never quiet).
        """
        horizon = 0
        for spec in self.specs:
            last = spec.last_tick()
            if last is None:
                return None
            horizon = max(horizon, last + 1)
        return horizon

    def __repr__(self) -> str:
        return "<FaultSchedule %d spec(s), seed=%d>" % (len(self.specs), self.seed)

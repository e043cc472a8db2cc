"""The NIC hardware model (ConnectX-5 class).

The NIC side of packet I/O is free for the CPU but not for the memory
system: received frames and their completion-queue entries are DMA-written
through DDIO into the LLC, and transmitted frames are DMA-read out of it.
Under saturation the NIC always has a frame ready for every posted RX
buffer, which is how the throughput experiments drive the device under
test; open-loop arrival timing for the latency experiments is layered on
top by :mod:`repro.perf.loadlatency`.

Degraded operation is modelled the way real hardware reports it -- as
counters, not exceptions (:class:`NicCounters`, modelled on DPDK's
``rte_eth_stats``/xstats).  When a :class:`repro.faults.FaultInjector` is
attached (``nic.faults``), arriving frames can be withheld (link flaps,
CQE stalls, underruns), damaged in place (truncation, corruption), or
lost for want of a posted descriptor (``imissed``).  Without an injector
the delivery path is byte-identical to the fault-free model.
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

from repro.dpdk.mbuf import CQE_SIZE, TX_WQE_SIZE, BufferRef
from repro.dpdk.ring import DescriptorRing
from repro.net.packet import Packet
from repro.net.rss import IndirectionTable, RssConfig, ToeplitzKey, parse_flow, toeplitz_v4
from repro.telemetry.ledger import NIC_FIELDS
from repro.telemetry.registry import CounterRegistry, CounterView

#: The RX burst of a configuration that states no ``BURST``, and the one
#: a :class:`MultiQueueNic` built outside PacketMill sizes its ingest for.
DEFAULT_BURST = 32

class NicCounters(CounterView):
    """Drop/error accounting, modelled on DPDK's port stats and xstats.

    A registry view: pass a shared ``registry`` (and a ``nic.<port>``
    style ``prefix``) to make the port's xstats first-class telemetry
    names; constructed bare it owns private storage.  These cells count
    cumulatively, as on real hardware; the driver derives each run's
    delta from them (``driver.hw.*``).
    """

    FIELDS = NIC_FIELDS

    __slots__ = ()


class Nic:
    """One port of the simulated NIC, driven by a trace source."""

    def __init__(self, params, mem, space, trace, name: str = "nic0", port: int = 0,
                 registry: Optional[CounterRegistry] = None):
        self.params = params
        self.mem = mem
        self.trace = trace
        self.name = name
        self.port = port
        self.rx_ring = DescriptorRing(space, params.rx_ring_size, 16, name + "_rxwq")
        self.cq = DescriptorRing(space, params.rx_ring_size, CQE_SIZE, name + "_cq")
        self.tx_ring = DescriptorRing(space, params.tx_ring_size, TX_WQE_SIZE, name + "_txwq")
        self._cq_index = 0
        self.rx_delivered = 0
        self.tx_sent = 0
        self.tx_bytes = 0
        # With a shared registry the port's xstats live under nic.<port>.;
        # bare construction keeps them private, as before.
        self.counters = NicCounters(registry, "nic.%d" % port if registry else "")
        self.faults = None  # optional repro.faults.FaultInjector
        self.qos = None  # optional repro.qos.QosPort (ingress admission + PFC)
        self.trace_exhausted = False

    # -- RX side --------------------------------------------------------------

    def post_rx(self, ref: BufferRef) -> None:
        """PMD posts an empty buffer for the NIC to fill."""
        self.rx_ring.push(ref)

    @property
    def rx_posted(self) -> int:
        return self.rx_ring.count

    def deliver(self, max_n: int) -> List[Tuple[BufferRef, Packet]]:
        """Hardware receive: DMA up to ``max_n`` frames into posted buffers.

        Each delivery DMA-writes the frame into the buffer's data room and
        a CQE into the completion queue (both via DDIO), then hands
        (buffer, packet) to the PMD.  The writes of the whole burst are
        one :meth:`MemorySystem.dma_write
        <repro.hw.memory.MemorySystem.dma_write>` call, in arrival order,
        made when the loop ends -- also when it raises, so the frames
        delivered before stay written.  Nothing the loop does between two
        frames touches the memory system.  A finite trace ends deliveries
        cleanly (``trace_exhausted``); an attached fault injector may
        shrink the budget, damage frames, or -- when the RX ring has run
        dry under it -- count the frames that kept arriving as ``imissed``
        drops, exactly as a saturating source would produce on real
        hardware.

        With QoS attached (``nic.qos``) the trace is polled through its
        paced protocol (``begin_poll`` + ``poll_packet(paused)``, so
        paused priorities stop *offering* frames), and every arriving
        frame passes the MMU's admission check before it is DMA'd.  A
        refused frame never consumes the descriptor or enters the
        pipeline -- it is counted in the port's ``qos.*`` drop ledger,
        the buffer-level analogue of a priority drop xstat.
        """
        injector = self.faults
        budget = max_n
        if injector is not None:
            budget = injector.rx_budget(self, max_n)
        trace = self.trace
        next_packet = trace.next_packet
        qos = self.qos
        if qos is not None:
            begin = getattr(trace, "begin_poll", None)
            if begin is not None:
                begin()
            poll = getattr(trace, "poll_packet", None)
            if poll is not None:
                next_packet = partial(poll, qos.paused_priorities())
        out = []
        ranges = []
        try:
            for _ in range(budget):
                if self.rx_ring.is_empty():
                    if injector is not None:
                        # Saturated source: frames keep arriving; with no
                        # posted descriptor the hardware drops them.
                        self.counters.imissed += budget - len(out)
                    break
                _, ref = self.rx_ring.pop()
                try:
                    pkt = next_packet()
                except StopIteration:
                    # Finite trace drained: re-post the unfilled buffer and
                    # end deliveries cleanly with stats intact.
                    self.trace_exhausted = True
                    self.rx_ring.push(ref)
                    break
                if pkt is None:
                    # Source has nothing for this queue right now (a sharded
                    # ingest round spent its budget on other queues' frames,
                    # or every backlogged priority is paused).
                    self.rx_ring.push(ref)
                    break
                pkt.port = self.port
                if qos is not None and not qos.admit(pkt):
                    # Ingress buffer refused the frame: counted in the
                    # qos.* ledger, descriptor left posted for the next one.
                    self.rx_ring.push(ref)
                    continue
                if injector is not None:
                    injector.mutate_frame(pkt, self.port)
                cqe_addr = self.cq.slot_addr(self._cq_index)
                self._cq_index += 1
                ranges.append((ref.data_addr, len(pkt)))
                ranges.append((cqe_addr, CQE_SIZE))
                ref.cqe_addr = cqe_addr
                self.rx_delivered += 1
                out.append((ref, pkt))
        finally:
            if ranges:
                self.mem.dma_write(ranges)
        return out

    # -- TX side ----------------------------------------------------------------

    def transmit(self, ref: BufferRef, frame_len: int) -> Tuple[int, int, int]:
        """Hardware transmit: post the frame's WQE.

        Returns the WQE slot address and the first and last line of the
        frame the NIC DMA-reads.  The PMD's TX charge makes that read just
        before the frame's TX program (``execute_bases(..., dma_read=True)``).
        """
        slot = self.tx_ring.push(ref)
        self.tx_sent += 1
        self.tx_bytes += frame_len
        line = self.mem.params.cache_line
        data = ref.data_addr
        return (self.tx_ring.slot_addr(slot), data // line,
                (data + frame_len - 1) // line)

    def reap_tx(self, threshold: int) -> List[BufferRef]:
        """Return buffers whose transmission completed (ring past threshold)."""
        done = []
        while self.tx_ring.count > threshold:
            _, ref = self.tx_ring.pop()
            done.append(ref)
        return done


class QueueTrace:
    """The trace-protocol view one RX queue has of a multi-queue port.

    Each per-core :class:`Nic` replica is constructed with one of these
    as its ``trace``: ``next_packet`` pulls from the owning
    :class:`MultiQueueNic`'s shared arrival stream, receiving only frames
    RSS steered to this queue.  ``None`` means "nothing for you this
    round" (the ingest budget went to other queues); ``StopIteration``
    means the shared trace is exhausted *and* this queue's backlog is
    drained -- the same clean-EOF signal :class:`FiniteTrace` produces.
    """

    __slots__ = ("port", "queue_id")

    def __init__(self, port: "MultiQueueNic", queue_id: int):
        self.port = port
        self.queue_id = queue_id

    def next_packet(self, timestamp: float = 0.0) -> Optional[Packet]:
        return self.port.pull(self.queue_id)

    def mean_frame_length(self) -> float:
        return self.port.trace.mean_frame_length()

    @property
    def flows(self):
        return self.port.trace.flows

    @property
    def backlog(self) -> int:
        return len(self.port.backlogs[self.queue_id])


class MultiQueueNic:
    """One physical port fanned out over N RX queues by RSS.

    Hardware RSS is a stage *in front of* the per-queue machinery: the
    port receives one arrival stream, Toeplitz-hashes each frame's
    5-tuple, and steers it through the indirection table to an RX queue.
    Here each RX/TX queue pair is a full :class:`Nic` instance (rings,
    xstats, fault injector, QoS) owned by one core's replica -- exactly
    DPDK's model, where ``rte_eth_rx_burst(port, queue)`` addresses a
    (port, queue) pair and xstats exist per queue.

    Steering is *pull-driven* to stay deterministic under round-robin
    core stepping: when queue ``q`` polls and its staging backlog is
    empty, the port ingests up to ``ingest_budget`` arrivals from the
    shared trace, appending each to its steered queue's backlog, until a
    frame for ``q`` shows up or the budget ends.  A backlog past
    ``backlog_cap`` (an overloaded queue under elephant flows) drops the
    frame and counts it -- ``imissed`` on the owning queue's xstats plus
    ``q<N>.dropped`` in the port's RSS ledger -- so conservation audits
    can close the books: ``ingested == sum(steered) + sum(dropped)``.

    Adaptive steering hooks (driven by :mod:`repro.net.steering`):

    - ``q<N>.occupancy`` gauges in the RSS ledger track each staging
      backlog live, so the control plane can watch imbalance build;
    - :meth:`enable_bucket_stats` adds per-RETA-entry accounting
      (``bucket<i>`` counters; their sum always equals ``ingested``);
    - :meth:`retarget_bucket` rewrites one RETA entry mid-run and
      reports how many frames of that bucket were staged on the old
      queue (they drain there -- exactly what hardware does on a RETA
      update -- which is the reordering exposure the cost model prices);
    - :meth:`enable_dispatch` sprays one saturating bucket's frames
      round-robin across every queue (RSS++-style software dispatch).

    None of these change a single counter until a steering policy turns
    them on: the default path stays bit-identical to static RSS.
    """

    def __init__(self, trace, n_queues: int, config: Optional[RssConfig] = None,
                 port: int = 0, name: str = "port0"):
        if n_queues < 1:
            raise ValueError("need at least one RX queue")
        self.trace = trace
        self.n_queues = n_queues
        self.config = config or RssConfig()
        self.port = port
        self.name = name
        self.key = ToeplitzKey(self.config.key)
        self.table = IndirectionTable(n_queues, self.config.table_size)
        self.backlog_cap = self.config.backlog_cap
        self.ingest_budget = self.config.ingest_budget_for(DEFAULT_BURST,
                                                           n_queues)
        self.backlogs: List[Deque[Packet]] = [deque() for _ in range(n_queues)]
        #: queue id -> per-core Nic replica (bound by the sharded builder).
        self.queues: List[Optional[Nic]] = [None] * n_queues
        self.exhausted = False
        # The port's RSS ledger; the sharded runtime mounts it at
        # ``rss.<port>.`` in the merged registry.
        self.registry = CounterRegistry()
        self._ingested = self.registry.counter("ingested")
        self._steered = [self.registry.counter("q%d.steered" % q)
                         for q in range(n_queues)]
        self._dropped = [self.registry.counter("q%d.dropped" % q)
                         for q in range(n_queues)]
        # Live staging-backlog depth per queue (rss.<port>.q<i>.occupancy
        # in the merged registry) -- the signal the steering loop and the
        # control plane watch while imbalance builds.
        self._occupancy = [self.registry.gauge("q%d.occupancy" % q)
                           for q in range(n_queues)]
        # Adaptive-steering state: inert (and costing nothing) until a
        # SteeringPolicy enables it.
        self._bucket_handles: Optional[List] = None
        self._reta_moves = None
        self._migration_drains = None
        self._dispatched = None
        #: RETA bucket -> round-robin cursor for software-dispatch mode.
        self.dispatch_buckets: Dict[int, int] = {}

    def queue_trace(self, queue_id: int) -> QueueTrace:
        if not 0 <= queue_id < self.n_queues:
            raise ValueError("queue %d out of range" % queue_id)
        return QueueTrace(self, queue_id)

    def bind_queue(self, queue_id: int, nic: Nic) -> None:
        """Associate the per-core ``Nic`` that services ``queue_id``.

        The port holds it weakly: the ``Nic`` already holds the port
        through its :class:`QueueTrace`, and a strong reference back would
        make every sharded build a reference cycle that keeps the whole
        memory system alive until the next full garbage collection.
        """
        self.queues[queue_id] = weakref.proxy(nic)

    def steer(self, pkt: Packet) -> int:
        """RSS: hash the frame's 5-tuple, index the indirection table.

        With bucket stats enabled the frame is also charged to its RETA
        bucket; a bucket in software-dispatch mode overrides the table
        and sprays round-robin across every queue.
        """
        h = pkt.rss_hash
        if not h:
            tup = parse_flow(memoryview(pkt.buffer)[pkt.headroom:])
            h = toeplitz_v4(*tup, key=self.config.key) if tup else 0
            pkt.rss_hash = h
        entries = self.table.entries
        bucket = h % len(entries)
        if self._bucket_handles is not None:
            self._bucket_handles[bucket].value += 1
        if self.dispatch_buckets:
            cursor = self.dispatch_buckets.get(bucket)
            if cursor is not None:
                self.dispatch_buckets[bucket] = cursor + 1
                self._dispatched.value += 1
                return cursor % self.n_queues
        return entries[bucket]

    def pull(self, queue_id: int) -> Optional[Packet]:
        """One frame for ``queue_id``, ingesting shared arrivals as needed."""
        backlog = self.backlogs[queue_id]
        if backlog:
            pkt = backlog.popleft()
            self._occupancy[queue_id].value = len(backlog)
            return pkt
        if self.exhausted:
            raise StopIteration("port trace exhausted")
        trace = self.trace
        for _ in range(self.ingest_budget):
            try:
                pkt = trace.next_packet()
            except StopIteration:
                self.exhausted = True
                break
            self._ingested.value += 1
            q = self.steer(pkt)
            dest = self.backlogs[q]
            if len(dest) >= self.backlog_cap:
                # Overloaded queue: hardware would run out of descriptors
                # and count imissed on that queue.
                self._dropped[q].value += 1
                nic = self.queues[q]
                if nic is not None:
                    nic.counters.imissed += 1
                continue
            dest.append(pkt)
            self._steered[q].value += 1
            self._occupancy[q].value = len(dest)
            if q == queue_id:
                pkt = backlog.popleft()
                self._occupancy[queue_id].value = len(backlog)
                return pkt
        if backlog:
            pkt = backlog.popleft()
            self._occupancy[queue_id].value = len(backlog)
            return pkt
        if self.exhausted:
            raise StopIteration("port trace exhausted")
        return None

    # -- adaptive steering -----------------------------------------------------

    def enable_bucket_stats(self) -> None:
        """Start per-RETA-entry accounting (``bucket<i>`` counters).

        Idempotent.  Also creates the migration counters the rebalancer
        charges (``reta_moves``, ``migration_drains``, ``dispatched``),
        so none of these names exist -- and nothing is counted -- until
        a steering policy is attached.
        """
        if self._bucket_handles is not None:
            return
        self._bucket_handles = [
            self.registry.counter("bucket%d" % i)
            for i in range(len(self.table.entries))
        ]
        self._reta_moves = self.registry.counter("reta_moves")
        self._migration_drains = self.registry.counter("migration_drains")
        self._dispatched = self.registry.counter("dispatched")

    @property
    def bucket_stats_enabled(self) -> bool:
        return self._bucket_handles is not None

    def bucket_counts(self) -> Optional[List[int]]:
        """Lifetime packets per RETA bucket (``None`` until enabled)."""
        if self._bucket_handles is None:
            return None
        return [handle.value for handle in self._bucket_handles]

    def staged_in_bucket(self, index: int) -> int:
        """Frames of RETA bucket ``index`` staged on its current queue."""
        size = len(self.table.entries)
        index %= size
        queue = self.table.entries[index]
        return sum(1 for pkt in self.backlogs[queue]
                   if pkt.rss_hash % size == index)

    def retarget_bucket(self, index: int, queue: int) -> int:
        """Move one RETA entry to ``queue`` mid-run.

        Frames of the bucket already staged on the old queue stay there
        and drain in order -- exactly what hardware does on a RETA
        update (the conservation books keep closing because ``steered``
        was charged at append time).  Returns how many such frames were
        in flight: the migration's reordering exposure, counted in
        ``migration_drains``.
        """
        size = len(self.table.entries)
        index %= size
        old = self.table.entries[index]
        if old == queue:
            return 0
        staged = sum(1 for pkt in self.backlogs[old]
                     if pkt.rss_hash % size == index)
        self.table.retarget(index, queue)
        if self._reta_moves is not None:
            self._reta_moves.value += 1
            self._migration_drains.value += staged
        return staged

    def enable_dispatch(self, bucket: int) -> None:
        """Spray ``bucket``'s frames round-robin across every queue.

        The RSS++-style escape hatch for an elephant flow whose bucket
        alone saturates a core: packet-level dispatch trades that flow's
        ordering guarantee for balance.  Dispatched frames are counted
        in the port's ``dispatched`` ledger.
        """
        self.enable_bucket_stats()
        self.dispatch_buckets.setdefault(bucket % len(self.table.entries), 0)

    def retire_dispatch(self, bucket: int) -> None:
        """Return ``bucket`` to ordinary indirection-table steering."""
        self.dispatch_buckets.pop(bucket % len(self.table.entries), None)

    # -- accounting ----------------------------------------------------------

    @property
    def ingested(self) -> int:
        return self._ingested.value

    def steered(self, queue_id: Optional[int] = None) -> int:
        if queue_id is not None:
            return self._steered[queue_id].value
        return sum(c.value for c in self._steered)

    def dropped(self, queue_id: Optional[int] = None) -> int:
        if queue_id is not None:
            return self._dropped[queue_id].value
        return sum(c.value for c in self._dropped)

    def backlog_depths(self) -> List[int]:
        return [len(b) for b in self.backlogs]

    def drained(self) -> bool:
        """Trace exhausted and every staging backlog empty."""
        return self.exhausted and not any(self.backlogs)

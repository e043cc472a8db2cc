"""Run-to-completion driver: the FastClick main loop.

One iteration receives a burst from each RX device, pushes it through the
processing graph (splitting sub-batches at classifiers, exactly like
FastClick's batch push), and transmits whatever reaches the TX devices.

Costs are charged from three sources per element visit:

1. the *dispatch policy* -- how the next element is reached: virtual call
   through a heap-resident dynamic graph (Vanilla), direct call
   (click-devirtualize), or fully inlined straight-line code over a
   static graph (PacketMill);
2. the element's lowered per-packet IR program; and
3. the PMD programs inside rx_burst/tx_burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.click.element import Element
from repro.click.elements.io import rx_burst
from repro.click.graph import ProcessingGraph
from repro.compiler.lower import ExecProgram
from repro.compiler.runtime import execute_bases
from repro.telemetry import Telemetry
from repro.telemetry.attribution import DRIVER_BUCKET
from repro.telemetry.ledger import NIC_FIELDS
from repro.telemetry.registry import CounterRegistry, CounterView

DISPATCH_VIRTUAL = "virtual"
DISPATCH_DIRECT = "direct"
DISPATCH_INLINE = "inline"

#: Indirect-call misprediction odds per batch hop in a dynamic graph.
VIRTUAL_CALL_MISS = 0.45


@dataclass(frozen=True)
class DispatchPolicy:
    """How control transfers between elements (per batch, per element)."""

    mode: str = DISPATCH_VIRTUAL
    static_segment: bool = False

    def charge(self, cpu, element: Element, params) -> None:
        if self.mode == DISPATCH_INLINE:
            # Straight-line code: the "dispatch" is just falling through.
            cpu.charge_compute(1)
            return
        loads = params.dispatch_loads_per_element
        if self.mode == DISPATCH_DIRECT:
            loads -= 1  # no vtable pointer load
        if self.static_segment:
            # Element descriptors packed in the static segment: the cache
            # model keeps these few lines warm by itself.
            base = element.state_region.base if element.state_region else 0
            for i in range(loads):
                cpu.mem_access(base + 8 * i, 8, instructions=1.0)
        else:
            for _ in range(loads):
                cpu.dispatch_access(instructions=1.0)
        if self.mode == DISPATCH_VIRTUAL:
            cpu.charge_compute(8)
            cpu.charge_branch_miss(VIRTUAL_CALL_MISS)
        else:
            cpu.charge_compute(4)


class RunStats(CounterView):
    """Functional outcome of one measurement run.

    Beyond the healthy-path totals, a run carries the degraded-path
    ledger: the NICs' hardware drops (``rx_nombuf``, ``imissed``,
    ``rx_errors``, ``tx_full``), element error-boundary incidents, and
    watchdog recoveries.  All of these stay zero on a fault-free run.

    A view over a :class:`repro.telemetry.registry.CounterRegistry`:
    scalars live under ``driver.*``, the run's NIC delta under
    ``driver.hw.*`` (the hardware drop attributes read those cells), and
    the per-element breakdowns under ``element.<name>.drops`` /
    ``element.<name>.errors``, so handler globs, window samples, and
    exports read the same cells this object does.  Keyword construction
    works (``RunStats(rx_packets=100, tx_packets=100)``); constructed
    bare, it owns a private registry.
    """

    FIELDS = (
        "batches", "rx_packets", "tx_packets", "tx_bytes", "drops",
        # -- NIC drops: this run's delta, written by the driver ------------
        "hw.rx_nombuf", "hw.imissed", "hw.rx_errors", "hw.tx_full",
        # -- software degradation counters ---------------------------------
        "error_batches", "watchdog_resets", "clone_alloc_failures",
    )

    __slots__ = ("_element_drops", "_element_errors")

    def __init__(self, registry: Optional[CounterRegistry] = None, **initial):
        super().__init__(registry, "driver", **initial)

    def _bind(self, registry: CounterRegistry, prefix: str) -> None:
        super()._bind(registry, prefix)
        self._element_drops: Dict[str, object] = {}
        self._element_errors: Dict[str, object] = {}

    def freeze(self) -> None:
        """Detach from shared storage, keeping the current values.

        Called by :meth:`RouterDriver.reset_stats` before the shared
        counters are zeroed for the next run, so references to this
        object keep reading the finished run's numbers.
        """
        scalars = {name: cell.value for name, cell in self._cells.items()}
        drops = dict(self.drops_by_element)
        errors = dict(self.errors_by_element)
        hw = dict(self.hw_counters)
        self._bind(CounterRegistry(), self.prefix)
        for name, value in scalars.items():
            self._cells[name].value = value
        self.drops_by_element = drops
        self.errors_by_element = errors
        self.hw_counters = hw

    # -- recording -------------------------------------------------------------

    def _element_counter(self, cache, element_name: str, leaf: str):
        handle = cache.get(element_name)
        if handle is None:
            handle = cache[element_name] = self.registry.counter(
                "element.%s.%s" % (element_name, leaf)
            )
        return handle

    def record_drop(self, element_name: str, count: int = 1) -> None:
        self._cells["drops"].value += count
        self._element_counter(
            self._element_drops, element_name, "drops"
        ).value += count

    def record_element_error(self, element_name: str) -> None:
        self._cells["error_batches"].value += 1
        self._element_counter(
            self._element_errors, element_name, "errors"
        ).value += 1

    # -- per-element / hardware breakdowns --------------------------------------

    def _breakdown(self, leaf: str) -> Dict[str, int]:
        suffix = "." + leaf
        out = {}
        for name, value in self.registry.match("element.*" + suffix).items():
            if value:
                out[name[len("element."):-len(suffix)]] = value
        return out

    def _set_breakdown(self, leaf: str, cache, values: Dict[str, int]) -> None:
        for handle in cache.values():
            handle.value = 0
        for element_name, value in values.items():
            self._element_counter(cache, element_name, leaf).value = value

    @property
    def drops_by_element(self) -> Dict[str, int]:
        return self._breakdown("drops")

    @drops_by_element.setter
    def drops_by_element(self, values: Dict[str, int]) -> None:
        self._set_breakdown("drops", self._element_drops, values)

    @property
    def errors_by_element(self) -> Dict[str, int]:
        return self._breakdown("errors")

    @errors_by_element.setter
    def errors_by_element(self, values: Dict[str, int]) -> None:
        self._set_breakdown("errors", self._element_errors, values)

    @property
    def hw_counters(self) -> Dict[str, int]:
        """This run's NIC counter deltas, summed over the core's ports
        (``driver.hw.*`` in the registry)."""
        return {name: self.registry.get("driver.hw." + name)
                for name in NIC_FIELDS}

    @hw_counters.setter
    def hw_counters(self, values: Dict[str, int]) -> None:
        for name in NIC_FIELDS:
            self.registry.counter("driver.hw." + name).value = values.get(name, 0)

    # -- derived views -----------------------------------------------------------

    @property
    def dropped_total(self) -> int:
        """Every packet lost after delivery: pipeline kills + RX errors."""
        return self.drops + self.rx_errors

    @property
    def fault_degraded(self) -> bool:
        """Whether any degraded-path counter fired during this run."""
        return bool(
            self.rx_nombuf or self.imissed or self.rx_errors or self.tx_full
            or self.error_batches or self.watchdog_resets
        )

    def ledger(self) -> Dict[str, int]:
        """The run's drop ledger, keyed as a measured run's counters name
        it: ``drops`` reads as ``sw_drops`` and ``error_batches`` as
        ``element_errors``."""
        return {
            "rx_nombuf": self.rx_nombuf,
            "imissed": self.imissed,
            "rx_errors": self.rx_errors,
            "tx_full": self.tx_full,
            "sw_drops": self.drops,
            "element_errors": self.error_batches,
            "watchdog_resets": self.watchdog_resets,
        }

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = super().snapshot()
        out["drops_by_element"] = self.drops_by_element
        out["errors_by_element"] = self.errors_by_element
        out["hw_counters"] = self.hw_counters
        return out


class RouterDriver:
    """Executes a compiled processing graph on one core."""

    def __init__(
        self,
        graph: ProcessingGraph,
        cpu,
        params,
        exec_programs: Dict[str, ExecProgram],
        dispatch: DispatchPolicy,
        pmds: Dict[int, "MlxPmd"],  # noqa: F821 - forward ref to avoid cycle
        injector=None,
        watchdog=None,
        telemetry: Optional[Telemetry] = None,
        qos_ports: Optional[Dict[int, "QosPort"]] = None,  # noqa: F821
        layout_registry=None,
    ):
        self.graph = graph
        self.cpu = cpu
        self.params = params
        self.exec_programs = exec_programs
        self.dispatch = dispatch
        self.pmds = pmds
        self.injector = injector
        self.watchdog = watchdog
        # The telemetry bundle: always a registry (counter storage), plus
        # the optional recorders.  Hot-path guards below are None checks,
        # exactly like the fault injector's.
        if telemetry is None:
            telemetry = Telemetry()
        self.telemetry = telemetry
        self.registry = telemetry.registry
        self.attribution = telemetry.attribution
        self.sampler = telemetry.sampler
        self.spans = telemetry.spans
        self.stats = RunStats(self.registry)
        self._layout_registry = layout_registry
        self._hw_base: Dict[str, int] = {}
        self.rx_elements: List[Element] = []
        self.queue_elements: List[Element] = [
            e for e in graph.all_elements()
            if getattr(e, "buffers_packets", False) and hasattr(e, "drain")
        ]
        # Per-port QoS buffer accounting (ingress admission + PFC); empty
        # when QoS is unconfigured, in which case nothing below touches it.
        self.qos_ports = dict(qos_ports) if qos_ports else {}
        # Control elements (PFCPause) get one tick() per iteration -- the
        # occupancy watch that asserts/deasserts pause.  The list is empty
        # in every non-QoS build.
        self.tick_elements: List[Element] = [
            e for e in graph.all_elements() if hasattr(e, "tick")
        ]
        for element in graph.by_class("FromDPDKDevice"):
            port = element.param("port")
            if port not in pmds:
                raise ValueError("no PMD bound for RX port %d" % port)
            element.pmd = pmds[port]
            self.rx_elements.append(element)
        for element in graph.by_class("ToDPDKDevice"):
            port = element.param("port")
            if port not in pmds:
                raise ValueError("no PMD bound for TX port %d" % port)
            element.pmd = pmds[port]
        if not self.rx_elements:
            raise ValueError("configuration has no FromDPDKDevice")
        # Queue elements drain in batches of the configuration's burst.
        self.burst = rx_burst(graph)
        # All PMDs of one build share the metadata model; dropped packets
        # hand their buffers back to it (Click's Packet::kill()).
        self._model = next(iter(pmds.values())).model
        # Every element reads its registry scope through the same path.
        for element in graph.all_elements():
            element.bind_telemetry(self.registry.scope("element." + element.name))
        if self.attribution is not None:
            self.attribution.bind(cpu)
        if self.spans is not None:
            self.spans.bind_clock(cpu.elapsed_ns)
            for pmd in self._unique_pmds():
                pmd.spans = self.spans
        if self.sampler is not None:
            self.sampler.restart(cpu.elapsed_ns())
        # Any rx_nombuf hits during initial ring fill predate measurement.
        self._hw_base = self.hw_counters()

    # -- execution -----------------------------------------------------------------

    def _kill(self, element_name: str, packets) -> None:
        """Drop packets, releasing their DPDK buffers back to the model.

        The buffer-release cost is attributed to the element that dropped
        the packets -- Click's ``Packet::kill()`` runs in the caller.
        """
        attribution = self.attribution
        if attribution is not None:
            attribution.sync(DRIVER_BUCKET)
        refs = []
        for pkt in packets:
            if pkt.mbuf is not None:
                refs.append(pkt.mbuf)
                pkt.mbuf = None
            ticket = pkt.qos_ticket
            if ticket is not None:
                # A killed frame leaves the system; release its ingress
                # buffer charge (headroom-first reclaim).
                pkt.qos_ticket = None
                ticket[0].drain(ticket[1])
        # One release for the batch: the QoS drains charge nothing.
        self._model.release(refs, self.cpu)
        self.stats.record_drop(element_name, len(packets))
        if attribution is not None:
            attribution.sync("element." + element_name)

    def _quarantine(self, element: Element, packets) -> None:
        """Error boundary: a raising element forfeits its batch, not the run.

        The batch's buffers are released (counted as drops at this
        element), the incident is recorded, and the main loop continues.
        """
        self.stats.record_element_error(element.name)
        self._kill(element.name, packets)

    def _clone_packet(self, element: Element, pkt, ref=None):
        """Duplicate a packet into a fresh app-allocated buffer (Tee)."""
        if ref is None:  # direct callers; the hot path passes try_allocate's
            ref = self._model.allocate(self.cpu)
        clone = pkt.clone()
        clone.mbuf = ref
        # The copy itself: one streaming write over the clone's data room.
        self.cpu.mem_access(ref.data_addr, max(64, len(pkt)), write=True,
                            instructions=len(pkt) / 16.0)
        if hasattr(element, "cloned"):
            element.cloned += 1
        return clone

    def _safe_clone(self, element: Element, pkt):
        """Clone, degrading to "no clone" when the pool is exhausted.

        Exhaustion surfaces as ``try_allocate() is None`` -- the unified
        drop-counter contract -- so the hot path needs no try/except.
        """
        attribution = self.attribution
        if attribution is not None:
            attribution.sync(DRIVER_BUCKET)
        try:
            ref = self._model.try_allocate(self.cpu)
            if ref is None:
                self.stats.clone_alloc_failures += 1
                return None
            return self._clone_packet(element, pkt, ref)
        finally:
            if attribution is not None:
                attribution.sync("element." + element.name)

    def _charge_element(self, element: Element, batch: List) -> None:
        attribution = self.attribution
        if attribution is not None:
            attribution.sync(DRIVER_BUCKET)
        try:
            self.dispatch.charge(self.cpu, element, self.params)
            program = self.exec_programs[element.name]
            state = element.state_region.base if element.state_region else 0
            execute_bases(self.cpu, program, [
                (0, 0, 0, 0, state) if (ref := pkt.mbuf) is None
                else (ref.meta_addr, ref.mbuf_addr, ref.cqe_addr,
                      ref.data_addr, state)
                for pkt in batch])
        finally:
            # Attribute even a partial (raising) charge to the element --
            # the marks must tile the run for the totals to conserve.
            if attribution is not None:
                attribution.sync("element." + element.name, len(batch))

    def _push_batch(self, element: Element, batch: List, tx_queues) -> None:
        """Recursively push a batch through the graph from ``element``.

        When spans are recorded, each element visited opens a span that
        stays open while the batch continues downstream, so the recorded
        stacks nest along the actual pipeline path
        (``iteration;input;rt;output``).
        """
        spans = self.spans
        pushed = 0
        try:
            while True:
                if spans is not None:
                    spans.push(element.name)
                    pushed += 1
                try:
                    self._charge_element(element, batch)
                except Exception:
                    self._quarantine(element, batch)
                    return
                if element.decl.class_name == "ToDPDKDevice":
                    tx_queues.setdefault(element.name, (element, []))[1].extend(batch)
                    return
                out: Dict[int, List] = {}
                clones = getattr(element, "clones_packets", False)
                failed_at = None
                for i, pkt in enumerate(batch):
                    try:
                        port = element.process(pkt)
                    except Exception:
                        failed_at = i
                        break
                    if port is None:
                        self._kill(element.name, (pkt,))
                        continue
                    if port == -1:  # held by a buffering element (Queue)
                        continue
                    out.setdefault(port, []).append(pkt)
                    if clones:
                        for extra_port in range(1, element.n_outputs):
                            clone = self._safe_clone(element, pkt)
                            if clone is not None:
                                out.setdefault(extra_port, []).append(clone)
                if failed_at is not None:
                    # Quarantine the batch: the unprocessed remainder plus
                    # whatever this element had already routed.
                    leftovers = list(batch[failed_at:])
                    for sub_batch in out.values():
                        leftovers.extend(sub_batch)
                    self._quarantine(element, leftovers)
                    return
                if not out:
                    return
                # Fast path: single output port, continue iteratively.
                if len(out) == 1:
                    ((port, batch),) = out.items()
                    target = element.target(port)
                    if target is None:
                        self._kill(element.name, batch)
                        return
                    element = target[0]
                    continue
                for port, sub_batch in out.items():
                    target = element.target(port)
                    if target is None:
                        self._kill(element.name, sub_batch)
                        continue
                    self._push_batch(target[0], sub_batch, tx_queues)
                return
        finally:
            if spans is not None:
                spans.pop_n(pushed)

    def run_batches(self, n_batches: int) -> RunStats:
        """Run the main loop for ``n_batches`` iterations.

        A finite trace ends the run early but cleanly: once every RX
        source is exhausted and the pipeline has drained, remaining
        iterations are skipped and the stats stay intact.
        """
        for _ in range(n_batches):
            self.step()
            if self.at_eof():
                self.quiesce()
                break
        if self.attribution is not None:
            self.attribution.sync(DRIVER_BUCKET)
        if self.sampler is not None:
            self.sampler.flush(self.cpu.elapsed_ns())
        self._sync_hw_stats()
        return self.stats

    def step(self) -> int:
        """One main-loop iteration; returns packets received."""
        if self.injector is not None:
            self.injector.begin_iteration()
        for element in self.tick_elements:
            # PFC watch: pause state settles before this iteration's RX.
            element.tick()
        attribution = self.attribution
        spans = self.spans
        if spans is not None:
            spans.push("iteration")
        received = 0
        transmitted = 0
        for rx in self.rx_elements:
            if attribution is not None:
                attribution.sync(DRIVER_BUCKET)
            if spans is not None:
                spans.push("pmd.rx")
            batch = rx.pmd.rx_burst(rx.param("burst"))
            if spans is not None:
                spans.pop()
            if attribution is not None:
                attribution.sync("pmd.rx", len(batch))
            if not batch:
                continue
            received += len(batch)
            self.stats.rx_packets += len(batch)
            tx_queues: Dict[str, tuple] = {}
            target = rx.target(0)
            if spans is not None:
                spans.push(rx.name)
            try:
                try:
                    self._charge_element(rx, batch)
                except Exception:
                    self._quarantine(rx, batch)
                    continue
                if target is None:
                    self._kill(rx.name, batch)
                else:
                    self._push_batch(target[0], batch, tx_queues)
            finally:
                if spans is not None:
                    spans.pop()
            self._drain_queues(tx_queues)
            transmitted += self._transmit(tx_queues)
        if received == 0 and self.queue_elements and self.in_flight_packets():
            # Sources idle -- exhausted, or pause-throttled by PFC -- but
            # packets remain parked in queues.  Service them anyway: this
            # is what lets occupancy fall below XON while the source is
            # paused (the backpressure loop needs drain progress to ever
            # deassert) and lets finite runs reach EOF.
            tx_queues = {}
            self._drain_queues(tx_queues)
            transmitted += self._transmit(tx_queues)
        self.stats.batches += 1
        if self.watchdog is not None:
            if self.watchdog.observe(received > 0 or transmitted > 0):
                self._watchdog_recover()
        if spans is not None:
            spans.pop()
        if self.sampler is not None:
            self.sampler.observe(self.cpu.elapsed_ns())
        return received

    def _transmit(self, tx_queues) -> int:
        """Flush each ``ToDPDKDevice``'s batch to its PMD; returns the
        packets sent.  Packets the TX ring refuses die."""
        attribution = self.attribution
        spans = self.spans
        transmitted = 0
        for element, pkts in tx_queues.values():
            if attribution is not None:
                attribution.sync(DRIVER_BUCKET)
            if spans is not None:
                spans.push("pmd.tx")
            sent = element.pmd.tx_burst(pkts)
            if spans is not None:
                spans.pop()
            if attribution is not None:
                attribution.sync("pmd.tx", sent)
            transmitted += sent
            self.stats.tx_packets += sent
            self.stats.tx_bytes += sum(len(p) for p in pkts[:sent])
            if sent < len(pkts):  # TX ring full: unsent packets die
                self._kill(element.name, pkts[sent:])
        return transmitted

    # -- degraded-path support ---------------------------------------------------

    def _watchdog_recover(self) -> None:
        """Reset a stalled pipeline: reap TX, replenish RX on every PMD."""
        for pmd in self._unique_pmds():
            pmd.recover()
        self.stats.watchdog_resets += 1

    def _unique_pmds(self):
        seen: List = []
        for pmd in self.pmds.values():
            if pmd not in seen:
                seen.append(pmd)
        return seen

    def _nics(self):
        seen: List = []
        for pmd in self._unique_pmds():
            if pmd.nic not in seen:
                seen.append(pmd.nic)
        return seen

    def at_eof(self) -> bool:
        """All finite RX traces drained and no packets parked in queues."""
        return (
            all(rx.pmd.nic.trace_exhausted for rx in self.rx_elements)
            and self.in_flight_packets() == 0
        )

    def quiesce(self) -> None:
        """Release every buffer still parked on a TX ring (end of run)."""
        for pmd in self._unique_pmds():
            pmd.drain_tx()

    def in_flight_packets(self) -> int:
        """Packets held inside the pipeline (Queue elements).

        Unreaped TX-ring buffers are *not* in flight: those packets were
        already counted as transmitted when the NIC accepted them.
        """
        return sum(
            queue.occupancy for queue in self.queue_elements
            if hasattr(queue, "occupancy")
        )

    def hw_counters(self) -> Dict[str, int]:
        """Aggregate NIC drop/error counters across this core's ports."""
        total: Dict[str, int] = {}
        for nic in self._nics():
            for name, value in nic.counters.snapshot().items():
                total[name] = total.get(name, 0) + value
        return total

    def _sync_hw_stats(self) -> None:
        """Write the NIC counters' delta since reset under ``driver.hw.*``."""
        base = self._hw_base
        self.stats.hw_counters = {
            name: value - base.get(name, 0)
            for name, value in self.hw_counters().items()
        }

    def _drain_queues(self, tx_queues) -> None:
        """Drain buffering elements at the end of the iteration.

        Chained queues may refill each other, so iterate to a fixed point
        (bounded -- queue cycles cannot make progress forever within one
        iteration's packet population).  Rate-limited queues reset their
        per-iteration service budget through ``begin_drain`` first, so the
        fixed-point rounds cannot exceed the configured rate.
        """
        for queue in self.queue_elements:
            begin = getattr(queue, "begin_drain", None)
            if begin is not None:
                begin()
        for _ in range(8):
            moved = False
            for queue in self.queue_elements:
                batch = queue.drain(self.burst)
                if not batch:
                    continue
                moved = True
                target = queue.target(0)
                if target is None:
                    self._kill(queue.name, batch)
                else:
                    self._push_batch(target[0], batch, tx_queues)
            if not moved:
                return

    def reset_stats(self) -> None:
        """Zero the run counters, detaching the previous stats object.

        The old :class:`RunStats` is frozen (it keeps the finished run's
        values, as the replace-the-dataclass reset used to guarantee),
        then the shared driver/element/PMD counters are zeroed and a
        fresh view is bound over them.  NIC counters stay cumulative, as
        on real hardware; the delta base moves instead.
        """
        self.stats.freeze()
        self.registry.reset("driver.")
        self.registry.reset("element.")
        self.registry.reset("pmd.")
        self.stats = RunStats(self.registry)
        if self.attribution is not None:
            self.attribution.rebase()
        if self.sampler is not None:
            self.sampler.restart(self.cpu.elapsed_ns())
        if self.spans is not None:
            self.spans.reset()
        self._hw_base = self.hw_counters()

"""PacketMill: grind a network-function configuration into a specialized
binary (the paper's Fig. 3 pipeline).

Stages, mirroring the figure:

1. **Parse** the Click configuration into a processing graph.
2. **Source-code modifications**: devirtualization (click-devirtualize),
   constant embedding, and static graph embedding, expressed as IR passes
   over each element's per-packet program plus the dispatch policy.
3. **Metadata customization**: pick the metadata model; X-Change wires the
   PMD's conversion functions into the application's Packet struct.
4. **IR-code modifications** (LTO): inline the conversion/call overhead
   and optionally run the struct-field reordering pass over the whole
   program's access counts.
5. **Link** everything into a :class:`SpecializedBinary` bound to a core,
   NIC(s), and the hardware model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.click.driver import (
    DISPATCH_DIRECT,
    DISPATCH_INLINE,
    DISPATCH_VIRTUAL,
    DispatchPolicy,
    RouterDriver,
)
from repro.click.elements.io import rx_burst
from repro.click.graph import ProcessingGraph
from repro.compiler.pipeline import PassManager, compile_graph
from repro.core.binary import SpecializedBinary
from repro.core.options import BuildOptions
from repro.core.profile import BuildError, RunProfile
from repro.dpdk.metadata import make_model
from repro.dpdk.nic import Nic
from repro.dpdk.pmd import MlxPmd
from repro.faults.injector import FaultInjector
from repro.faults.watchdog import Watchdog
from repro.exec import cache as exec_cache
from repro.hw.cpu import CpuCore
from repro.hw.layout import AddressSpace
from repro.hw.memory import MemorySystem
from repro.hw.params import DEFAULT_PARAMS
from repro.net.trace import TraceSpec
from repro.qos import QosPort
from repro.telemetry import Telemetry, TelemetryConfig

TraceFactory = Callable[[int, int], object]  # (port, core) -> trace generator


def _default_trace_factory(port: int, core: int):
    return exec_cache.trace_from_spec(
        "campus", None, TraceSpec(seed=101 + 13 * port + 7 * core)
    )


class PacketMill:
    """Builds specialized binaries for a Click configuration.

    A mill holds the configuration text and its :class:`RunProfile`;
    every build reads its inputs from those two, and the burst from the
    configuration alone (``FromDPDKDevice(BURST n)``).
    """

    def __init__(self, config: str, /,
                 options: Optional[BuildOptions] = None, **fields):
        # Every other keyword is a RunProfile field; RunProfile declares
        # them (and their defaults) once, and refuses unknown ones.
        profile = RunProfile().with_overrides(options=options, **fields)
        self.config = config
        self.profile = profile
        # The profile's build variant and machine, defaults applied.
        self.options = profile.options or BuildOptions.vanilla()
        self.params = profile.params or DEFAULT_PARAMS
        self._analysis_report = None
        trace = profile.trace
        if trace is None:
            self._trace_factory: TraceFactory = _default_trace_factory
        elif callable(trace) and not hasattr(trace, "next_packet"):
            self._trace_factory = trace
        else:
            self._trace_factory = lambda port, core: trace

    def analysis(self):
        """The static analysis of this mill's configuration and profile,
        an :class:`~repro.analyze.AnalysisReport` computed on first use.

        Builds never analyze; to refuse an unsound configuration, gate
        the build on it: ``mill.analysis().raise_on_errors(); mill.build()``.
        """
        if self._analysis_report is None:
            from repro.analyze import analyze_config

            self._analysis_report = analyze_config(
                self.config, self.options,
                subject=self.options.label(),
                qos=self.profile.qos,
                profile=self.profile,
            )
        return self._analysis_report

    # -- policy selection --------------------------------------------------------

    def _dispatch_policy(self) -> DispatchPolicy:
        options = self.options
        if options.static_graph:
            return DispatchPolicy(mode=DISPATCH_INLINE, static_segment=True)
        if options.devirtualize:
            return DispatchPolicy(mode=DISPATCH_DIRECT, static_segment=False)
        return DispatchPolicy(mode=DISPATCH_VIRTUAL, static_segment=False)

    # -- build ------------------------------------------------------------------------

    def _parse(self):
        """A fresh graph of the configuration and its sorted DPDK ports."""
        graph = ProcessingGraph.from_text(self.config)
        ports = sorted(
            {e.param("port") for e in graph.by_class("FromDPDKDevice")}
            | {e.param("port") for e in graph.by_class("ToDPDKDevice")}
        )
        if not ports:
            raise BuildError("configuration uses no DPDK ports")
        return graph, ports

    def build(self) -> SpecializedBinary:
        """Build a single-core binary."""
        graph, ports = self._parse()
        mem = MemorySystem(self.params, n_cores=1, seed=self.profile.seed)
        return self._build_core(mem, 0, graph, ports, self._trace_factory,
                                self.profile.faults)

    def build_sharded(self):
        """Build an RSS-sharded runtime: one shared arrival stream per
        port, Toeplitz-steered across the profile's ``n_cores`` per-core
        replicas, with the profile's ``rss`` steering knobs.

        Every replica is a full :class:`SpecializedBinary` (own CpuCore,
        PMDs, driver) built by the same ``_build_core``
        path as :meth:`build`; what changes is the trace wiring -- each
        replica's NIC pulls from its :class:`~repro.dpdk.nic.QueueTrace`
        view of the port's :class:`~repro.dpdk.nic.MultiQueueNic` -- and
        the fault wiring, which is scoped per queue
        (``FaultSchedule.for_queue``).  With ``rss.mempool="shared"``
        every queue's PMD allocates from core 0's mempool instead of a
        partitioned per-core pool.

        An ``n_cores=1`` sharded build is charge-for-charge identical to
        :meth:`build`: the steering stage degenerates to a pass-through
        and costs nothing.
        """
        from repro.core.sharded import ShardedRuntime
        from repro.dpdk.nic import MultiQueueNic
        from repro.net.rss import MEMPOOL_SHARED, RssConfig

        profile = self.profile
        n = profile.n_cores
        config = profile.rss or RssConfig()
        graph, ports = self._parse()
        mem = MemorySystem(self.params, n_cores=n, seed=profile.seed)
        # An automatic ingest budget is sized by the configuration's burst.
        port_config = replace(config, ingest_budget=config.ingest_budget_for(
            rx_burst(graph), n))
        # One physical multi-queue port per DPDK port; the port's shared
        # arrival stream is the (port, core=0) trace.
        mqs = {
            port: MultiQueueNic(
                self._trace_factory(port, 0), n, port_config,
                port=port, name="port%d" % port,
            )
            for port in ports
        }

        def queue_trace(port, core):
            return mqs[port].queue_trace(core)

        replicas: List[SpecializedBinary] = []
        for core in range(n):
            if core:
                graph = ProcessingGraph.from_text(self.config)
            # Per-queue fault scoping: a core whose filtered schedule is
            # empty gets no injector at all.
            faults = (profile.faults.for_queue(core)
                      if profile.faults is not None else None)
            shared_model = (replicas[0].model
                            if config.mempool == MEMPOOL_SHARED and replicas
                            else None)
            replicas.append(self._build_core(mem, core, graph, ports,
                                             queue_trace, faults,
                                             shared_model))
        for core, binary in enumerate(replicas):
            for port, pmd in binary.pmds.items():
                mqs[port].bind_queue(core, pmd.nic)
        return ShardedRuntime(replicas, mqs, config=config)

    def _build_core(self, mem: MemorySystem, core_id: int,
                    graph: ProcessingGraph, ports: List[int],
                    trace_factory: TraceFactory, faults,
                    shared_model=None) -> SpecializedBinary:
        """One core's binary over ``graph``.  A sharded build with a shared
        mempool passes core 0's model as ``shared_model`` (one pool, one
        set of buffers) instead of setting up a partitioned per-core one."""
        options = self.options
        params = self.params
        # Half-wired configurations fail here, naming element and port,
        # instead of silently never delivering packets to the gap.
        graph.check_required_inputs()
        cpu = CpuCore(params, mem, core_id)
        # One registry per binary; the shared memory system's per-core
        # counters are mounted under cpu. so the cache model's live
        # handles and this build's telemetry read the same cells.  The
        # optional recorders (windows, attribution, spans) only exist when
        # a config is given -- observation charges nothing either way.
        telemetry = self.profile.telemetry
        telemetry = Telemetry(config=TelemetryConfig() if telemetry is True
                              else telemetry or None)
        telemetry.registry.mount("cpu", mem.registry_for(core_id))
        # Disjoint per-core address ranges: replicas share the LLC but must
        # not alias each other's lines.
        space = AddressSpace(seed=self.profile.seed + core_id,
                             offset=core_id << 36)

        model = (make_model(options.metadata_model) if shared_model is None
                 else shared_model)
        holders = model.unbuffered_holders(graph)
        if holders:
            raise BuildError(
                "metadata model %r cannot buffer packets, but the "
                "configuration holds them in: %s (the TinyNF "
                "restriction the paper contrasts X-Change against)"
                % (model.name, ", ".join(holders))
            )
        if shared_model is None:
            model.setup(space, params)

        # -- element state allocation (static graph vs. scattered heap) -----
        for element in graph.all_elements():
            size = max(64, element.state_size)
            if options.static_graph:
                element.state_region = space.alloc_static(element.name, size)
            else:
                element.state_region = space.alloc_heap(element.name, size)

        # -- compile: passes, reordering, lowering ------------------------------
        # A pure function of (config, options, params sans frequency); the
        # registry, lowered element and PMD programs and pass records are
        # immutable once built, so replica builds, their PMDs and sweep
        # siblings share them.
        pass_manager = PassManager.from_options(options)
        cached = exec_cache.lookup_build(self.config, options, params)
        if cached is None:
            registry, _, exec_programs, pmd_programs = compile_graph(
                graph, model, options, pass_manager)
            exec_cache.store_build(self.config, options, params, registry,
                                   exec_programs, pmd_programs,
                                   tuple(pass_manager.records))
        else:
            registry, exec_programs, pmd_programs, records = cached
            pass_manager.records = list(records)

        # -- NICs and PMDs (one queue per port on this core; `ports` was
        # computed and validated up front, right after parsing) ----------------
        # -- fault wiring (inert unless a non-empty schedule was given) --------
        injector = None
        watchdog = None
        if faults is not None and not faults.is_empty:
            # Offset the seed per core so replicas see decorrelated-but-
            # deterministic fault sequences.
            injector = FaultInjector(faults, seed=faults.seed + 7919 * core_id)
            if model.mempool is not None:
                injector.bind_mempool(model.mempool)
            watchdog = Watchdog(self.profile.watchdog_threshold)

        pmds: Dict[int, MlxPmd] = {}
        for port in ports:
            trace = trace_factory(port, core_id)
            nic = Nic(params, mem, space, trace,
                      name="nic%d_c%d" % (port, core_id), port=port,
                      registry=telemetry.registry)
            nic.faults = injector
            pmds[port] = MlxPmd(nic, model, cpu, pmd_programs)

        # -- QoS buffer pools (absent unless a config was given) ---------------
        qos_ports: Dict[int, QosPort] = {}
        qos = self.profile.qos
        if qos is not None:
            for port in (qos.ports or ports):
                if port not in pmds:
                    raise BuildError(
                        "QoS config names port %d, which the configuration "
                        "does not use" % port
                    )
                pool = QosPort(qos, port, registry=telemetry.registry)
                qos_ports[port] = pool
                pmds[port].nic.qos = pool
        for element in graph.by_class("PFCPause"):
            watched = element.param("port")
            if watched not in qos_ports:
                raise BuildError(
                    "pause element %s watches port %d but no QoS buffer "
                    "pool is bound there (pass qos= to PacketMill)"
                    % (element.name, watched)
                )
            element.bind_pool(qos_ports[watched])

        dispatch = self._dispatch_policy()
        driver = RouterDriver(
            graph, cpu, params, exec_programs, dispatch, pmds,
            injector=injector, watchdog=watchdog, telemetry=telemetry,
            qos_ports=qos_ports or None,
            layout_registry=registry,
        )
        binary = SpecializedBinary(
            options=options,
            params=params,
            graph=graph,
            driver=driver,
            cpu=cpu,
            mem=mem,
            space=space,
            pmds=pmds,
            registry=registry,
            exec_programs=exec_programs,
            trace=pmds[ports[0]].nic.trace,
            model=model,
            pass_manager=pass_manager,
        )
        binary.injector = injector
        binary.qos_ports = qos_ports
        binary.telemetry = telemetry
        return binary

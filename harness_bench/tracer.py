"""Outside-in layer tracer: wraps each layer's public entry points.

The tracer never edits the program.  It replaces listed functions and
methods with timing wrappers, on their classes or modules, for the life
of one child process.  Module-level functions are also replaced in every
``repro`` module that imported them by name (``execute_bases`` lives in
four namespaces).  A name that does not resolve raises
:class:`EntryPointError`, so a renamed layer function fails the traced
run instead of silently dropping out of the split.

For every wrapped call the tracer accumulates, in memory, the call count,
total time and self time (total minus the time of wrapped callees).  Full
spans are kept only while :attr:`Tracer.recording` is set; the benchmark
sets it around build stages and the first measured steps.

Wrapping costs host time.  :meth:`Tracer.calibrate` measures the two
parts of that cost on a no-op: ``inner_s`` lands inside the callee's own
interval and ``outer_s`` lands in the caller's self time.  Reported self
times subtract both, so the layer split approximates an untraced run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

clock = time.perf_counter

#: Layer names, in report order.  ``other`` is the benchmark's own code
#: plus whatever unwrapped code it calls directly.
LAYERS = ("hw.memory", "hw.cache", "hw.tlb", "hw.cpu", "compiler", "click",
          "dpdk", "net", "core", "exec", "perf", "other")

#: ``module:qualname`` entry points per layer.  Element ``process`` and
#: ``route_signature`` methods are discovered from the element classes.
ENTRY_POINTS = {
    "hw.memory": [
        "repro.hw.memory:MemorySystem.access",
        "repro.hw.memory:MemorySystem.dispatch_access",
        "repro.hw.memory:MemorySystem.analytic_access",
        "repro.hw.memory:MemorySystem.prefetch",
        "repro.hw.memory:MemorySystem.dma_write",
        "repro.hw.memory:MemorySystem.dma_read",
    ],
    "hw.cache": [
        "repro.hw.cache:Cache.access",
        "repro.hw.cache:Cache.fill",
        "repro.hw.cache:Cache.invalidate",
        "repro.hw.cache:CacheHierarchy.lookup",
        "repro.hw.cache:CacheHierarchy.dma_write",
        "repro.hw.cache:CacheHierarchy.dma_read",
    ],
    "hw.tlb": [
        "repro.hw.tlb:Tlb.access",
    ],
    "hw.cpu": [
        "repro.hw.cpu:CpuCore.charge_compute",
        "repro.hw.cpu:CpuCore.charge_cycles",
        "repro.hw.cpu:CpuCore.charge_ns",
        "repro.hw.cpu:CpuCore.charge_branch_miss",
        "repro.hw.cpu:CpuCore.mem_access",
        "repro.hw.cpu:CpuCore.prefetch",
        "repro.hw.cpu:CpuCore.dispatch_access",
        "repro.hw.cpu:CpuCore.random_access",
    ],
    "compiler": [
        "repro.compiler.runtime:execute_bases",
        "repro.compiler.runtime:execute_interpreted",
        "repro.compiler.pipeline:PassManager.run",
        "repro.compiler.lower:lower",
        "repro.compiler.passes.reorder:reorder_metadata",
        "repro.compiler.codegen:compile_program",
    ],
    "click": [
        "repro.click.config.parser:parse_config",
        "repro.click.driver:RouterDriver.step",
    ],
    "dpdk": [
        "repro.dpdk.pmd:MlxPmd.rx_burst",
        "repro.dpdk.pmd:MlxPmd.tx_burst",
        "repro.dpdk.pmd:MlxPmd.drain_tx",
        "repro.dpdk.nic:Nic.deliver",
        "repro.dpdk.nic:Nic.transmit",
        "repro.dpdk.nic:Nic.reap_tx",
        "repro.dpdk.nic:MultiQueueNic.pull",
        "repro.dpdk.nic:MultiQueueNic.steer",
        "repro.dpdk.metadata:CopyingModel.on_rx",
        "repro.dpdk.metadata:CopyingModel.release",
        "repro.dpdk.metadata:XChangeModel.on_rx",
        "repro.dpdk.metadata:XChangeModel.release",
        "repro.dpdk.mempool:Mempool.try_get",
        "repro.dpdk.mempool:Mempool.put",
    ],
    "net": [
        "repro.net.trace:_PooledTrace.__init__",
        "repro.net.trace:SkewedTraceGenerator.__init__",
        "repro.net.trace:_PooledTrace.next_packet",
        "repro.net.trace:FiniteTrace.next_packet",
        "repro.net.trace:SkewedTraceGenerator.next_packet",
        "repro.net.trace:build_frame",
        "repro.net.rss:hash_frame",
        "repro.net.rss:IndirectionTable.queue_for",
        "repro.net.steering:ShardSteering.on_round",
    ],
    "core": [
        "repro.core.packetmill:PacketMill.build",
        "repro.core.packetmill:PacketMill.build_sharded",
        "repro.core.sharded:ShardedRuntime.step",
        "repro.core.binary:SpecializedBinary.warmup",
        "repro.core.binary:SpecializedBinary.run",
    ],
    "exec": [
        "repro.exec.cache:trace_from_spec",
        "repro.exec.cache:lookup_build",
        "repro.exec.cache:store_build",
        "repro.exec.cache:point_get",
        "repro.exec.cache:point_put",
        "repro.exec.sweep:run_points",
        "repro.exec.sweep:PointSpec.execute",
    ],
    "perf": [
        "repro.perf.runner:measure_throughput",
        "repro.perf.runner:measure_sharded",
        "repro.perf.loadlatency:LoadLatencySimulator.run",
    ],
}

#: Element hooks discovered on every concrete element class.
ELEMENT_METHODS = ("process", "route_signature")

#: Measured steps whose full spans are kept (besides the build's).
SPAN_STEPS = 20


class EntryPointError(LookupError):
    """A listed entry point does not resolve to a function."""


def _resolve(spec):
    """``(owner, attribute, function)`` for a ``module:qualname`` spec."""
    module_name, _, qualname = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise EntryPointError("%s: %s" % (spec, exc)) from None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise EntryPointError("%s: no %r" % (spec, part))
    attr = parts[-1]
    raw = (owner.__dict__.get(attr) if isinstance(owner, type)
           else getattr(owner, attr, None))
    if not callable(raw) or isinstance(raw, staticmethod):
        raise EntryPointError("%s: not a function defined there" % spec)
    return owner, attr, raw


def resolve_all():
    """Every ``(layer, name, owner, attribute, function)`` to wrap.

    Raises :class:`EntryPointError` for the first listed name that does
    not resolve, and when no element class defines ``process``.
    """
    out = []
    for layer, specs in ENTRY_POINTS.items():
        for spec in specs:
            owner, attr, fn = _resolve(spec)
            out.append((layer, spec.partition(":")[2], owner, attr, fn))
    importlib.import_module("repro.click.elements")
    from repro.click.element import Element

    seen = set()
    pending = list(Element.__subclasses__())
    found = 0
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for attr in ELEMENT_METHODS:
            fn = cls.__dict__.get(attr)
            if callable(fn):
                out.append(("click", "%s.%s" % (cls.__name__, attr),
                            cls, attr, fn))
                found += attr == "process"
    if not found:
        raise EntryPointError("no element class defines process()")
    return out


class Tracer:
    """Call counts, total and self time per wrapped entry point."""

    def __init__(self):
        #: name -> [calls, total_s, self_s, direct_child_calls]
        self.stats = {}
        self.layer_of = {}
        #: Frames of the active wrapped calls: [child_s, child_calls].
        self._stack = [[0.0, 0]]
        self._patches = []
        self.observers = {}
        #: Observer and span bookkeeping time, charged to no layer.
        self.hidden_s = 0.0
        self.recording = False
        self.step_id = None
        #: Kept spans: [id, name, layer, start, end, parent id, step id].
        self.spans = []
        self._open = []
        self.inner_s = 0.0
        self.outer_s = 0.0
        #: Factor :meth:`fit` applied to the no-op calibration.
        self.fit_scale = 1.0
        self.started = None
        self.wall_s = None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, layer, fn, observe=None):
        """A timing wrapper around ``fn``; ``observe(args, result)`` runs
        after the timed interval and is charged to no layer."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        self.layer_of[name] = layer
        stack = self._stack
        tracer = self

        def recorded(args, kwargs):
            # Slow path while spans are kept.  A span opens only where the
            # layer changes, and its bookkeeping is hidden like observers.
            before = clock()
            span = None
            if not (tracer._open and tracer._open[-1][2] == layer):
                span = [len(tracer.spans), name, layer, 0.0, None,
                        tracer._open[-1][0] if tracer._open else None,
                        tracer.step_id]
                tracer.spans.append(span)
                tracer._open.append(span)
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += t1 - t0 - frame[0]
                stat[3] += frame[1]
                if span is not None:
                    span[3], span[4] = t0, t1
                    tracer._open.pop()
                tail = clock()
                tracer.hidden_s += (t0 - before) + (tail - t1)
                stack[-1][0] += tail - before
                stack[-1][1] += 1
            if observe is not None:
                observe(args, result)
                observed = clock() - tail
                tracer.hidden_s += observed
                stack[-1][0] += observed
            return result

        def wrapper(*args, **kwargs):
            if tracer.recording:
                return recorded(args, kwargs)
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                stat[3] += frame[1]
            if observe is not None:
                observe(args, result)
                # Hide the observer from the caller's self time too.
                observed = clock() - t1
                tracer.hidden_s += observed
                parent[0] += observed
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every entry point of :func:`resolve_all`."""
        replaced = {}
        for layer, name, owner, attr, fn in resolve_all():
            observe = (self.observers.get(name)
                       or self.observers.get("*." + attr))
            wrapper = self.wrap(name, layer, fn, observe)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                replaced[id(fn)] = (fn, wrapper)
        # Module functions imported by name elsewhere: patch every alias.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    # -- the traced region -------------------------------------------------

    def start(self):
        self._stack[:] = [[0.0, 0]]
        self.started = clock()

    def stop(self):
        self.wall_s = clock() - self.started

    def exclude(self, seconds):
        """Hide ``seconds`` just spent by the caller from every layer."""
        self.hidden_s += seconds
        self._stack[-1][0] += seconds

    def calibrate(self, n=50_000, rounds=5):
        """Measure the wrapper's per-call cost on a two-argument no-op."""

        def noop(a, b):
            return None

        def direct():
            for _ in range(n):
                noop(1, 2)

        def empty():
            for _ in range(n):
                pass

        def best(fn):
            times = []
            for _ in range(rounds):
                t0 = clock()
                fn()
                times.append(clock() - t0)
            return min(times)

        call_s = (best(direct) - best(empty)) / n
        loop_s = best(empty) / n
        probe = Tracer()
        wrapped = probe.wrap("noop", "other", noop)

        def traced_loop():
            for _ in range(n):
                wrapped(1, 2)

        outer = probe.wrap("loop", "other", traced_loop)
        inner_samples, outer_samples = [], []
        for _ in range(rounds):
            probe.stats["noop"][:] = [0, 0.0, 0.0, 0]
            probe.stats["loop"][:] = [0, 0.0, 0.0, 0]
            outer()
            inner_samples.append(probe.stats["noop"][2] / n - call_s)
            outer_samples.append(probe.stats["loop"][2] / n - loop_s)
        self.inner_s = max(0.0, min(inner_samples))
        self.outer_s = max(0.0, min(outer_samples))

    def fit(self, untraced_wall_s, speed):
        """Scale the no-op calibration to this run's measured cost.

        A no-op underestimates the wrapper cost inside a real call tree
        (argument shapes, cache pressure).  Given the wall time of the same
        work untraced, the per-call cost is rescaled so the wrappers
        account for the whole difference, keeping the no-op's inner/outer
        split.  Without a usable difference the no-op values stand.

        The two runs are different processes, and the host's speed can
        differ between them.  ``untraced_wall_s`` is therefore scaled to
        the reference speed (``reference.Meter``), and ``speed`` is this
        run's scaled-over-raw factor: the untraced time is converted to
        this run's host speed before the difference is taken.  Returns
        the factor applied to the no-op cost (kept as :attr:`fit_scale`).
        """
        per_call = self.inner_s + self.outer_s
        extra = self.wall_s - self.hidden_s - untraced_wall_s / speed
        if extra > 0 and self.calls and per_call > 0:
            self.fit_scale = extra / (self.calls * per_call)
            self.inner_s *= self.fit_scale
            self.outer_s *= self.fit_scale
        return self.fit_scale

    # -- results -----------------------------------------------------------

    @property
    def calls(self):
        return sum(stat[0] for stat in self.stats.values())

    def calls_in(self, layer):
        return sum(stat[0] for name, stat in self.stats.items()
                   if self.layer_of[name] == layer)

    def total_s(self, name):
        """Total time of one entry point, wrapper cost of callees removed."""
        stat = self.stats[name]
        # Only direct wrapped callees are corrected for; the build stages
        # this serves call no wrapped grandchildren.
        per_call = self.inner_s + self.outer_s
        return max(0.0, stat[1] - stat[0] * self.inner_s
                   - stat[3] * per_call)

    def layer_self(self):
        """Overhead-corrected self time per layer (``other`` = the root)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (calls, _, self_s, child_calls) in self.stats.items():
            out[self.layer_of[name]] += (self_s - calls * self.inner_s
                                         - child_calls * self.outer_s)
        root_child_s, root_child_calls = self._stack[0]
        out["other"] += (self.wall_s - root_child_s
                         - root_child_calls * self.outer_s)
        return {layer: max(0.0, value) for layer, value in out.items()}

    def overhead_s(self):
        """Host time the tracer itself added to the traced region."""
        return (self.calls * (self.inner_s + self.outer_s)
                + self.hidden_s)

    def write_chrome_trace(self, path, metadata=None):
        """Write the kept spans as Chrome trace-event JSON."""
        origin = self.started
        events = []
        for span_id, name, layer, start, end, parent, step in self.spans:
            if end is None:
                continue
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent, "step": step},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata or {}}, handle,
                      separators=(",", ":"))


class LayerProbe:
    """Observers for the work counts and ratios read off wrapper arguments.

    Register with :meth:`attach` before :meth:`Tracer.install`.
    """

    def __init__(self):
        self.packets = 0            # simulated packets received, all steps
        self.single_line = 0        # MemorySystem.access calls on one line
        self.same_page = 0          # Tlb.access calls on that TLB's last page
        self._last_page = {}
        self.rx_bursts = 0
        self.rx_fill = 0.0
        self.route_misses = 0       # route_signature followed by process
        self._pending_route = None
        self.measured_packets = 0   # packets in SpecializedBinary.run results
        self.counters = {}          # their counter snapshots, summed

    def attach(self, tracer):
        tracer.observers.update({
            "RouterDriver.step": self._step,
            "MemorySystem.access": self._mem_access,
            "Tlb.access": self._tlb_access,
            "MlxPmd.rx_burst": self._rx_burst,
            "*.route_signature": self._route_signature,
            "*.process": self._process,
            "SpecializedBinary.run": self._measured_run,
        })

    def _step(self, args, received):
        self.packets += received

    def _mem_access(self, args, result):
        mem, _, addr, size = args[:4]
        line = mem.params.cache_line
        if addr // line == (addr + size - 1) // line:
            self.single_line += 1

    def _tlb_access(self, args, result):
        tlb, page = args
        key = id(tlb)
        if self._last_page.get(key) == page:
            self.same_page += 1
        self._last_page[key] = page

    def _rx_burst(self, args, batch):
        self.rx_bursts += 1
        self.rx_fill += len(batch) / args[1]

    def _route_signature(self, args, result):
        self._pending_route = args[0]

    def _process(self, args, result):
        if self._pending_route is args[0]:
            self.route_misses += 1
        self._pending_route = None

    def _measured_run(self, args, run):
        self.measured_packets += run.packets
        for name, value in run.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value


#: Every per-layer metric, ``(name, unit, better)``, in report order.
PER_LAYER = (
    [("%s.self_s" % layer, "s", "lower") for layer in LAYERS]
    + [("%s.self_share" % layer, "ratio", "lower") for layer in LAYERS]
    + [("%s.calls_per_pkt" % layer, "calls/pkt", "lower")
       for layer in ("hw.memory", "hw.cache", "hw.tlb", "hw.cpu",
                     "compiler", "dpdk", "net")]
    + [
        ("hw.memory.single_line_ratio", "ratio", "higher"),
        ("hw.memory.analytic_calls_per_pkt", "calls/pkt", "lower"),
        ("hw.cache.l1_hit_ratio", "ratio", "higher"),
        ("hw.cache.llc_miss_ratio", "ratio", "lower"),
        ("hw.cache.invalidations_per_pkt", "calls/pkt", "lower"),
        ("hw.cache.ddio_fills_per_pkt", "lines/pkt", "lower"),
        ("hw.tlb.same_page_ratio", "ratio", "higher"),
        ("hw.tlb.walks_per_pkt", "walks/pkt", "lower"),
        ("compiler.build.parse_s", "s", "lower"),
        ("compiler.build.passes_s", "s", "lower"),
        ("compiler.build.lower_s", "s", "lower"),
        ("compiler.build.reorder_s", "s", "lower"),
        ("click.process_calls_per_pkt", "calls/pkt", "lower"),
        ("click.route_memo_hit_ratio", "ratio", "higher"),
        ("click.step_ms_p99", "ms", "lower"),
        ("click.step_samples", "count", "higher"),
        ("dpdk.rx_burst_fill", "ratio", "higher"),
        ("dpdk.mq_drop_ratio", "ratio", "lower"),
        ("net.steering_moves", "count", "lower"),
        ("exec.build_hit_ratio", "ratio", "higher"),
        ("exec.trace_hit_ratio", "ratio", "higher"),
        ("exec.point_hit_ratio", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
)

#: Build-stage metric -> the entry point whose time it reports.
BUILD_STAGES = {
    "compiler.build.parse_s": "parse_config",
    "compiler.build.passes_s": "PassManager.run",
    "compiler.build.lower_s": "lower",
    "compiler.build.reorder_s": "reorder_metadata",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, probe, sim, cache_stats):
    """The traced run's per-layer metrics (all but the three the
    untraced run supplies: ``click.step_ms_p99``, ``click.step_samples``
    and ``trace.overhead``).  A ratio whose base is zero reads 0."""
    out = {}
    self_s = tracer.layer_self()
    total = sum(self_s.values())
    for layer in LAYERS:
        out["%s.self_s" % layer] = self_s[layer]
        out["%s.self_share" % layer] = _ratio(self_s[layer], total)
    pkts = probe.packets
    for layer in ("hw.memory", "hw.cache", "hw.tlb", "hw.cpu", "compiler",
                  "dpdk", "net"):
        out["%s.calls_per_pkt" % layer] = _ratio(tracer.calls_in(layer),
                                                 pkts)

    def calls(name):
        stat = tracer.stats.get(name)
        return stat[0] if stat else 0

    counters = probe.counters
    accesses = calls("MemorySystem.access")
    out["hw.memory.single_line_ratio"] = _ratio(probe.single_line, accesses)
    out["hw.memory.analytic_calls_per_pkt"] = _ratio(
        calls("MemorySystem.analytic_access"), pkts)
    served = (counters.get("l1_hits", 0) + counters.get("l2_hits", 0)
              + counters.get("llc_loads", 0))
    out["hw.cache.l1_hit_ratio"] = _ratio(counters.get("l1_hits", 0), served)
    out["hw.cache.llc_miss_ratio"] = _ratio(counters.get("llc_misses", 0),
                                            counters.get("llc_loads", 0))
    out["hw.cache.invalidations_per_pkt"] = _ratio(
        calls("Cache.invalidate"), pkts)
    out["hw.cache.ddio_fills_per_pkt"] = _ratio(
        counters.get("ddio_fills", 0), probe.measured_packets)
    out["hw.tlb.same_page_ratio"] = _ratio(probe.same_page,
                                           calls("Tlb.access"))
    out["hw.tlb.walks_per_pkt"] = _ratio(counters.get("dtlb_walks", 0),
                                         probe.measured_packets)
    for metric, name in BUILD_STAGES.items():
        out[metric] = tracer.total_s(name) if name in tracer.stats else 0.0
    process = sum(stat[0] for name, stat in tracer.stats.items()
                  if name.endswith(".process"))
    signatures = sum(stat[0] for name, stat in tracer.stats.items()
                     if name.endswith(".route_signature"))
    out["click.process_calls_per_pkt"] = _ratio(process, pkts)
    out["click.route_memo_hit_ratio"] = _ratio(
        signatures - probe.route_misses, signatures)
    out["dpdk.rx_burst_fill"] = _ratio(probe.rx_fill, probe.rx_bursts)
    out["dpdk.mq_drop_ratio"] = _ratio(sim.get("mq_dropped", 0),
                                       sim.get("mq_ingested", 0))
    out["net.steering_moves"] = float(sim.get("steering_moves", 0))
    for layer in ("build", "trace", "point"):
        hits = cache_stats.get("%s_hits" % layer, 0)
        out["exec.%s_hit_ratio" % layer] = _ratio(
            hits, hits + cache_stats.get("%s_misses" % layer, 0))
    return out

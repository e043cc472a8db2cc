"""The five benchmark workloads, run inside one child process each.

Every workload is closed-loop and batch: there is no offered rate, the
simulator runs as fast as the host allows.  Single- and sharded-binary
workloads pin 2.3 GHz and PacketMill ``seed=0``; the workload seed
reaches only the traces, through the ``seed + port + 7*core`` factories
the experiments use.  ``figs-smoke`` runs experiments with their own
fixed seeds.

:func:`run` returns host timings (step samples, setup and wall time) and
a SHA-256 digest of the simulated results, after the end-of-run audits
that fit the workload's model.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time

from repro.core import nfs
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.exec import cache as exec_cache
from repro.experiments import fig04, fig06, table1
from repro.experiments.common import Scale
from repro.faults.audit import assert_no_leak, assert_sharded_conserved
from repro.hw.params import MachineParams
from repro.net import checksum, trace
from repro.net.rss import RssConfig
from repro.net.steering import SteeringPolicy
from reference import REF_NOMINAL_S, Meter

clock = time.perf_counter

FREQ_GHZ = 2.3
DEFAULT_SEED = 101
#: Measured steps are cut into this many equal windows; the packet rate
#: reported is the median window, so one slow stretch cannot move it.
WINDOWS = 10
#: Cold builds timed before the measured run; ``setup_s`` is the median.
SETUP_BUILDS = 9

#: The smoke scale of ``benchmarks/run_bench.py``, pinned here so a later
#: change to that script cannot move this workload.
FIGS_SCALE = Scale(
    name="smoke",
    warmup_batches=40,
    batches=80,
    frequencies=(1.2, 2.0, 3.0),
    packet_sizes=(64, 512, 1472),
    latency_packets=20_000,
    footprints_mb=(1.0, 8.0, 16.0),
    work_numbers=(0, 20),
)
FIGS_EXPERIMENTS = (fig04, fig06, table1)

#: Workload -> kind: ``single`` (one binary), ``sharded``
#: (``build_sharded``) or ``figs`` (whole experiments).  Why each was
#: chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "fwd-64B": "single",
    "ids-campus": "single",
    "wp-16MB": "single",
    "nat-4core-zipf": "sharded",
    "figs-smoke": "figs",
}

#: Measured length per size.  ``warmup``/``batches`` are main-loop
#: iterations; ``packets`` bounds the finite NAT trace.
SIZES = {
    "full": {
        "fwd-64B": {"warmup": 200, "batches": 4000},
        "ids-campus": {"warmup": 200, "batches": 1500},
        "wp-16MB": {"warmup": 200, "batches": 3000},
        "nat-4core-zipf": {"packets": 60_000},
        "figs-smoke": {"scale": FIGS_SCALE},
    },
    "quarter": {
        "fwd-64B": {"warmup": 200, "batches": 1000},
        "ids-campus": {"warmup": 200, "batches": 375},
        "wp-16MB": {"warmup": 200, "batches": 750},
        "nat-4core-zipf": {"packets": 15_000},
        "figs-smoke": {"scale": Scale(
            name="smoke-quarter", warmup_batches=40, batches=20,
            frequencies=FIGS_SCALE.frequencies,
            packet_sizes=FIGS_SCALE.packet_sizes, latency_packets=5_000,
            footprints_mb=FIGS_SCALE.footprints_mb,
            work_numbers=FIGS_SCALE.work_numbers)},
    },
    "smoke": {
        "fwd-64B": {"warmup": 20, "batches": 200},
        "ids-campus": {"warmup": 20, "batches": 60},
        "wp-16MB": {"warmup": 20, "batches": 100},
        "nat-4core-zipf": {"packets": 3_000},
        "figs-smoke": {"scale": Scale(
            name="bench-smoke", warmup_batches=5, batches=10,
            frequencies=(1.2, 2.0, 3.0), packet_sizes=(64, 1472),
            latency_packets=2_000, footprints_mb=(1.0,),
            work_numbers=(0,))},
    },
}

#: Environment a workload pins in its child (all other REPRO_* removed).
PINNED_ENV = {"figs-smoke": {"REPRO_SWEEP": "serial"}}

# Kept before any tracer wraps build_frame (the wrapper has no cache_clear).
_clear_frames = trace.build_frame.cache_clear
_clear_sums = checksum._cached_sum.cache_clear


class WorkloadError(RuntimeError):
    """A workload's output failed one of its own checks."""


def reset_caches():
    """Drop every memoized artifact so the next build starts cold."""
    exec_cache.reset_caches()
    _clear_frames()
    _clear_sums()


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _params():
    return MachineParams().at_frequency(FREQ_GHZ)


def _trace_factory(kind, frame_len, seed):
    return lambda port, core: exec_cache.trace_generator(
        kind, frame_len, seed + port + 7 * core)


def _single_mill(name, seed):
    if name == "fwd-64B":
        config, options = nfs.forwarder(), BuildOptions.packetmill()
        factory = _trace_factory("fixed", 64, seed)
    elif name == "ids-campus":
        config, options = nfs.ids_router(), BuildOptions.vanilla()
        factory = _trace_factory("campus", None, seed)
    else:
        config = nfs.workpackage_forwarder(16.0, 4, 20)
        options = BuildOptions.packetmill()
        factory = _trace_factory("campus", None, seed)
    return PacketMill(config, options, params=_params(), trace=factory,
                      seed=0)


def _nat_mill(seed, packets):
    def factory(port, core):
        return trace.FiniteTrace(trace.SkewedTraceGenerator(
            n_flows=1_000_000, zipf_s=1.6, seed=seed + port + 7 * core),
            packets)

    # A staging backlog as deep as the trace: no seed drops a packet, so
    # every seed does the same host work.  Under the default cap, staging
    # drops ranged from 0 to 10% of the trace by seed, and the run's host
    # time followed them.
    return PacketMill(nfs.nat_router(), BuildOptions.packetmill(),
                      params=_params(), trace=factory, seed=0, n_cores=4,
                      rss=RssConfig(steering=SteeringPolicy(),
                                    backlog_cap=packets))


class Hooks:
    """What the traced run attaches: span recording and hidden time.

    The untraced run uses this inert base; the traced run passes an
    object with the same methods bound to a :class:`tracer.Tracer`.
    """

    def build(self, fn):
        return fn()

    def step(self, index, fn):
        return fn()

    def exclude(self, seconds):
        """``seconds`` of benchmark bookkeeping were just spent."""


def _timed_builds(meter, make, build, count):
    """``(raw seconds, epoch)`` of ``count`` cold builds."""
    times = []
    for _ in range(count):
        reset_caches()
        mill = make()
        epoch = meter.epoch()
        t0 = clock()
        build(mill)
        times.append((clock() - t0, epoch))
    return times


def _timed_steps(meter, hooks, step, more):
    """``(raw seconds, packets, epoch)`` per main-loop iteration, while
    ``more(index)`` holds."""
    samples = []
    index = 0
    while more(index):
        if index >= 1_000_000:
            raise WorkloadError("run did not reach EOF")
        epoch = meter.epoch()
        t0 = clock()
        received = hooks.step(index, step)
        samples.append((clock() - t0, received, epoch))
        index += 1
    return samples


def _run_single(name, seed, size, setup_builds, hooks, meter):
    setup = _timed_builds(meter, lambda: _single_mill(name, seed),
                          lambda mill: mill.build(), setup_builds)
    meter.epoch()
    start = clock()
    reset_caches()
    mill = _single_mill(name, seed)
    binary = hooks.build(mill.build)
    binary.warmup(size["warmup"])
    batches = size["batches"]
    samples = _timed_steps(meter, hooks, binary.driver.step,
                           lambda index: index < batches)
    run = binary.run(0)
    assert_no_leak(binary.driver)
    received = sum(s[1] for s in samples)
    if run.packets != received or run.packets == 0:
        raise WorkloadError("measured %d packets, steps received %d"
                            % (run.packets, received))
    if run.tx_packets + run.drops != run.packets:
        raise WorkloadError("packet books do not close: tx %d + drops %d "
                            "!= rx %d" % (run.tx_packets, run.drops,
                                          run.packets))
    payload = {
        "packets": run.packets, "tx_packets": run.tx_packets,
        "tx_bytes": run.tx_bytes, "drops": run.drops,
        "elapsed_ns": run.elapsed_ns, "instructions": run.instructions,
        "cycles": run.total_cycles, "counters": run.counters,
    }
    return {"setup": setup, "start": start,
            "samples": samples, "digest": digest(payload), "sim": {}}


def _run_sharded(seed, size, setup_builds, hooks, meter):
    packets = size["packets"]
    setup = _timed_builds(meter, lambda: _nat_mill(seed, packets),
                          lambda mill: mill.build_sharded(), setup_builds)
    meter.epoch()
    start = clock()
    reset_caches()
    runtime = hooks.build(_nat_mill(seed, packets).build_sharded)
    samples = _timed_steps(meter, hooks, runtime.step,
                           lambda index: not runtime.at_eof())
    for driver in runtime.drivers:
        driver.quiesce()
        assert_no_leak(driver)
    runtime.run_batches(0)  # epilogue only: stats sync, no iterations
    audit = assert_sharded_conserved(runtime)
    if audit["offered"] != packets:
        raise WorkloadError("offered %d of %d trace packets"
                            % (audit["offered"], packets))
    mq = runtime.ports[0]
    sim = {
        "mq_dropped": mq.dropped(), "mq_ingested": mq.ingested,
        "steering_moves": runtime.registry.get("steering.port0.moves"),
    }
    runtime.runs()  # the per-core measured runs the traced run counts
    payload = {"audit": audit, "elapsed_ns": runtime.elapsed_ns()}
    return {"setup": setup, "start": start,
            "samples": samples, "digest": digest(payload), "sim": sim}


def _run_figs(size, hooks, meter):
    from repro.click.driver import RouterDriver
    from repro.perf.loadlatency import LoadLatencySimulator

    builds = []
    samples = []
    original_build = PacketMill.build
    original_step = RouterDriver.step
    original_replay = LoadLatencySimulator.run

    def build(mill):
        epoch = meter.epoch()
        t0 = clock()
        try:
            return hooks.build(lambda: original_build(mill))
        finally:
            builds.append((clock() - t0, epoch))

    def step(driver):
        epoch = meter.epoch()
        t0 = clock()
        received = hooks.step(len(samples), lambda: original_step(driver))
        samples.append((clock() - t0, received, epoch))
        return received

    def replay(simulator, *args, **kwargs):
        meter.epoch()  # replays run long between iterations
        return original_replay(simulator, *args, **kwargs)

    PacketMill.build = build
    RouterDriver.step = step
    LoadLatencySimulator.run = replay
    try:
        meter.epoch()
        start = clock()
        payloads = []
        for module in FIGS_EXPERIMENTS:
            reset_caches()
            payloads.append(module.run(size["scale"]).to_json())
    finally:
        PacketMill.build = original_build
        RouterDriver.step = original_step
        LoadLatencySimulator.run = original_replay
    return {"setup": builds, "sum_setup": True, "start": start,
            "samples": samples,
            "digest": digest(payloads), "sim": {}}


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _windows(samples):
    """:data:`WINDOWS` equal runs of consecutive samples."""
    chunk = -(-len(samples) // WINDOWS)
    return [samples[lo:lo + chunk] for lo in range(0, len(samples), chunk)]


def _window_rates(samples, scale):
    """Packets per scaled second in each window."""
    return [sum(s[1] for s in window)
            / sum(s[0] * scale(s[2]) for s in window)
            for window in _windows(samples)]


def _window_p50s(samples, scale):
    """Median scaled iteration time in each window.  A sweep's iteration
    times are multimodal (one mode per configuration), and the median of
    a pooled multimodal sample jumps between modes; per-window medians
    do not."""
    return [statistics.median(s[0] * scale(s[2]) for s in window)
            for window in _windows(samples)]


def run(name, seed=DEFAULT_SEED, size="full", setup_builds=SETUP_BUILDS,
        hooks=None):
    """Run one workload; returns host timings and the simulated digest.

    Times are scaled to the reference speed (:class:`Meter`); ``raw``
    holds the same measurements unscaled.
    """
    hooks = hooks or Hooks()
    meter = Meter(hooks.exclude)
    kind = WORKLOADS[name]
    dims = SIZES[size][name]
    if kind == "single":
        out = _run_single(name, seed, dims, setup_builds, hooks, meter)
    elif kind == "sharded":
        out = _run_sharded(seed, dims, setup_builds, hooks, meter)
    else:
        out = _run_figs(dims, hooks, meter)
    end = clock()
    meter.reference()  # closes the last epoch
    start = out.pop("start")
    samples = out.pop("samples")
    if not samples:
        raise WorkloadError("no main-loop iterations ran")
    scale = meter.scale
    times = [s[0] * scale(s[2]) for s in samples]
    setup = [t * scale(epoch) for t, epoch in out.pop("setup")]
    if out.pop("sum_setup", False):
        setup = [sum(setup)]
    out.update({
        "workload": name, "seed": seed, "size": size,
        "wall_s": meter.interval(start, end),
        "setup_s": statistics.median(setup) if setup else None,
        "step_ms_p50": statistics.median(_window_p50s(samples, scale)) * 1e3,
        "step_ms_p99": percentile(times, 99) * 1e3,
        "step_samples": len(times),
        "sim_pkts_per_s": statistics.median(_window_rates(samples, scale)),
        "sim_packets": sum(s[1] for s in samples),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_speed": statistics.median(
            REF_NOMINAL_S / r for r in meter.refs),
        "raw": {
            "wall_s": meter.interval(start, end, scaled=False),
            "step_ms_p50": statistics.median(
                _window_p50s(samples, lambda epoch: 1.0)) * 1e3,
            "sim_pkts_per_s": statistics.median(
                _window_rates(samples, lambda epoch: 1.0)),
        },
    })
    return out

"""Deterministic parallel sweep engine.

Every experiment grid (variant x frequency x size x ...) is a list of
independent, picklable sweep points.  :class:`SweepEngine` fans the
points out over a :class:`~concurrent.futures.ProcessPoolExecutor` and
reassembles results in submission order, so an experiment's output is
byte-identical whether it ran serially or across N workers: each point
is a pure function of its spec (one fresh ``MemorySystem``/RNG universe
per point -- points never share simulator state, which is what makes the
fan-out sound).

A closed-loop run's simulated state does not depend on the core clock:
frequency only turns its core cycles and uncore time into elapsed time
(:func:`repro.hw.cpu.clock_time`) and sets the rate ceilings.  So the
engine groups the uncached single-core :class:`PointSpec` points that
differ only in ``freq_ghz``, builds and measures each group once at its
first member's frequency, and evaluates every member from that one run
(:meth:`MeasuredRun.at_frequency` and :func:`throughput_point`).  One
group is one task, in-process or on the pool.  Sharded points
(``n_cores > 1``) are one task each, and so are :class:`FrameworkPointSpec`
points, except that labels building the same Click forwarder (BESS and
FastClick-Light) share one.

Worker count comes from ``jobs=``, else ``REPRO_JOBS``, else the CPU
count; one job runs in-process.  ``REPRO_SWEEP=serial`` makes it one job
whatever the others say (both are read through :mod:`repro.exec.env`).
Pool infrastructure failures (sandboxed environments without working
``fork``, pickling regressions) degrade to the serial path rather than
failing the experiment.

Measured points are memoized in :mod:`repro.exec.cache` by spec, so
identical points across experiments (Table 1 re-measures Fig. 4's 3-GHz
column) are simulated once per process.  Each member of a group is
stored under its own spec.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.exec import cache, env
from repro.hw.params import MachineParams
from repro.net.rss import RssConfig
from repro.perf.runner import (
    measure_sharded,
    measure_throughput,
    throughput_point,
)


@dataclass(frozen=True)
class TraceKey:
    """Picklable recipe for a trace factory (resolved in the worker).

    ``per_port=True`` reproduces the standard factories' decorrelation
    (``seed + port + 7*core``); ``per_port=False`` gives every queue the
    same seed (the ablations' fixed-trace setup).

    ``kind="skewed"`` builds a
    :class:`~repro.net.trace.SkewedTraceGenerator` (``n_flows`` flows,
    Zipf exponent ``skew``, or uniform when ``skew`` is ``None``).  Its
    flow population is lazy -- pure in (seed, rank) -- so it skips the
    snapshot cache entirely; construction is already cheap.
    """

    kind: str  # "campus" | "fixed" | "skewed"
    frame_len: Optional[int] = None
    seed: int = 101
    per_port: bool = True
    n_flows: Optional[int] = None
    skew: Optional[float] = None
    shift_at: Optional[int] = None
    shift_offset: Optional[int] = None

    def factory(self):
        kind, frame_len, seed = self.kind, self.frame_len, self.seed
        if kind == "skewed":
            from repro.net.trace import SkewedTraceGenerator

            n_flows, skew = self.n_flows or 1_000_000, self.skew
            per_port = self.per_port
            shift_at, shift_offset = self.shift_at, self.shift_offset

            def skewed(port, core):
                kwargs = {"n_flows": n_flows, "zipf_s": skew,
                          "seed": seed + port + 7 * core if per_port else seed,
                          "shift_at": shift_at, "shift_offset": shift_offset}
                if frame_len is not None:
                    kwargs["frame_len"] = frame_len
                return SkewedTraceGenerator(**kwargs)

            return skewed
        if self.per_port:
            return lambda port, core: cache.trace_generator(
                kind, frame_len, seed + port + 7 * core
            )
        return lambda port, core: cache.trace_generator(kind, frame_len, seed)


#: The default trace of a :class:`PointSpec`: campus mix, seed 101.
CAMPUS_TRACE = TraceKey("campus")


@dataclass(frozen=True)
class PointSpec:
    """One build-and-measure sweep point, picklable and hashable.

    ``execute`` builds one binary with :meth:`mill` and measures it with
    :func:`measure_throughput`: machine parameters (:meth:`params`) are
    the defaults plus ``params_overrides`` at ``freq_ghz``, and the trace
    comes from ``trace`` (campus by default).  Multi-core points
    (``n_cores > 1``) build the real RSS-sharded runtime -- one arrival
    stream per port, Toeplitz-steered across the replicas -- and measure
    it with :func:`measure_sharded`.
    """

    config: str
    options: BuildOptions
    freq_ghz: float
    batches: int
    warmup_batches: int
    trace: Optional[TraceKey] = None
    seed: int = 0
    n_cores: int = 1
    params_overrides: Tuple[Tuple[str, object], ...] = ()
    rss: Optional[RssConfig] = None

    def params(self) -> MachineParams:
        """The machine this point measures: defaults plus overrides."""
        return MachineParams(**dict(self.params_overrides)).at_frequency(
            self.freq_ghz
        )

    def mill(self) -> PacketMill:
        """The unbuilt :class:`PacketMill` for this point."""
        return PacketMill(
            self.config,
            self.options,
            params=self.params(),
            trace=(self.trace or CAMPUS_TRACE).factory(),
            seed=self.seed,
            n_cores=self.n_cores,
            rss=self.rss,
        )

    def execute(self):
        mill = self.mill()
        if self.n_cores == 1:
            return measure_throughput(
                mill.build(),
                batches=self.batches,
                warmup_batches=self.warmup_batches,
            )
        return measure_sharded(
            mill.build_sharded(),
            batches=self.batches,
            warmup_batches=self.warmup_batches,
        )


@dataclass(frozen=True)
class FrameworkPointSpec:
    """A Fig. 11-style point: a named framework builder instead of a
    Click config through PacketMill."""

    framework: str
    frame_len: int
    freq_ghz: float
    batches: int
    warmup_batches: int
    seed: int = 3

    def execute(self):
        from repro.frameworks import FRAMEWORK_BUILDERS

        params = MachineParams().at_frequency(self.freq_ghz)
        binary = FRAMEWORK_BUILDERS[self.framework](
            params, self.frame_len, seed=self.seed
        )
        return measure_throughput(
            binary, batches=self.batches, warmup_batches=self.warmup_batches
        )


def _by_frequency(spec) -> bool:
    """Whether ``spec`` joins its frequency sweep's group."""
    return isinstance(spec, PointSpec) and spec.n_cores == 1


def _group_key(spec):
    """Specs with equal keys share one build and one measured run.

    A single-core point is keyed without its frequency.  A Click-based
    framework point is keyed by what it builds, its
    :data:`~repro.frameworks.CLICK_FRAMEWORKS` row ``(options, burst)``,
    so labels with the same row (BESS and FastClick-Light) run once.
    """
    if _by_frequency(spec):
        return replace(spec, freq_ghz=None)
    if isinstance(spec, FrameworkPointSpec):
        from repro.frameworks import CLICK_FRAMEWORKS

        build = CLICK_FRAMEWORKS.get(spec.framework)
        if build is not None:
            return (build, spec.frame_len, spec.freq_ghz, spec.batches,
                    spec.warmup_batches, spec.seed)
    return spec


def run_group(specs: Sequence) -> List:
    """The points of ``specs``, which share a :func:`_group_key`, from one
    build and one run (module-level, so process pools can map it).

    A single-core group is measured at its first member's frequency and
    every member is evaluated from that run.  Any other group runs its
    first spec once and every member gets that point.
    """
    first = specs[0]
    if not _by_frequency(first):
        return [first.execute()] * len(specs)
    binary = first.mill().build()
    run = binary.measure(batches=first.batches,
                         warmup_batches=first.warmup_batches)
    n_ports = len(binary.pmds)
    return [throughput_point(run.at_frequency(spec.freq_ghz), spec.params(),
                             n_ports)
            for spec in specs]


def default_jobs() -> int:
    return env.jobs() or os.cpu_count() or 1


class SweepEngine:
    """Fan sweep points out over worker processes, results in order."""

    def __init__(self, jobs: Optional[int] = None):
        if env.sweep_mode() == "serial":
            jobs = 1
        self.jobs = jobs if jobs is not None else default_jobs()

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def run(self, specs: Sequence) -> List:
        """Every spec's point, in submission order: from the point cache,
        else from its group's one run."""
        specs = list(specs)
        results: List = [None] * len(specs)
        groups: Dict[object, List[int]] = {}
        for i, spec in enumerate(specs):
            cached = cache.point_get(spec)
            if cached is not None:
                results[i] = cached
            else:
                groups.setdefault(_group_key(spec), []).append(i)
        tasks = [[specs[i] for i in group] for group in groups.values()]
        done: List = [None] * len(tasks)
        if self.parallel and len(tasks) > 1:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(tasks))
                ) as pool:
                    for t, points in enumerate(pool.map(run_group, tasks)):
                        done[t] = points
            except (OSError, ImportError, pickle.PicklingError,
                    BrokenProcessPool):
                # The pool itself failed (no fork, no semaphores, a spec
                # that would not pickle): degrade to in-process execution
                # -- same results, just slower.
                pass
        for group, task, points in zip(groups.values(), tasks, done):
            for i, point in zip(group, points or run_group(task)):
                results[i] = point
                cache.point_put(specs[i], point)
        return results


def run_points(specs: Sequence, jobs: Optional[int] = None) -> List:
    """One-shot convenience: ``SweepEngine(jobs).run(specs)``."""
    return SweepEngine(jobs=jobs).run(specs)

"""Host time scaled to a reference speed.

Shared hosts change speed by up to 2x within seconds as other tenants
load them, and repetition does not average that out.  :class:`Meter`
times a fixed reference kernel between measured intervals and scales the
host time between two kernel runs by :data:`REF_NOMINAL_S` over the mean
of their two times.

The kernel is a frozen miniature of the simulator's hot path -- a core
charging instructions and issuing loads through a TLB and a three-level
set-associative LRU hierarchy with counter handles -- written here so no
change to the program can change it.  It slows down under contention
the way the simulator does, which a simpler loop does not: on a loaded
host a dict-only kernel left 6% run-to-run spread where this one left
3%.  Changing the kernel rescales every host time the benchmark reports.
"""

from __future__ import annotations

import time
from collections import OrderedDict

clock = time.perf_counter

#: Nominal time of one kernel run (:data:`ITERATIONS` iterations); every
#: scaled time reads as if the host ran the kernel this fast.
REF_NOMINAL_S = 0.008
#: Kernel iterations per run.
ITERATIONS = 800
#: Longest stretch of measured host time between two kernel runs.
EPOCH_S = 0.25


class _Counter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class _Level:
    __slots__ = ("sets", "n_sets", "assoc")

    def __init__(self, n_sets, assoc):
        self.sets = [{} for _ in range(n_sets)]
        self.n_sets = n_sets
        self.assoc = assoc

    def access(self, line):
        cset = self.sets[line % self.n_sets]
        flag = cset.pop(line, None)
        if flag is None:
            return False
        cset[line] = flag
        return True

    def fill(self, line):
        cset = self.sets[line % self.n_sets]
        if line in cset:
            return
        if len(cset) >= self.assoc:
            del cset[next(iter(cset))]
        cset[line] = False


class _Tlb(OrderedDict):
    def __init__(self, capacity):
        super().__init__()
        self.capacity = capacity

    def access(self, page):
        if page in self:
            self.move_to_end(page)
            return 0.0
        self[page] = True
        if len(self) > self.capacity:
            self.popitem(last=False)
        return 20.0


class _Memory:
    def __init__(self):
        self.l1 = _Level(64, 8)
        self.l2 = _Level(1024, 8)
        self.llc = _Level(1024, 16)
        self.tlb = _Tlb(64)
        self.hits = [_Counter() for _ in range(4)]

    def lookup(self, line):
        if self.l1.access(line):
            return 0
        if self.l2.access(line):
            self.l1.fill(line)
            return 1
        if self.llc.access(line):
            self.l2.fill(line)
            self.l1.fill(line)
            return 2
        self.llc.fill(line)
        self.l2.fill(line)
        self.l1.fill(line)
        return 3

    def access(self, addr, size):
        hits = self.hits
        cycles = 0.0
        ns = 0.0
        page = -1
        for line in range(addr >> 6, ((addr + size - 1) >> 6) + 1):
            if line >> 6 != page:
                page = line >> 6
                ns += self.tlb.access(page)
            level = self.lookup(line)
            hits[level].value += 1
            if level < 2:
                cycles += 4.0 if level == 0 else 14.0
            else:
                ns += 20.0 if level == 2 else 80.0
        return cycles, ns


class ReferenceKernel:
    """The fixed workload :class:`Meter` times; state persists across
    runs so each run sees warm caches, as the simulator's steps do."""

    def __init__(self):
        self.memory = _Memory()
        self.instructions = 0.0
        self.cycles = 0.0
        self.ns = 0.0
        self._x = 12345
        self._i = 0
        self.run(4 * ITERATIONS)  # reach steady state

    def charge(self, instructions):
        self.instructions += instructions
        self.cycles += instructions / 4.0

    def mem_access(self, addr, size):
        cycles, ns = self.memory.access(addr, size)
        self.instructions += 1.0
        self.cycles += cycles + 0.25
        self.ns += ns

    def run(self, iterations=ITERATIONS):
        x = self._x
        for i in range(self._i, self._i + iterations):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            base = (i % 4096) << 11
            self.charge(30.0)
            self.mem_access(base, 64)
            self.mem_access(base + 64, 8)
            self.mem_access(x % (1 << 22), 16)
            self.charge(12.0)
            self.mem_access((x >> 7) % (1 << 20), 8)
        self._x = x
        self._i += iterations


class Meter:
    """Host-time stopwatch scaled to the reference speed.

    :meth:`epoch` runs the kernel when one is due and names the stretch
    of host time a measurement falls in; :meth:`scale` turns raw seconds
    of that stretch into scaled seconds.  Kernel time is excluded from
    every measurement.  ``on_reference`` is told each kernel run's time
    (the tracer hides it from the layers).
    """

    def __init__(self, on_reference=None):
        t0 = clock()
        self.kernel = ReferenceKernel()
        if on_reference is not None:  # the warm-up is kernel time too
            on_reference(clock() - t0)
        self.refs = []
        self._spans = []  # (start, end) of each kernel run
        self._due = 0.0
        self._on_reference = on_reference

    def reference(self):
        t0 = clock()
        self.kernel.run()
        t1 = clock()
        self.refs.append(t1 - t0)
        self._spans.append((t0, t1))
        self._due = t1 + EPOCH_S
        if self._on_reference is not None:
            self._on_reference(t1 - t0)

    def epoch(self):
        """The current epoch, after a kernel run if one is due."""
        if clock() >= self._due:
            self.reference()
        return len(self.refs) - 1

    def scale(self, epoch):
        """Factor that turns raw seconds of ``epoch`` into scaled ones."""
        pair = self.refs[epoch:epoch + 2]
        return REF_NOMINAL_S / (sum(pair) / len(pair))

    def interval(self, start, end, scaled=True):
        """Host time in ``[start, end]`` outside kernel runs, each stretch
        scaled by the epoch it falls in (or raw)."""
        total = 0.0
        spans = self._spans
        for epoch, (_, free_from) in enumerate(spans):
            free_to = spans[epoch + 1][0] if epoch + 1 < len(spans) else end
            overlap = min(end, free_to) - max(start, free_from)
            if overlap > 0:
                total += overlap * (self.scale(epoch) if scaled else 1.0)
        return total

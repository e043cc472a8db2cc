"""The fused hardware-model walk against a frozen copy of the per-level one.

Both models run the same interleaved operation sequences.  After every
operation they must agree on the return value, every counter, the
contents of every cache set in LRU order, the DDIO counts and the order
of both TLB levels.  Small geometries make evictions, DDIO quota hits,
TLB spills and page walks frequent; addresses straddle lines, pages and
the hugepage-backed DMA region's start.

A burst ``dma_write`` call is held to one reference ``dma_write`` per
range, and a batched ``access_ops`` call to one reference ``access`` per
row, added to the same running totals.  Its rows share a few bases, so
the same-line shortcut (a row on the line the core's previous access
ended on) is taken often; the totals start at non-dyadic floats, so any
regrouping of the float additions shows.
"""

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.layout import DMA_BASE
from repro.hw.memory import MemorySystem
from repro.hw.params import MachineParams

from tests.hw import reference_model

LINE = 64
PAGE = 256


def small_params():
    return MachineParams(
        cache_line=LINE,
        l1_size=2 * 2 * LINE,       # 2 sets x 2 ways
        l1_assoc=2,
        l2_size=4 * 2 * LINE,       # 4 sets x 2 ways
        l2_assoc=2,
        llc_size=4 * 4 * LINE,      # 4 sets x 4 ways
        llc_assoc=4,
        ddio_ways=2,
        page_size=PAGE,
        dtlb_entries=2,
        stlb_entries=4,
        # Non-dyadic costs, so a sum taken in another order rounds
        # differently and shows.
        l1_hit_cycles=1.1,
        l2_hit_cycles=10.3,
        llc_hit_ns=18.7,
        dram_ns=85.3,
        mlp=3.0,
        prefetch_mlp=7.0,
        tlb_walk_ns=25.1,
    )


#: Region starts the generated addresses are offsets from: low memory, a
#: page boundary, the last lines before ``DMA_BASE``, ``DMA_BASE`` itself
#: and a 2-MB hugepage boundary inside the DMA region.
BASES = (0, 3 * PAGE - 40, DMA_BASE - 2 * LINE, DMA_BASE,
         DMA_BASE + 2 * 1024 * 1024 - 3 * LINE)

addresses = st.builds(lambda base, offset: base + offset,
                      st.sampled_from(BASES), st.integers(0, 6 * PAGE))
sizes = st.integers(1, 3 * LINE)

#: One program's memory ops: 1-6 ``(target, offset, size, write)`` rows
#: over 2-3 bases.  Sizes include 0, which at a line-aligned address
#: touches no line at all.
op_bases = st.lists(addresses, min_size=2, max_size=3)
op_rows = st.lists(
    st.tuples(st.integers(0, 2),
              st.one_of(st.sampled_from((0, 8, LINE, 2 * LINE)),
                        st.integers(0, 2 * LINE)),
              st.one_of(st.sampled_from((0, 8, LINE)),
                        st.integers(0, 3 * LINE)),
              st.booleans()),
    min_size=1, max_size=6,
)
totals = st.sampled_from((0.0, 0.1, 0.3, 7.7, 1e6 + 0.1))


def access_ops_op(core):
    def build(bases, rows, cycles, ns):
        rows = tuple((target % len(bases), offset, size, write)
                     for target, offset, size, write in rows)
        return ("access_ops", core, rows, tuple(bases), cycles, ns)
    return st.builds(build, op_bases, op_rows, totals, totals)


def operations(n_cores):
    core = st.integers(0, n_cores - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("access"), core, addresses, sizes),
            st.tuples(st.just("access"), core, addresses, sizes),
            core.flatmap(access_ops_op),
            core.flatmap(access_ops_op),
            # A DMA write over the line a core's last access ended on.
            st.tuples(st.just("dma_write_memo"), core, sizes),
            st.tuples(st.just("prefetch"), core, addresses, sizes),
            st.tuples(st.just("lookup"), core, addresses),
            # One RX burst's DMA ranges, in one call.
            st.tuples(st.just("dma_write"),
                      st.lists(st.tuples(addresses, sizes), min_size=1,
                               max_size=4)),
            st.tuples(st.just("dma_read"), addresses, sizes),
            st.tuples(st.just("flush")),
            st.tuples(st.just("reset_counters")),
            # A registry-wide reset zeroes the handles but not the TLB's
            # own walk count, which the next access mirrors back.
            st.tuples(st.just("reset_handles"), core),
        ),
        max_size=120,
    )


def resolve(mem, op):
    """Fix an operation that depends on ``mem``'s state to plain values."""
    if op[0] == "dma_write_memo":
        line_addr = mem.hierarchy.last_line[op[1]]
        return ("dma_write", [((line_addr or 0) * LINE, op[2])])
    return op


def apply(mem, op):
    kind = op[0]
    if kind == "access":
        return mem.access(op[1], op[2], op[3])
    if kind == "access_ops":
        _, core, rows, bases, cycles, ns = op
        if isinstance(mem, reference_model.MemorySystem):
            for target, offset, size, write in rows:
                op_cycles, op_ns = mem.access(core, bases[target] + offset,
                                              size, write)
                cycles += op_cycles
                ns += op_ns
            return cycles, ns
        return mem.access_ops(core, rows, bases, cycles, ns)
    if kind == "prefetch":
        return mem.prefetch(op[1], op[2], op[3])
    if kind == "lookup":
        return mem.hierarchy.lookup(op[1], op[2] // LINE)
    if kind == "dma_write":
        if isinstance(mem, reference_model.MemorySystem):
            for addr, size in op[1]:
                mem.dma_write(addr, size)
            return None
        return mem.dma_write(op[1])
    if kind == "dma_read":
        first_line, last_line = op[1] // LINE, (op[1] + op[2] - 1) // LINE
        if isinstance(mem, reference_model.MemorySystem):
            hits = sum(mem.hierarchy.dma_read(line)
                       for line in range(first_line, last_line + 1))
        else:
            hits = mem.hierarchy.dma_read(first_line, last_line)
        mem.dma_read(op[1], op[2])
        return hits
    if kind == "flush":
        return mem.flush()
    if kind == "reset_counters":
        return mem.reset_counters()
    assert kind == "reset_handles"
    return mem.counters[op[1]].reset()


def state(mem):
    hierarchy = mem.hierarchy
    caches = hierarchy.l1 + hierarchy.l2 + [hierarchy.llc]
    return (
        [counters.snapshot() for counters in mem.counters],
        [[list(cset.items()) for cset in cache._sets] for cache in caches],
        [list(cache._ddio_count) for cache in caches],
        [(list(tlb._dtlb), list(tlb._stlb), tlb.walks) for tlb in mem.tlbs],
    )


def run_both(ops, n_cores, params=None):
    params = params or small_params()
    fused = MemorySystem(params, n_cores)
    reference = reference_model.MemorySystem(params, n_cores)
    for op in ops:
        op = resolve(fused, op)
        assert apply(fused, op) == apply(reference, op), op
        assert state(fused) == state(reference), op
    return fused, reference


@settings(max_examples=150, deadline=None)
@given(ops=operations(1))
def test_one_core_matches_the_reference(ops):
    run_both(ops, 1)


@settings(max_examples=150, deadline=None)
@given(ops=operations(4))
def test_four_cores_match_the_reference(ops):
    run_both(ops, 4)


@settings(max_examples=60, deadline=None)
@given(warmup=operations(4), after=operations(4))
def test_a_pickled_model_continues_like_the_original(warmup, after):
    # End the warm-up on an access, so the pickled model's same-line
    # memo is live.
    fused, _ = run_both(warmup + [("access", 1, BASES[3], 8)], 4)
    assert fused.hierarchy.last_line[1] is not None
    clone = pickle.loads(pickle.dumps(fused))
    assert state(clone) == state(fused)
    assert clone.hierarchy.last_line == fused.hierarchy.last_line
    for op in after:
        op = resolve(fused, op)
        assert apply(clone, op) == apply(fused, op), op
        assert state(clone) == state(fused), op


def test_shipped_geometry_matches_the_reference_on_a_long_mixed_run():
    """Default machine parameters, four cores, packet-like traffic: DMA
    lines into rings, demand reads of the same lines and private state,
    and element-like programs whose field reads share a few lines."""
    rng = random.Random(12)
    ops = []
    for _ in range(6000):
        core = rng.randrange(4)
        ring = DMA_BASE + rng.randrange(4096) * 2048
        pick = rng.random()
        if pick < 0.2:
            cqe = DMA_BASE + (16 << 20) + 64 * rng.randrange(1024)
            ops.append(("dma_write", [(ring, rng.choice((64, 128, 1500))),
                                      (cqe, 64)]))
        elif pick < 0.3:
            ops.append(("prefetch", core, ring, 128))
        elif pick < 0.35:
            ops.append(("dma_read", ring, 64))
        elif pick < 0.55:
            ops.append(("access", core, ring + rng.randrange(256),
                        rng.choice((2, 8, 64))))
        elif pick < 0.7:
            rows = tuple((rng.randrange(2), rng.randrange(192),
                          rng.choice((1, 2, 4, 8, 64)), rng.random() < 0.3)
                         for _ in range(rng.randint(1, 20)))
            state_base = 0x10000 * (core + 1) + rng.randrange(64) * 128
            ops.append(("access_ops", core, rows, (ring, state_base),
                        rng.random() * 1e4, rng.random() * 1e4))
        else:
            ops.append(("access", core, 0x10000 * (core + 1)
                        + rng.randrange(1 << 18), rng.choice((4, 8, 16))))
    fused = MemorySystem(MachineParams(), 4)
    reference = reference_model.MemorySystem(MachineParams(), 4)
    for op in ops:
        assert apply(fused, op) == apply(reference, op), op
    assert state(fused) == state(reference)

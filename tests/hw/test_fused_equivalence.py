"""The fused hardware-model walk against a frozen copy of the per-level one.

Both models run the same interleaved operation sequences.  After every
operation they must agree on the return value, every counter, the
contents of every cache set in LRU order, the DDIO counts and the order
of both TLB levels.  Small geometries make evictions, DDIO quota hits,
TLB spills and page walks frequent; addresses straddle lines, pages and
the hugepage-backed DMA region's start.
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
    )


#: Region starts the generated addresses are offsets from: low memory, a
#: page boundary, the last lines before ``DMA_BASE``, ``DMA_BASE`` itself
#: and a 2-MB hugepage boundary inside the DMA region.
BASES = (0, 3 * PAGE - 40, DMA_BASE - 2 * LINE, DMA_BASE,
         DMA_BASE + 2 * 1024 * 1024 - 3 * LINE)

addresses = st.builds(lambda base, offset: base + offset,
                      st.sampled_from(BASES), st.integers(0, 6 * PAGE))
sizes = st.integers(1, 3 * LINE)


def operations(n_cores):
    core = st.integers(0, n_cores - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("access"), core, addresses, sizes),
            st.tuples(st.just("access"), core, addresses, sizes),
            st.tuples(st.just("prefetch"), core, addresses, sizes),
            st.tuples(st.just("lookup"), core, addresses),
            st.tuples(st.just("dma_write"), addresses, sizes),
            st.tuples(st.just("dma_read"), addresses, sizes),
            st.tuples(st.just("flush")),
            st.tuples(st.just("reset_counters")),
            # A registry-wide reset zeroes the handles but not the TLB's
            # own walk count, which the next access mirrors back.
            st.tuples(st.just("reset_handles"), core),
        ),
        max_size=120,
    )


def apply(mem, op):
    kind = op[0]
    if kind == "access":
        return mem.access(op[1], op[2], op[3])
    if kind == "prefetch":
        return mem.prefetch(op[1], op[2], op[3])
    if kind == "lookup":
        return mem.hierarchy.lookup(op[1], op[2] // LINE)
    if kind == "dma_write":
        return mem.dma_write(op[1], op[2])
    if kind == "dma_read":
        hits = [mem.hierarchy.dma_read(line)
                for line in range(op[1] // LINE, (op[1] + op[2] - 1) // LINE + 1)]
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
    fused, _ = run_both(warmup, 4)
    clone = pickle.loads(pickle.dumps(fused))
    assert state(clone) == state(fused)
    for op in after:
        assert apply(clone, op) == apply(fused, op), op
        assert state(clone) == state(fused), op


def test_shipped_geometry_matches_the_reference_on_a_long_mixed_run():
    """Default machine parameters, four cores, packet-like traffic: DMA
    lines into rings, demand reads of the same lines and private state."""
    rng = random.Random(12)
    ops = []
    for _ in range(6000):
        core = rng.randrange(4)
        ring = DMA_BASE + rng.randrange(4096) * 2048
        pick = rng.random()
        if pick < 0.2:
            ops.append(("dma_write", ring, rng.choice((64, 128, 1500))))
        elif pick < 0.3:
            ops.append(("prefetch", core, ring, 128))
        elif pick < 0.35:
            ops.append(("dma_read", ring, 64))
        elif pick < 0.7:
            ops.append(("access", core, ring + rng.randrange(256),
                        rng.choice((2, 8, 64))))
        else:
            ops.append(("access", core, 0x10000 * (core + 1)
                        + rng.randrange(1 << 18), rng.choice((4, 8, 16))))
    fused = MemorySystem(MachineParams(), 4)
    reference = reference_model.MemorySystem(MachineParams(), 4)
    for op in ops:
        assert apply(fused, op) == apply(reference, op), op
    assert state(fused) == state(reference)

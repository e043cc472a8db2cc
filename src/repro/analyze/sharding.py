"""Sharding-safety lints: is this graph safe to replicate per core?

The PR 8 multicore runtime replicates the whole graph per core and RSS
hash-partitions flows across replicas; the PR 9 steering layer moves
hash buckets between cores, and its optional *dispatch spray* sends a
share of packets round-robin regardless of their flow hash.  Whether
any of that is semantically safe depends on the state each element
keeps -- knowledge the IR already carries.  These lints classify it
statically:

- ``STATELESS``: no mutable state at all (a rewrite, a classifier);
- ``READ_ONLY``: only reads shared structures (a FIB trie, a static
  working set) -- replicating is free;
- ``FLOW_LOCAL``: mutable state keyed by flow bytes (a NAT's conntrack
  table: reads the 5-tuple, writes a keyed table entry) -- correct
  under RSS *because* RSS keeps a flow on one core, broken by anything
  that doesn't;
- ``CROSS_FLOW``: mutable state not keyed by flow (a counter, a queue)
  -- replicas silently partition the aggregate.

Rules (all keyed on the :class:`~repro.core.profile.RunProfile` the
analyzer now receives):

- ``shard-stateful-dispatch`` (ERROR): a FLOW_LOCAL element under a
  steering policy with dispatch spray enabled.  Round-robin breaks flow
  affinity: two packets of one flow land on different replicas and see
  different conntrack tables.  This is the hazard the ROADMAP's
  "stateful flow migration" item names.
- ``shard-stateful-migration`` (WARNING): a FLOW_LOCAL element under a
  steering policy without dispatch.  RETA moves re-home whole buckets;
  in-flight flows migrate between replicas with no state handoff model.
- ``shard-shared-state`` (WARNING): a CROSS_FLOW element with
  ``n_cores > 1``.  Each replica keeps its own copy; aggregate
  semantics (a global counter, one queue) silently become per-core.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analyze.findings import Finding
from repro.analyze.lints import _location
from repro.click.graph import ProcessingGraph
from repro.compiler.ir import DataAccess, Program, RandomAccess, StateAccess

STATELESS = "stateless"
READ_ONLY = "read-only"
FLOW_LOCAL = "flow-local"
CROSS_FLOW = "cross-flow"

# Frame-relative byte spans of the canonical IPv4 flow key: protocol,
# source/destination address, L4 ports.  An element that reads these and
# writes a keyed table is conntrack-shaped.
FLOW_KEY_SPANS = ((23, 24), (26, 34), (34, 38))


def _reads_flow_key(program: Program) -> bool:
    for op in program:
        if isinstance(op, DataAccess) and not op.write:
            for lo, hi in FLOW_KEY_SPANS:
                if op.offset < hi and op.offset + op.size > lo:
                    return True
    return False


def classify_element_state(program: Program) -> str:
    """One of the four state classes, from the element's IR alone."""
    has_table_write = any(
        isinstance(op, RandomAccess) and op.write for op in program)
    has_state_write = any(
        isinstance(op, StateAccess) and op.write for op in program)
    has_read_only = any(
        isinstance(op, (RandomAccess, StateAccess)) and not op.write
        for op in program)
    if has_table_write and _reads_flow_key(program):
        return FLOW_LOCAL
    if has_table_write or has_state_write:
        return CROSS_FLOW
    if has_read_only:
        return READ_ONLY
    return STATELESS


def lint_sharding(
    graph: ProcessingGraph,
    n_cores: int = 1,
    rss=None,
) -> List[Finding]:
    """Findings for running ``graph`` replicated over ``n_cores`` with
    the given :class:`~repro.net.rss.RssConfig` (may be ``None``)."""
    if n_cores <= 1:
        return []
    steering = getattr(rss, "steering", None)
    dispatch = bool(getattr(steering, "dispatch", False))
    out: List[Finding] = []
    for element in graph.all_elements():
        cls = classify_element_state(element.ir_program())
        if cls == FLOW_LOCAL:
            if steering is not None and dispatch:
                out.append(Finding(
                    rule="shard-stateful-dispatch",
                    severity="error",
                    subject=element.name,
                    message=(
                        "flow-keyed stateful element under dispatch "
                        "spray: round-robin dispatch breaks flow "
                        "affinity, so packets of one flow hit different "
                        "replicas' state tables"),
                    location=_location(element),
                ))
            elif steering is not None:
                out.append(Finding(
                    rule="shard-stateful-migration",
                    severity="warning",
                    subject=element.name,
                    message=(
                        "flow-keyed stateful element under steering: "
                        "RETA rebalancing migrates flows between "
                        "replicas with no state-handoff model"),
                    location=_location(element),
                ))
        elif cls == CROSS_FLOW:
            out.append(Finding(
                rule="shard-shared-state",
                severity="warning",
                subject=element.name,
                message=(
                    "cross-flow mutable state replicated over %d cores: "
                    "aggregate semantics silently become per-replica"
                    % n_cores),
                location=_location(element),
            ))
    return out


def sharding_stats(graph: ProcessingGraph) -> dict:
    """Pass counters for the telemetry registry."""
    counts = {STATELESS: 0, READ_ONLY: 0, FLOW_LOCAL: 0, CROSS_FLOW: 0}
    for element in graph.all_elements():
        counts[classify_element_state(element.ir_program())] += 1
    return {
        "sharding.flow_local": float(counts[FLOW_LOCAL]),
        "sharding.cross_flow": float(counts[CROSS_FLOW]),
        "sharding.read_only": float(counts[READ_ONLY]),
    }


__all__ = [
    "CROSS_FLOW",
    "FLOW_KEY_SPANS",
    "FLOW_LOCAL",
    "READ_ONLY",
    "STATELESS",
    "classify_element_state",
    "lint_sharding",
    "sharding_stats",
]

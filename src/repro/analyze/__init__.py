"""Static analysis for PacketMill configurations and compiler output.

Three cooperating checkers over the same IR the cost model executes:

- the **IR verifier** (:mod:`repro.analyze.verifier`): structural
  invariants of every element/PMD program against the active struct
  layouts, re-run after each compiler pass of the analysis's compile;
- the **X-Change metadata dataflow** (:mod:`repro.analyze.dataflow`):
  per-field def/use propagation along the processing graph
  (use-before-init, dead stores, dead fields), cross-checked against the
  reordering pass's layout decision;
- the **constant propagation pass** (:mod:`repro.analyze.constprop`):
  path-sensitive abstract values per output port, propagated
  inter-element (``constant-branch``, ``redundant-check``); its dead
  edges sharpen the dataflow;
- the **lints** (:mod:`repro.analyze.lints`, :mod:`repro.analyze.sharding`):
  graph structure (unreachable elements, unconnected inputs, dangling
  outputs, shadowed classifier rules) and sharding safety of stateful
  elements under multicore replication and steering.

:func:`analyze_config` runs everything over one configuration, compiling
it with the build's own compile step; the CLI (``python -m
repro.analyze``) wraps it, and :meth:`PacketMill.analysis
<repro.core.packetmill.PacketMill.analysis>` runs it for a mill, so a
build is gated with ``mill.analysis().raise_on_errors(); mill.build()``.
"""

from repro.analyze.api import analyze_config, analyze_graph
from repro.analyze.constprop import (
    ConstProp,
    Facts,
    join_facts,
    match_predicate,
)
from repro.analyze.dataflow import MetadataDataflow, crosscheck_reorder
from repro.analyze.findings import (
    ERROR,
    NOTE,
    SEVERITIES,
    WARNING,
    AnalysisError,
    AnalysisReport,
    Finding,
    severity_rank,
)
from repro.analyze.lints import GRAPH_LINTS, lint_graph
from repro.analyze.qos import lint_qos, lint_qos_config
from repro.analyze.sharding import (
    classify_element_state,
    lint_sharding,
    sharding_stats,
)
from repro.analyze.verifier import (
    VerifierError,
    assert_verified,
    attach_verifier,
    verify_exec_program,
    verify_pool_pair,
    verify_program,
)

__all__ = [
    "ERROR",
    "NOTE",
    "WARNING",
    "SEVERITIES",
    "AnalysisError",
    "AnalysisReport",
    "ConstProp",
    "Facts",
    "Finding",
    "GRAPH_LINTS",
    "MetadataDataflow",
    "VerifierError",
    "analyze_config",
    "analyze_graph",
    "assert_verified",
    "attach_verifier",
    "classify_element_state",
    "crosscheck_reorder",
    "join_facts",
    "lint_graph",
    "lint_qos",
    "lint_qos_config",
    "lint_sharding",
    "match_predicate",
    "severity_rank",
    "sharding_stats",
    "verify_exec_program",
    "verify_pool_pair",
    "verify_program",
]

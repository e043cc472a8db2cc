"""Graph and rule lints over an instantiated :class:`ProcessingGraph`.

Structural problems a configuration can carry without ever raising at
build time: elements no packet can reach, output ports that silently
drop, classifier rule sets with unreachable outputs, and input ports
nothing feeds.  Each lint is one function returning findings; the
:data:`GRAPH_LINTS` tuple is the pass roster :func:`lint_graph` runs.
"""

from __future__ import annotations

from typing import List

from repro.analyze.findings import ERROR, NOTE, WARNING, Finding
from repro.analyze.dataflow import RX_CLASSES


def _location(element) -> str:
    line = getattr(element.decl, "line", 0)
    where = "element class %s" % element.decl.class_name
    return "%s, line %d" % (where, line) if line else where


def lint_sources(graph) -> List[Finding]:
    """A packet-processing graph needs at least one RX device."""
    if any(
        e.decl.class_name in RX_CLASSES for e in graph.all_elements()
    ):
        return []
    return [Finding(
        "graph-no-source", ERROR, "<graph>",
        "configuration has no %s; no packet can ever enter the graph"
        % "/".join(RX_CLASSES))]


def lint_unreachable(graph) -> List[Finding]:
    """Elements no source can reach do cold work: dead configuration.

    Only elements without input ports originate packets; one whose input
    is merely unwired is dead, and so is everything it feeds.
    """
    reachable = set()
    for source in graph.sources():
        if source.n_inputs == 0:
            reachable.update(e.name for e in graph.reachable_from(source))
    return [
        Finding(
            "graph-unreachable", WARNING, element.name,
            "not reachable from any source; the element never sees a packet",
            _location(element))
        for name, element in graph.elements.items()
        if name not in reachable
    ]


def lint_unconnected_inputs(graph) -> List[Finding]:
    """Required input ports nothing feeds (also a build-time error)."""
    return [
        Finding(
            "graph-unconnected-input", ERROR, name,
            "input port [%d] is not connected; packets can never arrive"
            % port,
            _location(graph.element(name)))
        for name, port in graph.unconnected_inputs()
    ]


def lint_dangling_outputs(graph) -> List[Finding]:
    """Output ports with no target: the driver kills what lands there.

    Deliberate in many configurations (CheckIPHeader's bad-packet port is
    conventionally left open as a drop), so this is a note, not an error.
    """
    findings = []
    for element in graph.all_elements():
        for port in range(element.n_outputs):
            if element.target(port) is None:
                findings.append(Finding(
                    "graph-dangling-output", NOTE, element.name,
                    "output port [%d] is unconnected; packets routed "
                    "there are dropped" % port,
                    _location(element)))
    return findings


def lint_shadowed_rules(graph) -> List[Finding]:
    """Classifier rule sets where an earlier pattern makes a later one
    unreachable -- the later output port can never fire, which is a bug
    in the rule set, not a style issue."""
    findings = []
    for element in graph.all_elements():
        shadowed_outputs = getattr(element, "shadowed_outputs", None)
        if shadowed_outputs is None:
            continue
        for shadower, shadowed in shadowed_outputs():
            findings.append(Finding(
                "classifier-shadowed-rule", ERROR, element.name,
                "rule %d is fully shadowed by earlier rule %d; output "
                "port [%d] is unreachable" % (shadowed, shadower, shadowed),
                _location(element)))
    return findings


GRAPH_LINTS = (
    lint_sources,
    lint_unconnected_inputs,
    lint_unreachable,
    lint_dangling_outputs,
    lint_shadowed_rules,
)


def lint_graph(graph) -> List[Finding]:
    """Run every graph lint, in roster order."""
    findings: List[Finding] = []
    for lint in GRAPH_LINTS:
        findings.extend(lint(graph))
    return findings

"""Graph lints: shadowed rules, unconnected inputs, reachability."""

import pytest

from repro.analyze import ERROR, lint_graph
from repro.analyze.cli import shipped_configs
from repro.analyze.lints import (
    lint_dangling_outputs,
    lint_shadowed_rules,
    lint_sources,
    lint_unconnected_inputs,
    lint_unreachable,
)
from repro.click.config.lexer import ConfigError
from repro.click.graph import ProcessingGraph
from repro.core import nfs
from repro.core.options import BuildOptions
from repro.core.packetmill import BuildError, PacketMill
from repro.exec import cache as exec_cache
from repro.hw.params import MachineParams

pytestmark = pytest.mark.analyze


def _graph(config):
    return ProcessingGraph.from_text(config)


def _rules(findings):
    return [f.rule for f in findings]


# -- shadowed classifier rules (satellite regression) -------------------------


def test_classifier_duplicate_pattern_is_shadowed():
    graph = _graph(
        "input :: FromDPDKDevice(PORT 0);"
        "c :: Classifier(12/0800, 12/0800 20/0001, -);"
        "input -> c; c[0] -> Discard; c[1] -> Discard; c[2] -> Discard;"
    )
    findings = lint_shadowed_rules(graph)
    assert _rules(findings) == ["classifier-shadowed-rule"]
    assert findings[0].severity == ERROR
    assert "rule 1 is fully shadowed by earlier rule 0" in findings[0].message


def test_classifier_catchall_shadows_everything_after_it():
    graph = _graph(
        "input :: FromDPDKDevice(PORT 0);"
        "c :: Classifier(-, 12/0800);"
        "input -> c; c[0] -> Discard; c[1] -> Discard;"
    )
    (finding,) = lint_shadowed_rules(graph)
    assert "rule 1" in finding.message


def test_classifier_disjoint_patterns_are_not_shadowed():
    graph = _graph(
        "input :: FromDPDKDevice(PORT 0);"
        "c :: Classifier(12/0800, 12/0806, -);"
        "input -> c; c[0] -> Discard; c[1] -> Discard; c[2] -> Discard;"
    )
    assert lint_shadowed_rules(graph) == []


def test_ipclassifier_catchall_and_duplicates_shadow():
    graph = _graph(
        "input :: FromDPDKDevice(PORT 0);"
        "c :: IPClassifier(tcp, -, udp, tcp);"
        "input -> c; c[0] -> Discard; c[1] -> Discard;"
        "c[2] -> Discard; c[3] -> Discard;"
    )
    findings = lint_shadowed_rules(graph)
    # "-" (rule 1) shadows udp (2); tcp (0) shadows the duplicate tcp (3).
    assert {(f.message.split()[1]) for f in findings} == {"2", "3"}


# -- unconnected inputs (satellite: build-time detection) ---------------------


UNWIRED = (
    "input :: FromDPDKDevice(PORT 0);"
    "output :: ToDPDKDevice(PORT 0);"
    "orphan :: EtherMirror;"
    "input -> output;"
)


def test_unconnected_input_lint_names_element_and_port():
    (finding,) = lint_unconnected_inputs(_graph(UNWIRED))
    assert finding.rule == "graph-unconnected-input"
    assert finding.subject == "orphan"
    assert "[0]" in finding.message


def test_check_required_inputs_raises_config_error():
    with pytest.raises(ConfigError) as excinfo:
        _graph(UNWIRED).check_required_inputs()
    message = str(excinfo.value)
    assert "orphan" in message and "[0]" in message and "EtherMirror" in message


def test_build_rejects_unwired_inputs():
    exec_cache.reset_caches()
    mill = PacketMill(UNWIRED, BuildOptions.vanilla(),
                      params=MachineParams().at_frequency(2.3))
    with pytest.raises(ConfigError, match="orphan"):
        mill.build()


def test_fully_wired_config_passes_required_inputs():
    _graph(nfs.router()).check_required_inputs()


# -- reachability and structure ----------------------------------------------


def test_unreachable_cycle_is_warned():
    # A cycle no source feeds: both elements have wired inputs (so the
    # unconnected-input check is silent) yet no packet can ever reach
    # them.
    config = (
        "input :: FromDPDKDevice(PORT 0);"
        "output :: ToDPDKDevice(PORT 0);"
        "a :: Queue(8); b :: EtherMirror;"
        "input -> output; a -> b; b -> a;"
    )
    findings = lint_unreachable(_graph(config))
    assert sorted(f.subject for f in findings) == ["a", "b"]
    assert all(f.severity == "warning" for f in findings)


def test_unwired_declaration_and_its_chain_are_warned():
    # zombie's input is unwired, so it and everything it feeds is dead;
    # the input -> EtherMirror -> output path is live.
    config = (
        "input :: FromDPDKDevice(PORT 0);"
        "output :: ToDPDKDevice(PORT 0);"
        "orphan :: Counter; zombie :: EtherMirror; zombie2 :: Counter;"
        "zombie -> orphan -> zombie2;"
        "input -> EtherMirror -> output;"
    )
    findings = lint_unreachable(_graph(config))
    assert sorted(f.subject for f in findings) == ["orphan", "zombie", "zombie2"]
    assert all(f.rule == "graph-unreachable" for f in findings)


def test_no_source_is_an_error():
    graph = _graph("a :: EtherMirror; b :: Discard; a -> b;")
    assert "graph-no-source" in _rules(lint_sources(graph))


def test_dangling_output_is_a_note():
    graph = _graph(nfs.router())
    findings = lint_dangling_outputs(graph)
    assert findings, "CheckIPHeader's bad-packet port should be open"
    assert all(f.severity == "note" for f in findings)


def test_shipped_configs_have_no_error_lints():
    # Nor any dead element: every shipped declaration sees packets.
    for name, config in shipped_configs().items():
        findings = lint_graph(_graph(config))
        errors = [f for f in findings if f.severity == ERROR]
        assert not errors, (name, errors)
        assert "graph-unreachable" not in _rules(findings), name

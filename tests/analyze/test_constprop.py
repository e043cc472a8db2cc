"""Path-sensitive constant propagation: facts, port splitting, lints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import ConstProp, MetadataDataflow, analyze_config
from repro.analyze.constprop import (
    ALWAYS,
    DEAD,
    Facts,
    MAYBE,
    NEVER,
    _kill,
    _refine,
    join_facts,
    match_predicate,
)
from repro.click.graph import ProcessingGraph
from repro.compiler.ir import Compute, DataAccess, FieldAccess, Program
from repro.core.nfs import guarded_router, router
from repro.core.options import BuildOptions
from repro.dpdk.metadata import CopyingModel

pytestmark = pytest.mark.analyze


# -- the abstract domain ------------------------------------------------------


def test_join_keeps_only_agreeing_constants():
    a = Facts.make(data={12: 0x08, 13: 0x00}, meta={"paint_anno": 1})
    b = Facts.make(data={12: 0x08, 13: 0x06}, meta={"paint_anno": 1})
    joined = a.join(b)
    assert joined.data_map == {12: 0x08}
    assert joined.meta_map == {"paint_anno": 1}


def test_join_widens_disagreeing_constants_to_an_interval():
    a = Facts.make(meta={"length": 64})
    b = Facts.make(meta={"length": 128})
    joined = a.join(b)
    assert "length" not in joined.meta_map
    assert joined.field_range("length") == (64, 128)


def test_join_takes_the_interval_hull():
    a = Facts.make(ranges={"length": (0, 128)})
    b = Facts.make(ranges={"length": (64, 512)})
    assert a.join(b).field_range("length") == (0, 512)


def test_join_with_unreachable_is_identity():
    facts = Facts.make(data={0: 1})
    assert join_facts(None, facts) == facts
    assert join_facts(facts, None) == facts
    assert join_facts(None, None) is None


def test_data_write_kills_only_overlapping_bytes():
    facts = Facts.make(data={0: 1, 6: 2, 12: 3})
    program = Program("w", [DataAccess(4, 4, write=True)])
    assert _kill(facts, program).data_map == {0: 1, 12: 3}


def test_pointer_write_kills_every_data_fact():
    facts = Facts.make(data={12: 0x08}, meta={"paint_anno": 1})
    program = Program("strip", [
        FieldAccess("Packet", "data_ptr", write=True),
    ])
    killed = _kill(facts, program)
    assert killed.data_map == {}
    assert killed.meta_map == {"paint_anno": 1}


def test_field_write_kills_that_field_only():
    facts = Facts.make(meta={"paint_anno": 1, "vlan_anno": 2})
    program = Program("p", [
        FieldAccess("Packet", "paint_anno", write=True),
    ])
    assert _kill(facts, program).meta_map == {"vlan_anno": 2}


def test_reads_kill_nothing():
    facts = Facts.make(data={12: 0x08}, meta={"paint_anno": 1})
    program = Program("r", [
        DataAccess(12, 2),
        FieldAccess("Packet", "paint_anno"),
        Compute(3),
    ])
    assert _kill(facts, program) == facts


# -- predicate matching -------------------------------------------------------


def test_catch_all_predicate_always_matches():
    assert match_predicate(Facts(), None) == (ALWAYS, 0, 0)


def test_data_term_verdicts():
    facts = Facts.make(data={12: 0x08})
    assert match_predicate(facts, {"data": {12: 0x08}})[0] == ALWAYS
    assert match_predicate(facts, {"data": {12: 0x06}})[0] == NEVER
    assert match_predicate(facts, {"data": {13: 0x00}})[0] == MAYBE


def test_conjunction_is_never_if_any_term_contradicts():
    facts = Facts.make(data={12: 0x08, 13: 0x06})
    status, _, total = match_predicate(
        facts, {"data": {12: 0x08, 13: 0x00}})
    assert status == NEVER
    assert total == 2


def test_range_term_verdicts():
    facts = Facts.make(ranges={"length": (64, 128)})
    assert match_predicate(facts, {"range": {"length": (0, 256)}})[0] == ALWAYS
    assert match_predicate(facts, {"range": {"length": (256, 512)}})[0] == NEVER
    assert match_predicate(facts, {"range": {"length": (100, 512)}})[0] == MAYBE


def test_refined_edge_implies_its_own_predicate():
    pred = {"data": {12: 0x08, 13: 0x06}, "meta": {"paint_anno": 1}}
    refined = _refine(Facts(), pred)
    status, implied, total = match_predicate(refined, pred)
    assert status == ALWAYS
    assert implied == total == 3


# -- per-port splitting over a graph ------------------------------------------


SPLIT = """
    input :: FromDPDKDevice(PORT 0);
    output :: ToDPDKDevice(PORT 0);
    c :: Classifier(12/0800, 12/0806, -);
    ipside :: Counter;
    arpside :: Counter;
    input -> c;
    c[0] -> ipside -> output;
    c[1] -> arpside -> output;
    c[2] -> Discard;
"""


def test_classifier_splits_facts_per_output_port():
    cp = ConstProp(ProcessingGraph.from_text(SPLIT))
    assert cp.in_facts["ipside"].data_map == {12: 0x08, 13: 0x00}
    assert cp.in_facts["arpside"].data_map == {12: 0x08, 13: 0x06}
    # The join at the shared output keeps only the agreed byte.
    assert cp.in_facts["output"].data_map == {12: 0x08}
    assert not cp.dead_edges


REGUARD = """
    input :: FromDPDKDevice(PORT 0);
    output :: ToDPDKDevice(PORT 0);
    c1 :: Classifier(12/0800, -);
    c2 :: Classifier(12/0800, -);
    input -> c1;
    c1[0] -> c2;
    c1[1] -> Discard;
    c2[0] -> output;
    c2[1] -> Discard;
"""


def test_repeated_guard_is_decided_and_its_fallthrough_shadowed():
    cp = ConstProp(ProcessingGraph.from_text(REGUARD))
    assert cp.port_status[("c2", 0)] == ALWAYS
    assert cp.port_status[("c2", 1)] == DEAD
    assert cp.dead_edges == {("c2", 1)}


def test_paint_pins_the_paintswitch():
    config = """
    input :: FromDPDKDevice(PORT 0);
    output :: ToDPDKDevice(PORT 0);
    sw :: PaintSwitch(N 2);
    input -> Paint(1) -> sw;
    sw[0] -> Discard;
    sw[1] -> output;
    """
    cp = ConstProp(ProcessingGraph.from_text(config))
    assert cp.port_status[("sw", 0)] == NEVER
    assert cp.port_status[("sw", 1)] == ALWAYS
    assert ("sw", 0) in cp.dead_edges


def test_chained_length_switches_decide_the_second():
    config = """
    input :: FromDPDKDevice(PORT 0);
    output :: ToDPDKDevice(PORT 0);
    ls1 :: LengthSwitch(THRESHOLD 128);
    ls2 :: LengthSwitch(THRESHOLD 256);
    input -> ls1;
    ls1[0] -> ls2;
    ls1[1] -> Discard;
    ls2[0] -> output;
    ls2[1] -> Discard;
    """
    cp = ConstProp(ProcessingGraph.from_text(config))
    # length <= 128 on ls1[0] implies length <= 256 at ls2.
    assert cp.port_status[("ls2", 0)] == ALWAYS
    assert cp.port_status[("ls2", 1)] == DEAD


def test_plain_router_has_no_constant_branches():
    cp = ConstProp(ProcessingGraph.from_text(router()))
    assert not cp.dead_edges
    assert not [f for f in cp.findings() if f.rule == "constant-branch"]


# -- findings -----------------------------------------------------------------


def test_guarded_router_constant_branches_and_redundant_check():
    cp = ConstProp(ProcessingGraph.from_text(guarded_router()))
    branches = {(f.subject, f.rule) for f in cp.findings()}
    assert ("arpguard", "constant-branch") in branches
    assert ("sw", "constant-branch") in branches
    assert ("sw", "redundant-check") in branches
    assert cp.dead_edges == {("arpguard", 0), ("sw", 0)}


def test_analyze_config_surfaces_constprop_findings_and_metrics():
    report = analyze_config(
        guarded_router(), BuildOptions.packetmill(),
        subject="guarded-router")
    assert "constant-branch" in [f.rule for f in report.findings]
    assert report.metrics["constprop.dead_ports"] >= 2
    assert report.metrics["constprop.facts_proven"] > 0


# -- the precision regression (the reason this pass exists) -------------------


def _dataflow(config, constprop=None):
    model = CopyingModel()
    graph = ProcessingGraph.from_text(config)
    programs = {e.name: e.ir_program() for e in graph.all_elements()}
    return MetadataDataflow(
        graph, programs, model.rx_program(), model.tx_program(),
        constprop=constprop,
    )


def test_port_insensitive_merge_reports_a_false_use_before_init():
    # Pinned: the old analysis merges the dead arpguard[0] edge into
    # rt's in-state, losing paint_anno and falsely flagging sw.  The
    # path-sensitive run excludes the dead edge and the error is gone.
    old = _dataflow(guarded_router())
    false_positives = [
        f for f in old.findings() if f.rule == "meta-use-before-init"
    ]
    assert [f.subject for f in false_positives] == ["sw"]

    graph = ProcessingGraph.from_text(guarded_router())
    new = _dataflow(guarded_router(), constprop=ConstProp(graph))
    assert not [
        f for f in new.findings() if f.rule == "meta-use-before-init"
    ]


def test_guarded_router_is_error_free_end_to_end():
    report = analyze_config(
        guarded_router(), BuildOptions.packetmill(),
        subject="guarded-router")
    assert report.ok, [f.rule for f in report.errors]


# -- algebraic properties -----------------------------------------------------


facts_values = st.builds(
    Facts.make,
    data=st.dictionaries(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=255), max_size=4),
    meta=st.dictionaries(
        st.sampled_from(["paint_anno", "vlan_anno", "length"]),
        st.integers(min_value=0, max_value=1024), max_size=3),
    ranges=st.dictionaries(
        st.sampled_from(["length", "rss_anno"]),
        st.tuples(st.integers(min_value=0, max_value=512),
                  st.integers(min_value=0, max_value=512)).map(
                      lambda t: (min(t), max(t))),
        max_size=2),
)


@settings(max_examples=80, deadline=None)
@given(a=facts_values, b=facts_values)
def test_join_is_commutative_and_shrinking(a, b):
    joined = a.join(b)
    assert joined == b.join(a)
    # Facts only shrink across a join: every surviving constant was
    # present (identically) on both sides.
    assert set(joined.data) <= set(a.data) & set(b.data)
    assert set(joined.meta) <= set(a.meta) & set(b.meta)


@settings(max_examples=80, deadline=None)
@given(a=facts_values)
def test_join_is_idempotent(a):
    assert a.join(a) == a


@settings(max_examples=80, deadline=None)
@given(a=facts_values, b=facts_values, c=facts_values)
def test_join_is_associative(a, b, c):
    assert a.join(b).join(c) == a.join(b.join(c))

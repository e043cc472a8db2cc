"""IR verifier: structural invariants, pool balance, pass debug mode."""

import pytest

from repro.analyze import (
    ERROR,
    NOTE,
    VerifierError,
    assert_verified,
    attach_verifier,
    verify_exec_program,
    verify_pool_pair,
    verify_program,
)
from repro.compiler.ir import (
    BranchHint,
    Compute,
    DataAccess,
    FieldAccess,
    PoolOp,
    Program,
    StateAccess,
)
from repro.compiler.lower import lower
from repro.compiler.pipeline import PassManager
from repro.compiler.structlayout import LayoutRegistry
from repro.dpdk.metadata import CopyingModel

pytestmark = pytest.mark.analyze


@pytest.fixture
def registry():
    reg = LayoutRegistry()
    CopyingModel().register_layouts(reg)
    return reg


def rules(findings):
    return [f.rule for f in findings]


def test_clean_program_verifies_clean(registry):
    program = Program("p", [
        FieldAccess("Packet", "length"),
        DataAccess(12, 2),
        Compute(10),
        BranchHint(0.1),
    ])
    assert verify_program(program, registry) == []


def test_unknown_field_and_struct_are_errors(registry):
    program = Program("p", [
        FieldAccess("Packet", "no_such_field"),
        FieldAccess("NoSuchStruct", "x"),
    ])
    findings = verify_program(program, registry)
    assert rules(findings) == ["ir-unknown-field", "ir-unknown-struct"]
    assert all(f.severity == ERROR for f in findings)


def test_data_access_outside_frame_is_an_error(registry):
    program = Program("p", [DataAccess(2040, 16)])
    assert rules(verify_program(program, registry)) == ["ir-data-bounds"]


def test_state_bounds_checked_only_with_known_size(registry):
    program = Program("p", [StateAccess(60, 16)])
    assert verify_program(program, registry) == []
    findings = verify_program(program, registry, state_size=64)
    assert rules(findings) == ["ir-state-bounds"]


def test_bad_probability_and_negative_cost(registry):
    program = Program("p", [BranchHint(1.5), Compute(-3)])
    assert rules(verify_program(program, registry)) == [
        "ir-bad-probability", "ir-negative-cost",
    ]


def test_pool_imbalance_severity_is_configurable(registry):
    program = Program("p", [PoolOp("get")])
    (finding,) = verify_program(program, registry)
    assert (finding.rule, finding.severity) == ("ir-pool-balance", ERROR)
    (finding,) = verify_program(program, registry, pool_balance=NOTE)
    assert finding.severity == NOTE


def test_pool_pair_balances_across_rx_and_tx(registry):
    rx = Program("rx", [PoolOp("get"), PoolOp("get")])
    tx = Program("tx", [PoolOp("put"), PoolOp("put")])
    assert verify_pool_pair(rx, tx) == []
    assert rules(verify_pool_pair(rx, Program("tx", [PoolOp("put")]))) == [
        "ir-pool-balance",
    ]


def test_pmd_programs_pool_pair_is_balanced(registry):
    model = CopyingModel()
    assert verify_pool_pair(model.rx_program(), model.tx_program()) == []


def test_lowered_program_verifies_clean(registry):
    program = Program("p", [
        FieldAccess("Packet", "length", write=True),
        DataAccess(0, 64),
        Compute(25),
    ])
    exec_program = lower(program, registry)
    assert verify_exec_program(exec_program, registry) == []


def test_assert_verified_raises_with_findings(registry):
    program = Program("p", [FieldAccess("Packet", "bogus")])
    with pytest.raises(VerifierError) as excinfo:
        assert_verified(program, registry)
    assert excinfo.value.findings
    assert "bogus" in str(excinfo.value)


# -- debug mode: the pass pipeline names the offending pass -------------------


def _breaking_pass(program):
    return program.replaced(
        list(program.ops) + [FieldAccess("Packet", "invented_by_pass")]
    )


def test_attach_verifier_names_the_breaking_pass(registry):
    manager = PassManager()
    manager.add("identity", lambda p: p)
    manager.add("bad-pass", _breaking_pass)
    attach_verifier(manager, registry)
    with pytest.raises(VerifierError) as excinfo:
        manager.run(Program("p", [Compute(5)]))
    message = str(excinfo.value)
    assert "bad-pass" in message
    assert "invented_by_pass" in message


def test_attach_verifier_passes_clean_pipeline(registry):
    manager = PassManager()
    manager.add("identity", lambda p: p)
    attach_verifier(manager, registry)
    out = manager.run(Program("p", [Compute(5)]))
    assert len(out) == 1


def test_attach_verifier_collect_mode_accumulates(registry):
    collected = []
    manager = PassManager()
    manager.add("bad-pass", _breaking_pass)
    attach_verifier(manager, registry, collect=collected.extend)
    manager.run(Program("p", [Compute(5)]))
    assert rules(collected) == ["ir-unknown-field"]
    assert "bad-pass" in collected[0].location


def test_analysis_verifies_the_pmd_programs_after_each_pass(monkeypatch):
    """The analyzer's per-pass verifier sees the driver passes the PMD's
    programs get in the compile step, not just the element passes."""
    from repro.analyze import api
    from repro.core import nfs
    from repro.core.options import BuildOptions

    seen = []
    attach = api.attach_verifier

    def spy(manager, registry, **kwargs):
        attach(manager, registry, **kwargs)
        verify = manager.verifier

        def recording(program, pass_name):
            seen.append((program.name, pass_name))
            verify(program, pass_name)

        manager.verifier = recording

    monkeypatch.setattr(api, "attach_verifier", spy)
    options = BuildOptions(lto=True, vectorized_pmd=True, pgo=True)
    report = api.analyze_config(nfs.forwarder(), options)
    assert not report.errors
    for name in ("pmd_rx_copying", "pmd_tx_copying"):
        assert [p for n, p in seen if n == name] == [
            "inline", "vectorize", "pgo"]

"""Whole-configuration analysis: every check, one report.

:func:`analyze_config` runs the complete static-analysis stack over one
Click configuration under one set of build options, compiling it with
the build's own compile step
(:func:`repro.compiler.pipeline.compile_graph`) without executing a
packet:

1. parse the configuration into a :class:`ProcessingGraph` (parse errors
   become findings, not tracebacks);
2. graph lints (sources, reachability, ports, shadowed rules);
3. IR verification of each element program, then the compile step with
   the verifier re-run after every pass the options enable, the PMD's
   RX/TX passes included (so a pass bug names its pass);
4. metadata reordering cross-check against the pre-reorder ``Packet``
   layout, when the options request the pass;
5. verification of every lowered program, the PMD's included;
6. PMD RX/TX program verification and pool-balance pairing;
7. path-sensitive constant propagation per output port
   (``constant-branch``, ``redundant-check``);
8. the X-Change metadata dataflow analysis (use-before-init, dead
   stores, dead fields) under the options' metadata model, with the
   constprop dead edges excluded from the successor relation;
9. the sharding-safety lints, when a :class:`~repro.core.profile.RunProfile`
   says how the config will be replicated (``n_cores``, RSS steering).
"""

from __future__ import annotations

from typing import Optional

from repro.analyze.constprop import ConstProp
from repro.analyze.dataflow import MetadataDataflow, crosscheck_reorder
from repro.analyze.findings import ERROR, NOTE, AnalysisReport, Finding
from repro.analyze.lints import lint_graph
from repro.analyze.sharding import lint_sharding, sharding_stats
from repro.analyze.verifier import (
    attach_verifier,
    verify_exec_program,
    verify_pool_pair,
    verify_program,
)
from repro.compiler.structlayout import LayoutRegistry, StructLayout


def analyze_config(
    config: str,
    options=None,
    registry=None,
    subject: str = "<config>",
    qos=None,
    profile=None,
) -> AnalysisReport:
    """Statically analyze one configuration; never raises on bad input.

    ``options`` is a :class:`~repro.core.options.BuildOptions` (defaults
    to the full PacketMill build); ``registry`` is an optional telemetry
    :class:`~repro.telemetry.registry.CounterRegistry` that receives the
    finding counts under ``analyze.*``; ``qos`` is the
    :class:`~repro.qos.config.QosConfig` the configuration will run
    under, enabling the QoS buffer-profile lints (a config containing
    QoS elements but analyzed without one is itself a finding);
    ``profile`` is the :class:`~repro.core.profile.RunProfile` the config
    will run under -- its ``n_cores``/``rss`` drive the sharding-safety
    lints (analyzing a sharded deployment without it misses them).
    """
    from repro.click.element import ElementConfigError
    from repro.click.config.lexer import ConfigError
    from repro.click.graph import ProcessingGraph
    from repro.core.options import BuildOptions

    options = options or BuildOptions.packetmill()
    report = AnalysisReport(subject=subject)
    try:
        graph = ProcessingGraph.from_text(config)
    except (ConfigError, ElementConfigError, ValueError) as exc:
        report.add(Finding(
            "config-parse-error", ERROR, subject, str(exc),
            "line %d" % exc.line if getattr(exc, "line", 0) else ""))
        if registry is not None:
            report.record(registry)
        return report
    analyze_graph(graph, options, report, qos=qos, profile=profile)
    if registry is not None:
        report.record(registry)
    return report


def analyze_graph(graph, options, report: Optional[AnalysisReport] = None,
                  qos=None, profile=None) -> AnalysisReport:
    """Analyze an already-instantiated graph under the given options."""
    from repro.analyze.qos import lint_qos
    from repro.compiler.pipeline import PassManager, compile_graph
    from repro.dpdk.metadata import make_model

    if report is None:
        report = AnalysisReport()

    # -- structure ----------------------------------------------------------------
    report.extend(lint_graph(graph))
    report.extend(lint_qos(graph, qos))

    # -- layouts under the options' metadata model ------------------------------
    model = make_model(options.metadata_model)
    registry = LayoutRegistry()
    model.register_layouts(registry)
    base_packet: StructLayout = registry.get("Packet")
    for name in model.unbuffered_holders(graph):
        report.add(Finding(
            "model-cannot-buffer", ERROR, name,
            "metadata model %r cannot buffer packets, but this "
            "element holds them across iterations" % model.name))

    # -- element IR, then the build's compile step, verified after every pass ---
    for element in graph.all_elements():
        report.extend(verify_program(
            element.ir_program(), registry, state_size=element.state_size,
            location="element class %s" % element.decl.class_name,
        ))
    pass_manager = PassManager.from_options(options)
    attach_verifier(pass_manager, registry, collect=report.extend)
    compiled = compile_graph(graph, model, options, pass_manager)

    # -- PMD driver programs -------------------------------------------------------
    rx_program = model.rx_program()
    tx_program = model.tx_program()
    for program in (rx_program, tx_program):
        report.extend(verify_program(
            program, registry, pool_balance=NOTE, location="PMD program",
        ))
    report.extend(verify_pool_pair(rx_program, tx_program))

    # -- path-sensitive constant propagation ---------------------------------------
    constprop = ConstProp(graph)
    report.extend(constprop.findings())
    report.metrics.update(constprop.stats)

    # -- metadata dataflow (dead edges excluded) -----------------------------------
    dataflow = MetadataDataflow(
        graph, compiled.element_ir, rx_program, tx_program,
        mbuf_alias=getattr(model, "mbuf_alias", None),
        constprop=constprop,
    )
    report.extend(dataflow.findings())

    # -- sharding safety under the run profile ------------------------------------
    report.metrics.update(sharding_stats(graph))
    if profile is not None:
        report.extend(lint_sharding(
            graph,
            n_cores=getattr(profile, "n_cores", 1),
            rss=getattr(profile, "rss", None),
        ))

    # -- the reordering pass's decision, against the pre-reorder layout ----------
    if options.reorder_metadata:
        report.extend(crosscheck_reorder(dataflow, base_packet))
        expected = base_packet.reordered(_whole_program_counts(
            list(compiled.element_ir.values()) + [rx_program, tx_program]))
        actual = compiled.registry.get("Packet")
        if [f.name for f in expected.fields] != [f.name for f in actual.fields]:
            report.add(Finding(
                "reorder-mismatch", ERROR, "Packet",
                "the reordering pass produced a field order that differs "
                "from the whole-program access counts"))

    # -- the lowered programs against the (possibly reordered) layouts -------------
    for element in graph.all_elements():
        report.extend(verify_exec_program(
            compiled.exec_programs[element.name], compiled.registry,
            state_size=max(64, element.state_size),
        ))
    for exec_program in compiled.pmd_programs:
        report.extend(verify_exec_program(exec_program, compiled.registry))
    return report


def _whole_program_counts(programs):
    from repro.compiler.ir import merge_access_counts

    return merge_access_counts(programs, "Packet")

"""Tests for the handler mechanism."""

import pytest

from repro.click.graph import ProcessingGraph
from repro.click.handlers import HandlerBroker, HandlerError
from repro.core import nfs
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.hw.params import MachineParams
from repro.net.trace import FixedSizeTraceGenerator, TraceSpec


def build_router():
    trace = lambda port, core: FixedSizeTraceGenerator(256, TraceSpec(seed=1))
    return PacketMill(nfs.router(), BuildOptions.vanilla(),
                      params=MachineParams(), trace=trace).build()


class TestHandlers:
    def test_common_handlers(self):
        graph = ProcessingGraph.from_text(nfs.router())
        broker = HandlerBroker(graph)
        assert broker.read("rt.class") == "RadixIPLookup"
        assert broker.read("c.name") == "c"
        assert "BURST" in broker.read("input.config")

    def test_live_counters_through_handlers(self):
        binary = build_router()
        binary.driver.run_batches(5)
        broker = HandlerBroker(binary.graph)
        checker = binary.graph.by_class("CheckIPHeader")[0]
        assert broker.read("%s.count" % checker.name) == str(5 * 32)
        assert broker.read("rt.nroutes") == "5"

    def test_write_handler_reset(self):
        config = "f :: FromDPDKDevice(0) -> cnt :: Counter -> Discard;"
        trace = lambda port, core: FixedSizeTraceGenerator(64, TraceSpec(seed=1))
        binary = PacketMill(config, BuildOptions.vanilla(),
                            params=MachineParams(), trace=trace).build()
        binary.driver.run_batches(2)
        broker = HandlerBroker(binary.graph)
        assert broker.read("cnt.count") == "64"
        broker.write("cnt.reset")
        assert broker.read("cnt.count") == "0"

    def test_unknown_element(self):
        broker = HandlerBroker(ProcessingGraph.from_text(nfs.forwarder()))
        with pytest.raises(HandlerError):
            broker.read("ghost.count")

    def test_unknown_handler_lists_available(self):
        broker = HandlerBroker(ProcessingGraph.from_text(nfs.router()))
        with pytest.raises(HandlerError, match="available"):
            broker.read("rt.bogus")

    def test_bad_path(self):
        broker = HandlerBroker(ProcessingGraph.from_text(nfs.forwarder()))
        with pytest.raises(HandlerError):
            broker.read("no-dot")

    def test_read_only_handler_rejects_write(self):
        broker = HandlerBroker(ProcessingGraph.from_text(nfs.router()))
        with pytest.raises(HandlerError):
            broker.write("rt.nroutes", "9")

    def test_list_handlers(self):
        broker = HandlerBroker(ProcessingGraph.from_text(nfs.router()))
        handlers = broker.list_handlers("rt")
        assert "nroutes" in handlers and "class" in handlers

    def test_dump(self):
        binary = build_router()
        binary.driver.run_batches(2)
        dump = HandlerBroker(binary.graph).dump()
        assert "rt :: RadixIPLookup" in dump
        assert "nroutes: 5" in dump


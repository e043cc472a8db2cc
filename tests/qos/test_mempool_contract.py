"""The unified empty-pool contract: exhaustion degrades through counters.

Every allocation site -- single get, RX replenish, clone --
reports exhaustion on the same ledger (``empty_gets`` at the pool, then
``rx_nombuf`` / ``clone_alloc_failures`` at the caller) instead of
letting an exception reach the hot path.
"""

import pytest

from repro.dpdk.mempool import Mempool, MempoolEmptyError
from repro.hw.layout import AddressSpace

from tests.qos.conftest import build_qos_forwarder, incast_trace, run_to_eof

pytestmark = pytest.mark.qos


def pool(n=4):
    return Mempool(AddressSpace(seed=0), n=n)


class TestEmptyPoolContract:
    def test_try_get_degrades_to_none(self):
        p = pool(n=1)
        assert p.try_get() is not None
        assert p.try_get() is None
        assert p.empty_gets == 1

    def test_get_raises_on_control_path(self):
        p = pool(n=1)
        p.get()
        with pytest.raises(MempoolEmptyError):
            p.get()
        assert p.empty_gets == 1  # raise and counter share one ledger


class TestCongestedRunsStayOnContract:
    def test_incast_run_never_raises_and_ledgers_balance(self):
        # Congestion parks packets in queues, the closest this stack gets
        # to pool pressure; the run must finish on counters alone.
        for pfc in (False, True):
            binary = build_qos_forwarder(pfc=pfc, trace=incast_trace(limit=800))
            run_to_eof(binary.driver)
            mempool = binary.driver._model.mempool
            assert mempool.gets - mempool.puts == mempool.in_flight

    def test_exhaustion_counters_start_clean(self):
        binary = build_qos_forwarder(pfc=True, trace=incast_trace(limit=200))
        run_to_eof(binary.driver)
        # Ample pool: the degradation path exists but never fires here.
        assert binary.driver.stats.clone_alloc_failures == 0
        assert binary.driver.stats.rx_nombuf == 0

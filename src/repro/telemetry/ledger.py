"""The drop ledger schema, defined once.

Every drop is counted in exactly one cell.  A NIC port counts its
hardware drops cumulatively, as real xstats do, under ``nic.<port>.``
(:data:`NIC_FIELDS`).  At the end of each run the driver writes the
port-summed delta since the last stats reset under ``driver.hw.``, and
:class:`repro.click.driver.RunStats` reads its ``rx_nombuf``,
``imissed``, ``rx_errors`` and ``tx_full`` straight from those cells.
Software incidents -- pipeline kills (``driver.drops``), element
error-boundary incidents (``driver.error_batches``) and watchdog
recoveries (``driver.watchdog_resets``) -- are counted once, by the
driver.  The perf counters (``cpu.*``) hold microarchitectural events
only; :meth:`RunStats.ledger` is the one place the ledger is renamed
into a measured run's counter dict.
"""

from __future__ import annotations

#: Every xstat a NIC port exposes, in DPDK display order.
NIC_FIELDS = (
    "rx_nombuf",        # RX replenish failed: mempool empty
    "imissed",          # frame arrived with no posted descriptor
    "rx_errors",        # damaged frames discarded by the PMD
    "rx_truncated",     # ... of which runt/short frames
    "rx_corrupt",       # ... of which checksum failures
    "tx_full",          # packets refused because the TX path was full
    "link_down_polls",  # polls answered while the link was down
    "cqe_stalls",       # polls answered while completions stalled
    "rx_underruns",     # polls that found no frame ready
)

#: Ledger entries that mark a run as fault-degraded, with display labels.
#: Order matters: reports render in this order.
LEDGER_FIELDS = (
    ("rx_nombuf", "RX alloc failures (rx_nombuf)"),
    ("imissed", "no-descriptor drops (imissed)"),
    ("rx_errors", "damaged frames dropped (rx_errors)"),
    ("tx_full", "TX backpressure refusals (tx_full)"),
    ("element_errors", "element error-boundary incidents"),
    ("watchdog_resets", "watchdog recoveries"),
)

#: Just the ledger counter names, in report order.
LEDGER_NAMES = tuple(name for name, _ in LEDGER_FIELDS)

#: Second-order NIC detail counters reports append when nonzero.
HW_DETAIL_NAMES = tuple(name for name in NIC_FIELDS if name not in LEDGER_NAMES)

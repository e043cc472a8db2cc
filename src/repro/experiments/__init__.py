"""Experiment reproductions: one module per paper figure/table.

Every module exposes:

- ``run(scale)`` -> a result object (rows of measurements),
- ``check(result)`` -> asserts the paper's qualitative claims hold,
- ``format_table(result)`` -> the printable rows the paper reports.

``scale`` is a :class:`repro.experiments.common.Scale`: ``SMOKE`` is the
CI size, ``QUICK`` keeps runtimes sane and ``FULL`` sweeps the paper's
full grids.  ``python -m repro.experiments.report`` is the one runner.
"""

from repro.experiments.common import FULL, QUICK, SMOKE, Scale

__all__ = ["FULL", "QUICK", "SMOKE", "Scale"]

"""The ``REPRO_*`` environment variables, read in one place.

Three variables tune a whole process; each is read per call, so tests
can flip it:

- ``REPRO_CACHE`` -- the execution caches: on (``1``/``true``/``on``/
  ``yes``, the default) or off (``0``/``false``/``off``/``no``).
- ``REPRO_JOBS`` -- sweep worker count, a positive integer (default: the
  CPU count).
- ``REPRO_SWEEP`` -- ``serial`` runs every sweep in-process, as one
  job whatever ``jobs=`` says; ``auto`` (the default) and ``parallel``
  are the same value: ``REPRO_JOBS`` workers.

An unset or empty variable takes its default.  Any other value raises
:class:`EnvVarError` naming the variable, the value and what it accepts;
spellings are matched exactly, so ``Serial`` is refused like ``seriall``.
"""

from __future__ import annotations

import os
from typing import Optional

_ON = ("1", "true", "on", "yes")
_OFF = ("0", "false", "off", "no")
_CACHE = {**{word: True for word in _ON}, **{word: False for word in _OFF}}
_SWEEP = {mode: mode for mode in ("auto", "serial", "parallel")}


class EnvVarError(ValueError):
    """A ``REPRO_*`` variable holds a value it does not accept."""


def _refuse(name: str, value: str, expected: str) -> EnvVarError:
    return EnvVarError("%s=%r is not valid (expected %s)"
                       % (name, value, expected))


def _lookup(name: str, table: dict, default):
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        return table[raw]
    except KeyError:
        raise _refuse(name, raw, "one of " + "/".join(table)) from None


def cache_enabled() -> bool:
    """Whether ``REPRO_CACHE`` leaves the execution caches on."""
    return _lookup("REPRO_CACHE", _CACHE, True)


def jobs() -> Optional[int]:
    """The ``REPRO_JOBS`` worker count, or ``None`` when unset."""
    raw = os.environ.get("REPRO_JOBS", "")
    if not raw:
        return None
    if raw.isdigit() and int(raw) > 0:
        return int(raw)
    raise _refuse("REPRO_JOBS", raw, "a positive integer")


def sweep_mode() -> str:
    """``"auto"``, ``"serial"`` or ``"parallel"`` from ``REPRO_SWEEP``."""
    return _lookup("REPRO_SWEEP", _SWEEP, "auto")


__all__ = [
    "EnvVarError",
    "cache_enabled",
    "jobs",
    "sweep_mode",
]

"""The REPRO_* variables: a bad value fails by name where it is read."""

import pytest

from repro.exec import cache as exec_cache
from repro.exec.env import EnvVarError
from repro.exec.sweep import SweepEngine, default_jobs


@pytest.mark.parametrize("name, value, read", [
    ("REPRO_CACHE", "disable", lambda: exec_cache.point_get("spec")),
    ("REPRO_JOBS", "abc", default_jobs),
    ("REPRO_JOBS", "0", default_jobs),
    ("REPRO_SWEEP", "Serial", SweepEngine),
    ("REPRO_SWEEP", "seriall", SweepEngine),
])
def test_bad_value_is_refused_by_name(monkeypatch, name, value, read):
    monkeypatch.setenv(name, value)
    with pytest.raises(EnvVarError, match="%s=%r" % (name, value)) as info:
        read()
    assert isinstance(info.value, ValueError)

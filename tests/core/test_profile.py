"""RunProfile: the one declaration of every PacketMill build field."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.core.profile import ProfileError, RunProfile
from repro.faults.schedule import FaultSchedule
from repro.hw.params import DEFAULT_PARAMS, MachineParams
from repro.net.rss import RssConfig
from repro.qos import QosConfig
from repro.telemetry import TelemetryConfig

FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(RunProfile))


def test_defaults_match_packetmill_defaults():
    mill = PacketMill(router())
    assert mill.profile == RunProfile()
    assert mill.options == BuildOptions.vanilla()
    assert mill.params == DEFAULT_PARAMS


def test_kwargs_shim_builds_the_same_profile():
    options = BuildOptions.packetmill()
    params = MachineParams().at_frequency(2.3)
    mill = PacketMill(router(), options, params=params, seed=3,
                      telemetry=True)
    assert mill.profile == RunProfile(options=options, params=params,
                                      seed=3, telemetry=True)


def test_with_overrides_is_a_functional_update():
    base = RunProfile(options=BuildOptions.packetmill(), seed=1)
    swept = base.with_overrides(seed=2, telemetry=True)
    assert base.seed == 1 and base.telemetry is None
    assert swept.seed == 2 and swept.telemetry is True
    assert swept.options == base.options


def test_describe_lists_only_non_defaults():
    assert RunProfile().describe() == "(defaults)"
    text = RunProfile(seed=9, telemetry=True).describe()
    assert "seed=9" in text and "telemetry=True" in text
    assert "n_cores" not in text


def _trace_factory(port, core):  # pragma: no cover - never called
    raise AssertionError("construction must not pull a trace")


#: One non-default value per RunProfile field.
SAMPLE_FIELDS = {
    "options": BuildOptions.packetmill(),
    "params": MachineParams().at_frequency(2.3),
    "trace": _trace_factory,
    "seed": 3,
    "faults": FaultSchedule(),
    "watchdog_threshold": 7,
    "telemetry": TelemetryConfig(),
    "qos": QosConfig(),
    "n_cores": 2,
    "rss": RssConfig(),
}


def test_samples_cover_every_field():
    assert set(SAMPLE_FIELDS) == FIELD_NAMES


@pytest.mark.parametrize("name", sorted(SAMPLE_FIELDS))
def test_every_field_is_a_packetmill_keyword(name):
    value = SAMPLE_FIELDS[name]
    mill = PacketMill(router(), **{name: value})
    assert getattr(mill.profile, name) is value
    assert mill.profile == RunProfile(**{name: value})


@pytest.mark.parametrize("name, call", [
    ("facts", lambda: PacketMill(router(), facts=True)),
    ("tier", lambda: PacketMill(router(), tier="codegen")),
    ("burst", lambda: PacketMill(router(), burst=16)),
    ("bogus", lambda: PacketMill(router(), bogus=1)),
    ("bogus", lambda: RunProfile().with_overrides(bogus=1)),
], ids=["packetmill-facts", "packetmill-tier", "packetmill-burst",
        "packetmill-bogus", "with-overrides-bogus"])
def test_unknown_field_is_refused_by_name(name, call):
    with pytest.raises(ProfileError, match="unknown RunProfile field %r"
                       % name) as info:
        call()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("name, value", [
    ("n_cores", 0), ("n_cores", -2), ("n_cores", 1.0), ("seed", "x"),
    ("seed", None), ("options", "packetmill"), ("params", 3), ("trace", 5),
    ("faults", 7), ("watchdog_threshold", "x"), ("watchdog_threshold", 0),
    ("telemetry", "yes"), ("qos", 1), ("rss", 2),
])
def test_bad_value_is_refused_by_name(name, value):
    message = "RunProfile field %r must be" % name
    with pytest.raises(ProfileError, match=message):
        PacketMill(router(), **{name: value})
    with pytest.raises(ProfileError, match=message):
        RunProfile().with_overrides(**{name: value})


def test_every_unknown_field_is_named():
    with pytest.raises(ProfileError, match="'bogus', 'facts'"):
        PacketMill(router(), facts=True, seed=1, bogus=2)


_identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True)


@settings(max_examples=60, deadline=None)
@given(name=_identifiers.filter(lambda name: name not in FIELD_NAMES))
def test_any_non_field_identifier_is_refused(name):
    with pytest.raises(ProfileError, match=repr(name)):
        RunProfile().with_overrides(**{name: 1})
    with pytest.raises(ProfileError, match=repr(name)):
        PacketMill(router(), **{name: 1})

"""Experiment payloads against the digests pinned in digests.json."""

import pytest

from repro.exec import cache as exec_cache
from repro.experiments import ablations, fig04, fig08, table1
from repro.experiments.common import SMOKE
from repro.experiments.report import MODULES
from tests.experiments import digests


@pytest.fixture(autouse=True)
def fresh_caches():
    exec_cache.reset_caches()
    yield
    exec_cache.reset_caches()


def test_every_experiment_is_pinned():
    expected = {name for _, name in MODULES if name != "ablations"}
    expected |= {"ablations.%s" % name for name in ablations.ALL}
    for scale in digests.SCALES:
        assert set(digests.load(scale)) == expected, scale


@pytest.mark.parametrize("module", [fig04, fig08, table1],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_smoke_payload_matches_pinned_digest(module):
    result = module.run(SMOKE)
    name = result.name
    assert digests.sha256(result.to_dict()) == digests.load()[name], (
        "%s's SMOKE payload moved; if that is intended, regenerate "
        "digests.json as tests/experiments/digests.py says" % name)

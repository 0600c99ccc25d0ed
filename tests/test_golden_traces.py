"""Replay the checked-in golden spike traces through every engine mode.

The differential conformance suite proves the engines agree with *each
other*; these fixtures pin them to rasters recorded at a known-good
revision, so a semantic regression is caught even if all engines drift
together. The generator (``tests/fixtures/golden/generate.py``) emits
from a single source of truth — the reference engine — and refuses to
write a fixture any registered engine fails to reproduce; a test here
asserts regeneration is byte-idempotent against the committed files.
Regenerate intentionally with
``PYTHONPATH=src:. python tests/fixtures/golden/generate.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.truenorth.simulator import ENGINES, Simulator

from tests.engine_systems import (
    ALL_MODES,
    CASES_BY_NAME,
    ENGINE_CASES,
    shared_inputs,
)
from tests.fixtures.golden.generate import case_payload, render

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))


def _load(path):
    return json.loads(path.read_text())


def _golden_rasters(payload):
    rasters = {}
    for name, probe in payload["probes"].items():
        raster = np.zeros((payload["ticks"], probe["width"]), dtype=bool)
        for tick, line in probe["spikes"]:
            raster[tick, line] = True
        rasters[name] = raster
    return rasters


def test_every_case_has_a_golden_trace():
    assert {path.stem for path in GOLDEN_FILES} == set(CASES_BY_NAME)


def test_goldens_were_verified_against_every_registered_engine():
    """A new engine forces regeneration: stale fixtures fail loudly."""
    for path in GOLDEN_FILES:
        assert _load(path)["verified_engines"] == list(ENGINES), (
            f"{path.name} predates an engine registration; regenerate"
        )


@pytest.mark.parametrize("engine", ALL_MODES, indirect=True)
@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[path.stem for path in GOLDEN_FILES]
)
def test_engine_reproduces_golden_trace(path, engine):
    payload = _load(path)
    case = CASES_BY_NAME[payload["case"]]
    assert case.ticks == payload["ticks"], "fixture is stale; regenerate"
    assert (case.sim_seed, case.input_seed, case.density) == (
        payload["sim_seed"],
        payload["input_seed"],
        payload["density"],
    ), "fixture is stale; regenerate"

    simulator = Simulator(case.build(), rng=case.sim_seed, engine=engine)
    inputs = shared_inputs(
        simulator.system, case.ticks, case.input_seed, case.density
    )
    result = simulator.run(case.ticks, inputs)

    expected = _golden_rasters(payload)
    assert result.probe_spikes.keys() == expected.keys()
    for name, raster in expected.items():
        np.testing.assert_array_equal(result.probe_spikes[name], raster)
    assert result.total_spikes == payload["total_spikes"]


@pytest.mark.parametrize(
    "case", ENGINE_CASES, ids=[case.name for case in ENGINE_CASES]
)
def test_regeneration_is_idempotent(case):
    """Committed fixture bytes == a fresh run of the generator."""
    committed = (GOLDEN_DIR / f"{case.name}.json").read_text()
    assert render(case_payload(case)) == committed, (
        f"{case.name}.json is stale; rerun tests/fixtures/golden/generate.py "
        "and review the diff as a semantic change"
    )

"""Shared fixtures: small, session-cached instances of expensive objects."""

import numpy as np
import pytest

from repro.datasets import SyntheticPersonDataset
from repro.experiments.setup import ExperimentData
from repro.parrot import ParrotExtractor, train_parrot

from tests.engine_systems import engine_mode


@pytest.fixture(scope="session")
def tiny_parrot():
    """A quickly trained parrot network shared across tests."""
    network, dataset, diagnostics = train_parrot(
        hidden=128, n_samples=1200, epochs=10, rng=11
    )
    return network, dataset, diagnostics


@pytest.fixture(scope="session")
def tiny_parrot_extractor(tiny_parrot):
    """Analog parrot extractor over the session network."""
    network, _, _ = tiny_parrot
    return ParrotExtractor(network)


@pytest.fixture(scope="session")
def small_dataset():
    """A seeded synthetic dataset generator."""
    return SyntheticPersonDataset(rng=2024)


@pytest.fixture(scope="session")
def small_split():
    """A miniature train/test split for pipeline tests."""
    dataset = SyntheticPersonDataset(rng=31)
    return ExperimentData(
        positive_windows=dataset.positive_windows(40),
        negative_windows=dataset.negative_windows(80),
        negative_images=dataset.negative_images(2, (160, 200)),
        test_scenes=dataset.test_scenes(6, (176, 224), max_people=1),
    )


@pytest.fixture()
def engine(request):
    """The ``Simulator`` engine of an indirectly parametrized mode.

    Parametrize with ``indirect=True`` over ``"reference"`` and
    :data:`tests.engine_systems.BATCH_MODES`; a pinned mode stays in
    force for the whole test.
    """
    with engine_mode(request.param) as name:
        yield name


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)

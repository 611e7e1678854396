import pytest

from qalloc import harness, modelio, nn
from qalloc.probes import ProbeConfig


@pytest.fixture(scope="session")
def fixture_model():
    return modelio.gen_model(modelio.default_fixture())


@pytest.fixture(scope="session")
def fixture_dataset(fixture_model):
    return modelio.gen_dataset(fixture_model, 2000, seed=modelio.default_fixture().seed + 1)


@pytest.fixture(scope="session")
def fixture_cache(fixture_model, fixture_dataset):
    """The baseline prefix cache the model-bound checks take (one forward, shared)."""
    return nn.prefix_cache(fixture_model, fixture_dataset.inputs)


@pytest.fixture(scope="session")
def fixture_profiles(fixture_model, fixture_dataset):
    """Calibration profiles at the default probe configuration (shared; costly)."""
    return harness.run_pipeline(fixture_model, fixture_dataset, ProbeConfig(seed=0))

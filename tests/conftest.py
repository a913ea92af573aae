from pathlib import Path

import pytest

from fetchguard import ContextSnapshot, DecisionEngine, PolicyConfig, default_config

#: The shipped household as it was before cool-downs were roster-scoped,
#: frozen byte for byte: most committed golden lines were decided under it.
GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"


@pytest.fixture(scope="session")
def shipped_config():
    # One shared instance so validation is memoized across the whole run.
    return default_config()


@pytest.fixture(scope="session")
def golden_config():
    return PolicyConfig.load(GOLDEN_CONFIG)


@pytest.fixture()
def engine(shipped_config):
    return DecisionEngine(shipped_config)


@pytest.fixture()
def friendly_context():
    return ContextSnapshot(room="kitchen", adult_present=True, verbal_affirmation=True, timestamp=0)

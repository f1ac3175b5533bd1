"""Value records: the wire messages, card, config and transcript records
are immutable, and the config keeps its defaults."""

import pytest

from cardauthsim.adversary import CardSecrets, RegistrationRecord
from cardauthsim.blocks import ONES_BLOCK, ZERO_BLOCK, Block
from cardauthsim.harness import Event, ScenarioConfig, Transcript
from cardauthsim.scheme import DEFAULT_WINDOW, LoginRequest, ServerResponse, UserSession

SALT = Block(bytes(range(32)))

FROZEN = [
    LoginRequest("alice", ZERO_BLOCK, 10),
    ServerResponse(ONES_BLOCK, 11),
    UserSession(ZERO_BLOCK, 10),
    CardSecrets(ZERO_BLOCK, ONES_BLOCK, SALT),
    RegistrationRecord(ZERO_BLOCK, ONES_BLOCK, SALT),
    Event(0, 0, "server", "state-change", {"action": "x"}),
    ScenarioConfig("honest"),
    Transcript(ScenarioConfig("honest"), ()),
]


@pytest.mark.parametrize("record", FROZEN, ids=lambda record: type(record).__name__)
def test_frozen_records_reject_attribute_assignment(record):
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_config_defaults_and_keyword_construction():
    assert ScenarioConfig("honest") == ScenarioConfig("honest", 0, DEFAULT_WINDOW, None)
    config = ScenarioConfig(scenario="parallel-session", window=3, seed=9)
    assert (config.scenario, config.seed, config.window, config.dictionary_path) == (
        "parallel-session", 9, 3, None)
    assert ScenarioConfig.from_obj(config.to_obj()) == config

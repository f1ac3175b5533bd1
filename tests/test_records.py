"""The scenario config: immutable, with its defaults."""

import pytest

from cardauthsim.harness import ScenarioConfig
from cardauthsim.scheme import DEFAULT_WINDOW


def test_config_rejects_attribute_assignment():
    # the only check of ScenarioConfig's `__slots__ = ()`, a line no operator edits:
    # a NamedTuple's subclass without it takes new attributes
    for name in ("seed", "extra"):
        with pytest.raises(AttributeError):
            setattr(ScenarioConfig("honest"), name, 1)


def test_config_defaults_and_keyword_construction():
    # pins ScenarioConfig's documented defaults: the one killer of
    # `ScenarioConfig.__new__`'s `0 to 1` on `seed: int = 0`
    assert ScenarioConfig("honest") == ScenarioConfig("honest", 0, DEFAULT_WINDOW, None)
    config = ScenarioConfig(scenario="parallel-session", window=3, seed=9)
    assert (config.scenario, config.seed, config.window, config.dictionary_path) == (
        "parallel-session", 9, 3, None)
    assert ScenarioConfig.from_obj(config.to_obj()) == config

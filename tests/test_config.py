import pytest

from gforge.config import Caps, load_caps
from gforge.errors import ParseError


def test_load_caps_defaults_and_override(monkeypatch):
    assert load_caps(env="") == Caps()
    assert load_caps(env='{"group_order": 1024, "budget": 7}') == Caps(group_order=1024,
                                                                      budget=7)
    monkeypatch.setenv("GFORGE_CAPS", '{"word_bound": 3}')
    assert load_caps() == Caps(word_bound=3)


@pytest.mark.parametrize("env, message", [
    ("{", "GFORGE_CAPS is not valid JSON: Expecting property name enclosed in double "
          "quotes: line 1 column 2 (char 1)"),
    ("[1, 2]", "GFORGE_CAPS must be a JSON object"),
    ('{"budget": 5, "speed": 1, "mode": 2}',
     "GFORGE_CAPS has unknown keys: ['mode', 'speed']"),
    ('{"budget": true}', "GFORGE_CAPS['budget'] must be a positive integer"),
    ('{"group_order": 0}', "GFORGE_CAPS['group_order'] must be a positive integer"),
    ('{"h2_subgroup": -4}', "GFORGE_CAPS['h2_subgroup'] must be a positive integer"),
], ids=["invalid-json", "not-an-object", "unknown-key", "bool", "zero", "negative"])
def test_load_caps_rejects(env, message):
    with pytest.raises(ParseError) as err:
        load_caps(env=env)
    assert str(err.value) == message

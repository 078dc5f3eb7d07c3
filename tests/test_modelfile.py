import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactchain import FLOAT, MarkovChain, RewardChain
from exactchain.errors import (
    ModelIOError,
    ModelParseError,
    NegativeCostError,
    NegativeProbabilityError,
    RowSumNotOneError,
)
from exactchain.modelfile import (
    load_model,
    loads_model,
    model_to_dict,
    parse_model,
    save_model,
)
from exactchain.zeroconf import PAPER_TYPICAL, build_zeroconf

SIMPLE = {
    "states": ["a", "b"],
    "transitions": [
        {"from": "a", "to": "a", "prob": "1/2"},
        {"from": "a", "to": "b", "prob": "0.5"},
        {"from": "b", "to": "b", "prob": 1},
    ],
}


def test_parse_simple_model():
    chain = parse_model(SIMPLE)
    assert isinstance(chain, MarkovChain)
    assert chain.prob("a", "a") == F(1, 2)
    assert chain.prob("a", "b") == F(1, 2)  # decimal string, parsed exactly


def test_json_decimal_literals_are_exact():
    text = json.dumps({
        "states": ["a", "b"],
        "transitions": [
            {"from": "a", "to": "b", "prob": 0.01},
            {"from": "a", "to": "a", "prob": 0.99},
            {"from": "b", "to": "b", "prob": 1},
        ],
    })
    chain = loads_model(text)
    assert chain.prob("a", "b") == F(1, 100)


def test_rational_strings():
    text = json.dumps({
        "states": ["a", "b"],
        "transitions": [
            {"from": "a", "to": "b", "prob": "16/65024"},
            {"from": "a", "to": "a", "prob": "65008/65024"},
            {"from": "b", "to": "b", "prob": "1"},
        ],
    })
    assert loads_model(text).prob("a", "b") == F(16, 65024)


def test_rewards_promote_to_reward_chain(tmp_path):
    rchain = build_zeroconf(PAPER_TYPICAL)
    path = tmp_path / "zeroconf.json"
    save_model(rchain, path)
    loaded = load_model(path)
    assert isinstance(loaded, RewardChain)
    assert set(loaded.chain.states) == set(rchain.chain.states)
    assert dict(((u, v), p) for u, v, p in loaded.chain.edges()) == dict(
        ((u, v), p) for u, v, p in rchain.chain.edges()
    )
    assert dict(((u, v), c) for u, v, c in loaded.cost_edges()) == dict(
        ((u, v), c) for u, v, c in rchain.cost_edges()
    )


def test_round_trip_is_lossless():
    chain = parse_model(SIMPLE)
    assert parse_model(model_to_dict(chain)).prob("a", "a") == F(1, 2)


def test_float_mode_load():
    chain = parse_model(SIMPLE, mode=FLOAT)
    assert chain.mode == FLOAT
    assert chain.prob("a", "b") == 0.5


# A JSON number: a sign, up to 25 significant digits, and an exponent
# from -400 to 400, written in each of JSON's forms.
JSON_NUMBER = st.builds(
    "{}{}{}".format,
    st.from_regex(r"-?(0|[1-9][0-9]{0,12})", fullmatch=True),
    st.from_regex(r"(\.[0-9]{1,12})?", fullmatch=True),
    st.one_of(st.just(""), st.builds("{}{:+d}".format, st.sampled_from("eE"),
                                     st.integers(-400, 400))),
)
ONE_STATE = ('{"states": ["a"], "transitions": [{"from": "a", "to": "a", "prob": 1}],'
             ' "rewards": [{"from": "a", "to": "a", "cost": %s}]}')


@settings(max_examples=300, deadline=None)
@given(text=JSON_NUMBER)
def test_float_model_costs_are_the_nearest_float_to_their_json_text(text):
    # JSON numbers are read exactly in both modes and converted on
    # validation, so a float model holds float(text), bit for bit.
    value = float(text)
    if math.isinf(value) or value < 0:
        with pytest.raises(NegativeCostError):
            loads_model(ONE_STATE % text, mode=FLOAT)
        return
    costs = loads_model(ONE_STATE % text, mode=FLOAT).cost_row_by_index(0)
    if value == 0:
        assert dict(costs) == {}
    else:
        assert costs[0].hex() == value.hex()


def test_float_overflow_message_quotes_the_exact_value():
    # As in exact mode: the value is read exactly before it overflows.
    with pytest.raises(NegativeProbabilityError, match=f"probability 1{'0' * 400}$"):
        loads_model('{"states": ["a"], "transitions": [{"from": "a", "to": "a", "prob": 1e400}]}',
                    mode=FLOAT)


def test_missing_file():
    with pytest.raises(ModelIOError):
        load_model("/nonexistent/model.json")


def test_invalid_json():
    with pytest.raises(ModelParseError, match="invalid JSON"):
        loads_model("{not json")


def test_schema_errors():
    with pytest.raises(ModelParseError, match="top level"):
        parse_model([1, 2])
    with pytest.raises(ModelParseError, match="unknown top-level"):
        parse_model({**SIMPLE, "bogus": 1})
    with pytest.raises(ModelParseError, match="states"):
        parse_model({"states": "ab", "transitions": []})
    with pytest.raises(ModelParseError, match="keys"):
        parse_model({"states": ["a"], "transitions": [{"from": "a", "p": 1}]})
    with pytest.raises(ModelParseError, match="duplicate"):
        parse_model({
            "states": ["a"],
            "transitions": [
                {"from": "a", "to": "a", "prob": "1/2"},
                {"from": "a", "to": "a", "prob": "1/2"},
            ],
        })
    with pytest.raises(ModelParseError, match="cannot parse"):
        parse_model({"states": ["a"],
                     "transitions": [{"from": "a", "to": "a", "prob": "x/y"}]})
    # Edges must name declared states; an unknown state is a query's error.
    with pytest.raises(ModelParseError, match="undeclared state 'zz'"):
        parse_model({"states": ["a"],
                     "transitions": [{"from": "a", "to": "zz", "prob": 1}]})


def test_semantic_errors_pass_through():
    with pytest.raises(RowSumNotOneError):
        parse_model({
            "states": ["a", "b"],
            "transitions": [
                {"from": "a", "to": "a", "prob": "1/2"},
                {"from": "a", "to": "b", "prob": "1/3"},
                {"from": "b", "to": "b", "prob": 1},
            ],
        })

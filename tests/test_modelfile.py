import json
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactchain import EXACT, FLOAT, MarkovChain, RewardChain
from exactchain.chain import MAX_DECIMAL_EXPONENT, arithmetic
from exactchain.errors import (
    LiteralRangeError,
    ModelIOError,
    ModelParseError,
    NegativeCostError,
    NegativeProbabilityError,
    RowSumNotOneError,
)
from exactchain.modelfile import (
    _decode,
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


def json_numbers(exponents):
    """JSON number texts: a sign, up to 41 integer and 700 fraction digits, then ``exponents``."""
    return st.builds(
        "{}{}{}".format,
        st.from_regex(r"-?(0|[1-9][0-9]{0,40})", fullmatch=True),
        st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=700).map(".".__add__)),
        exponents,
    )


def exponents(magnitudes):
    return st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                     magnitudes)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.just("-0.0"), json_numbers(st.one_of(
    st.just(""), exponents(st.integers(0, MAX_DECIMAL_EXPONENT))))))
def test_json_numbers_load_as_the_fraction_of_their_text(text):
    # In both modes the model holds what Fraction(text) reads, converted.
    value = _decode(text)
    assert value == F(text)
    assert type(value) is (int if re.fullmatch(r"-?[0-9]+", text) else F)
    cost = text.lstrip("-")
    for mode in (EXACT, FLOAT):
        want = arithmetic(mode).read(F(cost))
        if want is None:  # past the float range
            with pytest.raises(NegativeCostError):
                loads_model(ONE_STATE % cost, mode=mode)
            continue
        got = loads_model(ONE_STATE % cost, mode=mode).cost("a", "a")
        assert got == want and type(got) is type(want)


@settings(max_examples=100, deadline=None)
@given(text=json_numbers(exponents(st.integers(MAX_DECIMAL_EXPONENT + 1, 10**30))))
def test_json_numbers_past_the_exponent_bound_are_range_errors(text):
    with pytest.raises(LiteralRangeError):
        _decode(text)


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

import ast
import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exactchain
from exactchain import chain as chain_module
from exactchain import (
    EXACT, FLOAT, analysis, format_scalar, info, linalg, parse_scalar, validate_chain,
    validate_reward,
)
from exactchain.chain import (
    MAX_DECIMAL_EXPONENT, ROW_SUM_TOL, MarkovChain, _entry_rows, _read_literal, _total,
    arithmetic,
)
from exactchain.crowds import FIG3, build_crowds, crowds_report, make_params
from exactchain.zeroconf import PAPER_TYPICAL, build_zeroconf, zeroconf_report
from exactchain.errors import (
    EmptyStateSpaceError,
    InvalidDistributionError,
    InvalidParamsError,
    LiteralRangeError,
    NegativeCostError,
    NegativeProbabilityError,
    RowSumNotOneError,
    UnknownStateError,
)
from _support import random_chain


def zeroconf_tables(n=2, p=F(1, 100), q=F(16, 65024), r=F(1, 500), e=F(3600)):
    """The address-allocation chain written out by hand."""
    states = ["Start", "Ok", "Error"] + [f"Probe {i}" for i in range(n + 1)]
    trans = {
        ("Start", "Probe 0"): q,
        ("Start", "Ok"): 1 - q,
        ("Ok", "Ok"): F(1),
        ("Error", "Error"): F(1),
    }
    cost = {("Start", "Probe 0"): r, ("Start", "Ok"): r * (n + 1)}
    for i in range(n + 1):
        nxt = f"Probe {i + 1}" if i < n else "Error"
        trans[(f"Probe {i}", nxt)] = p
        trans[(f"Probe {i}", "Start")] = 1 - p
        cost[(f"Probe {i}", nxt)] = r if i < n else e
    return states, trans, cost


def test_accepts_zeroconf_transition_matrix():
    states, trans, _ = zeroconf_tables()
    chain = validate_chain(states, trans)
    assert len(chain.states) == 6
    assert chain.prob("Start", "Probe 0") == F(16, 65024)


def test_accepts_single_absorbing_state():
    chain = validate_chain(["a"], {("a", "a"): F(1)})
    assert chain.successors("a") == {"a"}


def test_row_sum_not_one_rejected():
    with pytest.raises(RowSumNotOneError) as err:
        validate_chain(["a", "b"], {("a", "a"): F(1, 2), ("a", "b"): F(1, 3),
                                    ("b", "b"): F(1)})
    assert err.value.state == "a"
    assert err.value.actual == F(5, 6)
    # A row off by 1/10**40 either way, its total in full.
    for off in (F(1, 10**40), -F(1, 10**40)):
        with pytest.raises(RowSumNotOneError) as err:
            validate_chain(["a", "b"], {("a", "a"): F(1, 3), ("a", "b"): F(2, 3),
                                        ("b", "a"): F(1, 7), ("b", "b"): F(6, 7) + off})
        assert err.value.state == "b"
        assert err.value.actual == 1 + off
        assert str(err.value) == f"row of state 'b' sums to {1 + off}, expected 1"


def test_a_row_with_no_entries_sums_to_the_zero_of_its_arithmetic():
    # A row total is the arithmetic's frac of its numerators over their
    # denominator, so an empty float row sums to 0.0, as every float total does.
    for mode, text in ((EXACT, "0"), (FLOAT, "0.0")):
        with pytest.raises(RowSumNotOneError) as err:
            validate_chain(["a", "b"], {("a", "a"): 1}, mode)
        assert err.value.state == "b"
        assert repr(err.value.actual) == repr(arithmetic(mode).zero)
        assert str(err.value) == f"row of state 'b' sums to {text}, expected 1"


def test_float_sums_add_left_to_right_on_every_python():
    # Builtin sum compensates floats from Python 3.12, where ten 0.1s add to
    # 1.0 and ten 0.1s and a 0.2 to 1.2000000000000002. Left to right they
    # add to 0.9999999999999999 and 1.2 on every version, which keeps float
    # results the same across versions.
    tenths = {f"t{i}": 0.1 for i in range(10)}
    below_one = 0.9999999999999999
    assert _total(tenths.values(), arithmetic(FLOAT)) == below_one
    assert analysis.Distribution(tenths, 0.0).total() == below_one
    # The float system's exit mass, for a row of ten 0.1s and a self-loop,
    # in a chain built unvalidated: the row sums to 1.5.
    row = dict(enumerate([*tenths.values(), 0.5]))
    loose = MarkovChain(tuple(range(11)), {}, (*[{}] * 10, row), arithmetic(FLOAT))
    assert arithmetic(FLOAT).system(loose, [10], False).tolist() == [[below_one]]
    chain = validate_chain(["s", *tenths], {**{("s", t): p for t, p in tenths.items()},
                                            **{(t, t): 1.0 for t in tenths}}, FLOAT)
    assert analysis._until_system(chain, {"s"}, set(tenths))[2] == [[below_one]]
    with pytest.raises(InvalidDistributionError, match=r"sums to 1\.2, expected 1"):
        info.entropy({**tenths, "x": 0.2})
    init = {f"J{i}": 0.1 for i in range(1, 11)} | {"J11": 0.2}
    with pytest.raises(InvalidParamsError, match=r"init sums to 1\.2, expected 1"):
        make_params(12, 1, F(1, 2), init)


def test_empty_state_space_rejected():
    with pytest.raises(EmptyStateSpaceError):
        validate_chain([], {})


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        validate_chain(["a", "a"], {("a", "a"): F(1)})


def test_unknown_state_in_transitions():
    with pytest.raises(UnknownStateError):
        validate_chain(["a"], {("a", "zz"): F(1)})
    with pytest.raises(UnknownStateError, match="zz"):
        validate_chain(["a"], {("zz", "a"): F(1)})


def test_negative_probability_rejected():
    with pytest.raises(NegativeProbabilityError):
        validate_chain(["a", "b"], {("a", "a"): F(3, 2), ("a", "b"): F(-1, 2),
                                    ("b", "b"): F(1)})


def test_exact_mode_rejects_floats():
    with pytest.raises(TypeError, match="exact mode"):
        validate_chain(["a"], {("a", "a"): 1.0})


def test_zero_entries_are_dropped():
    chain = validate_chain(["a", "b"], {("a", "a"): F(1), ("a", "b"): F(0),
                                        ("b", "b"): F(1)})
    assert chain.successors("a") == {"a"}
    assert chain.prob("a", "b") == 0


def test_float_mode_row_tolerance():
    ok = validate_chain(["a", "b"], {("a", "b"): 1.0 - 5e-10, ("b", "b"): 1.0},
                        mode=FLOAT)
    assert ok.mode == FLOAT
    with pytest.raises(RowSumNotOneError):
        validate_chain(["a", "b"], {("a", "b"): 1.0 - 1e-7, ("b", "b"): 1.0},
                       mode=FLOAT)


def row_sum_outcome(values, mode):
    """``None`` if ``validate_chain`` accepts a row of ``values`` (and an absorbing
    state for its targets), else the total its ``RowSumNotOneError`` carries."""
    targets = [f"t{i}" for i in range(len(values))]
    trans = {("s", t): v for t, v in zip(targets, values)}
    trans.update({(t, t): arithmetic(mode).one for t in targets})
    try:
        validate_chain(["s", *targets], trans, mode)
    except RowSumNotOneError as err:
        assert err.state == "s"
        return err.actual
    return None


ROW_OFFSETS = st.sampled_from([0, F(1, 10**40), -F(1, 10**40), F(1, 10**9), -F(1, 10**9),
                               F(1, 10**8), F(1, 3)])


@settings(max_examples=80, deadline=None)
@given(heads=st.lists(st.fractions(F(1, 10**6), F(1, 4), max_denominator=10**6),
                      min_size=0, max_size=3),
       off=ROW_OFFSETS, mode=st.sampled_from([EXACT, FLOAT]))
@example(heads=[], off=F(1, 10**40), mode=EXACT)
@example(heads=[F(1, 2), F(1, 4)], off=0, mode=FLOAT)
def test_row_sum_on_numerators_decides_and_totals_as_the_reduced_sum(heads, off, mode):
    # A row is accepted when its split numerators add up to its denominator;
    # any other row is judged on its reduced total, within ROW_SUM_TOL for
    # floats, and a rejected one carries that total.
    read = arithmetic(mode).read
    values = [read(v) for v in heads] + [read(1 - sum(heads, F(0)) + off)]
    total = _total(values, arithmetic(mode))
    expected = None if chain_module._sums_to_one(total) else total
    assert repr(row_sum_outcome(values, mode)) == repr(expected)


def test_only_a_row_whose_numerators_miss_its_denominator_builds_a_total(monkeypatch):
    # Rows that sum to exactly one never reach the reduced comparison.
    calls, sums_to_one = [], chain_module._sums_to_one
    monkeypatch.setattr(chain_module, "_sums_to_one",
                        lambda total: calls.append(total) or sums_to_one(total))
    build_zeroconf(PAPER_TYPICAL)
    build_crowds(FIG3)
    assert row_sum_outcome([0.5, 0.25, 0.25], FLOAT) is None
    assert calls == []
    assert row_sum_outcome([1.0 - 5e-10], FLOAT) is None
    assert row_sum_outcome([F(1, 3), F(2, 3) + F(1, 10**40)], EXACT) == 1 + F(1, 10**40)
    assert calls == [1.0 - 5e-10, 1 + F(1, 10**40)]


def test_float_row_sums_at_the_edges_of_the_tolerance():
    # One-entry rows: 1.0 and the last float within ROW_SUM_TOL of it on
    # each side are accepted; the next float out is rejected with itself as
    # the total.
    assert row_sum_outcome([1.0], FLOAT) is None
    for away in (0.0, 2.0):
        inside = 1 + math.copysign(ROW_SUM_TOL, away - 1)
        while abs(inside - 1) > ROW_SUM_TOL:
            inside = math.nextafter(inside, 1.0)
        while abs(math.nextafter(inside, away) - 1) <= ROW_SUM_TOL:
            inside = math.nextafter(inside, away)
        outside = math.nextafter(inside, away)
        assert inside != 1.0 and row_sum_outcome([inside], FLOAT) is None
        assert repr(row_sum_outcome([outside], FLOAT)) == repr(outside)


def test_float_mode_rejects_nan_and_inf():
    with pytest.raises(NegativeProbabilityError):
        validate_chain(["a"], {("a", "a"): math.nan}, mode=FLOAT)
    with pytest.raises(NegativeProbabilityError):
        validate_chain(["a"], {("a", "a"): math.inf}, mode=FLOAT)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("text", ["zz", "1/0", "nan", "1/" + "7" * 50 + "x" * 1_000_000,
                                  True, False, None, []],
                         ids=["zz", "1/0", "nan", "1MB", "True", "False", "None", "list"])
def test_malformed_strings_are_invalid_entries(mode, text):
    # A string that is no number is an invalid entry, in a message that
    # quotes it cut short, not a ValueError or ZeroDivisionError. So is a
    # bool, although it is an int, and any other value that is no number.
    with pytest.raises(NegativeProbabilityError) as err:
        validate_chain(["a"], {("a", "a"): text}, mode=mode)
    assert len(str(err.value)) < 500
    chain = validate_chain(["a"], {("a", "a"): "1"}, mode=mode)
    with pytest.raises(NegativeCostError) as err:
        validate_reward(chain, {("a", "a"): text})
    assert len(str(err.value)) < 500


def test_entry_rows_read_each_entry_once_through_the_reader():
    reads = []

    def read(raw):
        reads.append(raw)
        return arithmetic(EXACT).read(raw)

    entries = {("a", "a"): F(1, 2), ("a", "b"): F(1, 2), ("b", "a"): "1/2", ("b", "b"): "1/2",
               ("c", "a"): 0, ("c", "b"): 0, ("c", "c"): 1}
    arith = dataclasses.replace(arithmetic(EXACT), read=read)
    rows, splits = _entry_rows({"a": 0, "b": 1, "c": 2}, entries, arith, NegativeProbabilityError)
    assert reads == list(entries.values())  # every entry, in order; zeros are dropped
    assert [dict(row) for row in rows] == [{0: F(1, 2), 1: F(1, 2)}] * 2 + [{2: F(1)}]
    assert splits == [([1, 1], 2)] * 2 + [([1], 1)]  # the split of each row, for its checks

    # A value already in the arithmetic is passed through as the same object,
    # and float values split into themselves: the numerators are not a copy.
    half, quarter = F(1, 2), 0.25
    assert arithmetic(EXACT).read(half) is half
    assert arithmetic(FLOAT).read(quarter) is quarter
    values = [quarter]
    assert arithmetic(FLOAT).split(values) == (values, 1)
    assert arithmetic(FLOAT).split(values)[0] is values
    with pytest.raises(TypeError):
        arithmetic(EXACT).read(0.5)
    for mode in (EXACT, FLOAT):
        assert arithmetic(mode).read(True) is None
    assert arithmetic(FLOAT).read(math.nan) is None
    assert arithmetic(FLOAT).read(math.inf) is None
    assert arithmetic(FLOAT).read(-math.inf) is None


def reference_read(exact, value):
    """The reader as one function of the mode, a test-first path for every input: the reference."""
    if exact and isinstance(value, float):
        raise TypeError(
            f"exact mode rejects float {value!r}; pass a Fraction, an int, "
            f"or a string literal like '1/100'"
        )
    if type(value) is (F if exact else float):
        return value if exact or math.isfinite(value) else None
    if isinstance(value, bool):
        return None
    try:
        number = _read_literal(value) if isinstance(value, str) else value
        number = F(number) if exact else float(number)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        return None
    return number if exact or math.isfinite(number) else None


class FloatSubclass(float):
    pass


class FractionSubclass(F):
    pass


def outcome(read, value):
    """``(type, result)`` of ``read(value)``, or the type and message of what it raises."""
    try:
        result = read(value)
    except Exception as exc:  # the reference and the reader must raise alike
        return type(exc), str(exc)
    return type(result), result


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.integers(), st.booleans(), st.none(), st.floats(), st.fractions(),
    st.floats().map(FloatSubclass), st.fractions().map(lambda q: FractionSubclass(q)),
    st.text(max_size=12), st.text("0123456789+-./eE_ ", max_size=12),
    st.builds(str, st.floats()), st.builds(str, st.fractions()),
))
@example("1e400")
@example(f"1e{MAX_DECIMAL_EXPONENT + 1}")
@example("1/0")
@example(math.nan)
@example(-math.inf)
@example(FloatSubclass(math.inf))
@example(2**1100)
def test_readers_return_their_own_numbers_first_and_read_the_rest_as_the_reference(value):
    # Each arithmetic's reader returns a value already in it, the same
    # object, before any other test; any other input reads as the reference
    # reads it, or raises what the reference raises, subclasses of float
    # and Fraction included.
    for mode, exact in ((EXACT, True), (FLOAT, False)):
        read = arithmetic(mode).read
        if type(value) is (F if exact else float) and (exact or math.isfinite(value)):
            assert read(value) is value
        else:
            assert outcome(read, value) == outcome(partial(reference_read, exact), value)


@pytest.mark.parametrize("first, raw, error", [
    (F(1, 2), 0.5, TypeError),  # exact mode rejects a float equal to a Fraction it read
    (1, True, NegativeProbabilityError),  # a bool is no number, although True == 1
    (1, [1], NegativeProbabilityError),  # unhashable: read, not looked up
], ids=["float-after-Fraction", "True-after-1", "unhashable"])
def test_entry_rows_reject_a_raw_equal_to_one_read_before(first, raw, error):
    with pytest.raises(error) as err:
        validate_chain(["a", "b"], {("a", "b"): first, ("b", "a"): raw}, EXACT)
    with pytest.raises(error) as fresh:
        validate_chain(["a", "b"], {("b", "a"): raw}, EXACT)
    assert (type(err.value), str(err.value)) == (type(fresh.value), str(fresh.value))
    assert err.value.__context__ is None


# One fault each, as (entries, error, message); a negative probability comes
# with the mass that keeps its row summing to one. Values are strings, read
# the same in both modes.
CHAIN_FAULTS = {
    "unknown-from": ({("zz", "a"): "1"}, UnknownStateError, "unknown state 'zz'"),
    "unknown-to": ({("a", "zz"): "1"}, UnknownStateError, "unknown state 'zz'"),
    "unusable": ({("b", "a"): "1/x"}, NegativeProbabilityError,
                 "transition 'b' -> 'a' has invalid probability '1/x'"),
    "negative": ({("b", "a"): "-1/2", ("b", "c"): "1/2"}, NegativeProbabilityError,
                 "transition 'b' -> 'a' has invalid probability '-1/2'"),
}
COST_FAULTS = {
    "unknown-from": ({("zz", "a"): "1"}, UnknownStateError, "unknown state 'zz'"),
    "unknown-to": ({("a", "zz"): "1"}, UnknownStateError, "unknown state 'zz'"),
    "unusable": ({("b", "a"): "1/x"}, NegativeCostError, "cost 'b' -> 'a' has invalid value '1/x'"),
    "negative": ({("b", "a"): "-1/2"}, NegativeCostError,
                 "cost 'b' -> 'a' has invalid value '-1/2'"),
}


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("kind, fault", [("chain", f) for f in CHAIN_FAULTS]
                         + [("cost", f) for f in COST_FAULTS])
def test_a_single_fault_raises_one_error_wherever_it_sits(kind, fault, mode):
    # The fault sits among valid entries, first, in the middle or last, and
    # raises the same error with the same message in both modes.
    states = ["a", "b", "c"]
    if kind == "chain":
        faulty, error, message = CHAIN_FAULTS[fault]
        valid = {("a", "a"): "1/2", ("a", "c"): "1/2", ("b", "b"): "1", ("c", "c"): "1"}
        check = partial(validate_chain, states, mode=mode)
    else:
        faulty, error, message = COST_FAULTS[fault]
        valid = {("a", "a"): "3", ("b", "c"): "1/7", ("c", "c"): "0"}
        loops = {(s, s): "1" for s in states}
        check = partial(validate_reward, validate_chain(states, loops, mode))
    items = list(valid.items())
    for at in range(len(items) + 1):
        with pytest.raises(error) as err:
            check(dict(items[:at]) | faulty | dict(items[at:]))
        assert str(err.value) == message


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_several_faults_raise_in_reading_order_then_signs_then_sums(mode):
    # Labels and values are read entry by entry, and the first unknown label
    # or unusable value raises. Signs are checked once every entry is read,
    # on the rows' split numerators, and row sums after them. So a negative
    # entry followed by an unknown label raises for the label.
    states = ["a", "b"]
    negative = {("a", "a"): "3/2", ("a", "b"): "-1/2", ("b", "b"): "1"}
    for later, error, message in [
        ({("b", "zz"): "1"}, UnknownStateError, "unknown state 'zz'"),
        ({("b", "a"): "x"}, NegativeProbabilityError,
         "transition 'b' -> 'a' has invalid probability 'x'"),
    ]:
        with pytest.raises(error) as err:
            validate_chain(states, negative | later, mode)
        assert str(err.value) == message
    # Of two negative entries the first in the map raises, although the
    # other sits in an earlier row, which does not sum to one either.
    twice = {("a", "a"): "1/4", ("b", "a"): "-1", ("b", "b"): "2", ("a", "b"): "-3/4"}
    with pytest.raises(NegativeProbabilityError) as err:
        validate_chain(states, twice, mode)
    assert str(err.value) == "transition 'b' -> 'a' has invalid probability '-1'"
    chain = validate_chain(states, {("a", "b"): "1", ("b", "b"): "1"}, mode)
    with pytest.raises(UnknownStateError, match="^unknown state 'zz'$"):
        validate_reward(chain, {("a", "b"): "-1", ("zz", "a"): "1"})
    with pytest.raises(NegativeCostError) as err:
        validate_reward(chain, {("a", "b"): "1", ("b", "b"): "-2", ("a", "a"): "-1"})
    assert str(err.value) == "cost 'b' -> 'b' has invalid value '-2'"


def test_reward_validation():
    states, trans, cost = zeroconf_tables()
    chain = validate_chain(states, trans)
    rchain = validate_reward(chain, cost)
    assert rchain.cost("Start", "Ok") == F(1, 500) * 3
    assert rchain.cost("Probe 2", "Error") == 3600

    assert validate_reward(chain, {}).cost("Start", "Ok") == 0
    with pytest.raises(NegativeCostError):
        validate_reward(chain, {("Start", "Ok"): F(-1)})


def test_cost_allowed_on_zero_probability_edge():
    chain = validate_chain(["a", "b"], {("a", "b"): F(1), ("b", "b"): F(1)})
    rchain = validate_reward(chain, {("b", "a"): F(5)})
    assert rchain.cost("b", "a") == 5


def test_successors_zeroconf():
    states, trans, _ = zeroconf_tables()
    chain = validate_chain(states, trans)
    assert chain.successors("Start") == {"Probe 0", "Ok"}
    assert chain.successors("Probe 2") == {"Error", "Start"}
    with pytest.raises(UnknownStateError):
        chain.successors("nope")


def test_path_prefix_prob_zeroconf():
    states, trans, _ = zeroconf_tables()
    chain = validate_chain(states, trans)
    q, p = F(16, 65024), F(1, 100)
    assert chain.path_prefix_prob("Start", []) == 1
    assert chain.path_prefix_prob("Start", ["Probe 0"]) == q
    assert chain.path_prefix_prob("Start", ["Probe 0", "Probe 1"]) == q * p
    assert chain.path_prefix_prob("Start", ["Error"]) == 0


def test_path_prefix_recurrence():
    rng = random.Random(20)
    chain = random_chain(rng, 5)
    for _ in range(50):
        prefix = [rng.choice(chain.states) for _ in range(rng.randint(0, 4))]
        tail = rng.choice(chain.states)
        last = prefix[-1] if prefix else "s0"
        assert chain.path_prefix_prob("s0", prefix + [tail]) == (
            chain.path_prefix_prob("s0", prefix) * chain.prob(last, tail)
        )


def test_prefix_probabilities_sum_to_one():
    # Exhaustive over every length-4 label sequence of a 5-state chain.
    rng = random.Random(7)
    chain = random_chain(rng, 5)
    total = sum(
        chain.path_prefix_prob("s0", list(prefix))
        for prefix in itertools.product(chain.states, repeat=4)
    )
    assert total == 1


def test_parse_and_format_scalars():
    assert parse_scalar("16/65024") == F(16, 65024)
    assert parse_scalar("0.01") == F(1, 100)
    assert parse_scalar("3600") == 3600
    assert parse_scalar("1/3", mode=FLOAT) == pytest.approx(1 / 3)
    # Decimal exponents are bounded, before any digit is expanded.
    bound = MAX_DECIMAL_EXPONENT
    assert parse_scalar(f"1e-{bound}") == F(1, 10**bound)
    assert parse_scalar(f"2.5E+00{bound} ") == F(25, 10) * 10**bound
    for text in (f"1e{bound + 1}", f"-1e-{bound + 1}", "1e1_000_000", "1e" + "9" * 5000):
        with pytest.raises(LiteralRangeError):
            parse_scalar(text)
    # Text that is no number, and in float mode a value past the float
    # range, is a ValueError.
    for text, mode in (("zz", EXACT), ("1/0", EXACT), ("1/0", FLOAT), ("nan", FLOAT),
                       ("1e400", FLOAT), ("-1e400", FLOAT)):
        with pytest.raises(ValueError, match="cannot parse number"):
            parse_scalar(text, mode)
    assert parse_scalar("1e400") == 10**400
    from exactchain import format_scalar

    assert format_scalar(F(1, 3)) == "1/3"
    assert format_scalar(F(2)) == "2"
    assert F(format_scalar(F(123456789, 987654321))) == F(123456789, 987654321)

    # CPython (3.10.7+) limits integer-to-string conversion to 4,300 digits
    # by default. Formatting writes the program's own results in full;
    # parsing keeps the limit, so reading back lifts it here.
    value = F(10**4999 + 7, 3**5000)
    text = format_scalar(value)
    assert len(text) == 5000 + 1 + len(str(3**5000))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < 5000:
        with pytest.raises(ValueError):
            parse_scalar(text)
        sys.set_int_max_str_digits(0)
    try:
        assert parse_scalar(text) == value
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_format_past_the_digit_limit_leaves_the_limit_alone(monkeypatch):
    # Lifting the process-wide limit, even for a moment, would leave a
    # parse in another thread unguarded.
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda *a: calls.append(a), raising=False)
    value = F(10**4999 + 7, 3**5000)
    text = format_scalar(value)
    assert calls == []
    monkeypatch.undo()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert text == str(value) and parse_scalar(text) == value
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class Marked(F):
    """A ``Fraction`` subclass whose differences and strings are its own."""

    def __sub__(self, other):
        return Marked(F(self) - other)

    def __str__(self):
        return f"marked {F(self)}"


def subtracting_triple(closed, solver):
    """The report entry as written before equal values were compared first."""
    return {
        "closed_form": format_scalar(closed),
        "solver": format_scalar(solver),
        "difference": format_scalar(closed - solver),
    }


@dataclasses.dataclass(frozen=True)
class PastTheLimit:
    """Stands for ``F(10**4400 + k, 7)``, whose 4,401-digit numerator is past
    CPython's default 4,300-digit ``str`` limit. Hypothesis writes drawn
    values out by ``repr``, which such a Fraction refuses, so the test
    builds the value from this stand-in."""

    k: int

    def value(self):
        return F(10**4400 + self.k, 7)


SCALARS = st.one_of(
    st.fractions(),
    st.integers(0, 3).map(PastTheLimit),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1, F(1), 1.0]),
    st.fractions().map(Marked),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(SCALARS, SCALARS),
    SCALARS.map(lambda v: (v, v)),
    st.one_of(st.fractions(), st.integers(0, 3).map(PastTheLimit)).map(lambda v: (v, "copy")),
))
@example((1, F(1)))
@example((F(1), 1))
@example((Marked(1, 2), Marked(1, 2)))
@example((Marked(1, 2), F(1, 2)))
@example((PastTheLimit(0), "copy"))
@example((PastTheLimit(0), PastTheLimit(1)))
@example((PastTheLimit(0), 1.0))
@example((0.0, -0.0))
@example((math.inf, math.inf))
@example((math.nan, math.nan))
def test_triple_compares_before_it_subtracts_and_prints_the_same(pair):
    # Equal Fractions skip the subtraction and print their value once; every
    # entry is still what subtracting and formatting each value prints, and
    # a pair whose subtraction raises still raises. "copy" is an equal
    # Fraction in a separate object.
    closed, solver = (v.value() if isinstance(v, PastTheLimit) else v for v in pair)
    if solver == "copy":
        solver = F(closed.numerator, closed.denominator)
    got = outcome(partial(chain_module._triple, closed), solver)
    assert got == outcome(partial(subtracting_triple, closed), solver)
    if type(closed) is type(solver) is F and closed == solver:
        triple = got[1]
        assert triple["difference"] == "0" and triple["closed_form"] == triple["solver"]


def test_chain_mode_flag_and_arithmetic_types():
    states, trans, _ = zeroconf_tables()
    exact = validate_chain(states, trans)
    assert exact.mode == EXACT
    assert isinstance(exact.prob("Start", "Ok"), F)

    fchain = validate_chain(
        states, {k: float(v) for k, v in trans.items()}, mode=FLOAT
    )
    assert isinstance(fchain.prob("Start", "Ok"), float)


def test_predecessor_lists_match_edges_and_are_built_once():
    rng = random.Random(21)
    for _ in range(20):
        chain = random_chain(rng, rng.randint(1, 8))
        preds = chain._predecessors()
        assert chain._predecessors() is preds
        idx = chain.index_of
        assert sorted((i, j) for j, ps in enumerate(preds) for i in ps) == sorted(
            (idx(u), idx(v)) for u, v, _ in chain.edges()
        )


@pytest.mark.parametrize("call", [
    lambda mode: parse_scalar("1/3", mode=mode),
    lambda mode: validate_chain(["a"], {("a", "a"): F(1)}, mode),
    lambda mode: linalg.solve([{0: F(1, 2)}], [[F(1)]], mode),
    lambda mode: build_zeroconf(PAPER_TYPICAL, mode),
    lambda mode: zeroconf_report(PAPER_TYPICAL, mode),
    lambda mode: build_crowds(FIG3, mode),
    lambda mode: crowds_report(FIG3, mode),
], ids=["parse_scalar", "validate_chain", "linalg.solve", "build_zeroconf", "zeroconf_report",
        "build_crowds", "crowds_report"])
def test_unknown_mode_names_fail_fast(call):
    for mode in ("Exact", "FLOAT", "", None):
        with pytest.raises(ValueError, match="mode must be 'exact' or 'float'"):
            call(mode)


#: The functions that tell the modes apart, and the only ones that may: the
#: arithmetic records' reader and lookups, the choice of linear-system
#: kernel, and the choice of arithmetic for plain-dict masses, which carry
#: no mode. Every other check, such as the sum of entry masses where entry
#: is almost sure, runs the same in both arithmetics.
MODE_DECIDERS = {
    ("chain.py", "_coerce"), ("chain.py", "arithmetic"), ("chain.py", "arithmetic_of"),
    ("linalg.py", "solve"), ("info.py", "_split"),
}


def _is_tol(node) -> bool:
    """Whether ``node`` reads a tolerance: the name ``tol`` or an attribute ``.tol``."""
    return getattr(node, "id", None) == "tol" or getattr(node, "attr", None) == "tol"


def _truth_tests(node) -> list:
    """The expressions whose truth ``node`` tests: of an ``if``, ``while``, conditional
    expression, comprehension ``if``, ``and``/``or`` operand or ``not``."""
    if isinstance(node, (ast.If, ast.While, ast.IfExp)):
        return [node.test]
    if isinstance(node, ast.comprehension):
        return node.ifs
    if isinstance(node, ast.BoolOp):
        return node.values
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [node.operand]
    return []


def mode_decisions(node, where):
    """``(where, line)`` of each comparison with a mode name, each ``isinstance(_, float)``
    and each truthiness test of a tolerance, whose zero marks exact arithmetic."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        where = (where[0], node.name)
    if isinstance(node, ast.Compare):
        names = [n for n in ast.walk(node) if getattr(n, "id", None) in ("EXACT", "FLOAT")
                 or getattr(n, "value", None) in ("exact", "float")]
        if names:
            yield where, node.lineno
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        if getattr(node.args[1], "id", None) == "float":
            yield where, node.lineno
    for test in _truth_tests(node):
        if _is_tol(test):
            yield where, test.lineno
    for child in ast.iter_child_nodes(node):
        yield from mode_decisions(child, where)


def test_only_the_arithmetic_records_tell_the_modes_apart():
    source = """
def f(arith, tol, xs):
    if arith.tol: pass
    while tol: pass
    a = 1 if tol else 2
    b = [x for x in xs if x.tol]
    c = tol and 1
    d = 1 or arith.tol
    e = not tol
    g = abs(1 - 2) <= arith.tol
    h = tol / 1000
"""
    # Every truthiness test of a tolerance is seen; a comparison with one is not.
    lines = [line for _, line in mode_decisions(ast.parse(source), ("m.py", None))]
    assert lines == [3, 4, 5, 6, 7, 8, 9]
    found = []
    for path in sorted(Path(exactchain.__file__).parent.glob("*.py")):
        found += mode_decisions(ast.parse(path.read_text()), (path.name, None))
    # Only the allowed functions decide, and each still does, so that no
    # entry outlives the branch it allowed.
    assert [(where, line) for where, line in found if where not in MODE_DECIDERS] == []
    assert MODE_DECIDERS - {where for where, _ in found} == set()

import contextlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import recording
import exactchain
from exactchain import cli, linalg, modelfile
from exactchain.errors import SingularSystemError
from exactchain.modelfile import save_model
from exactchain.zeroconf import ZeroconfParams, build_zeroconf

ROOT = Path(__file__).resolve().parent.parent
SMALL = ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), r=1, E=0)


@pytest.fixture()
def small_model(tmp_path):
    path = tmp_path / "small.json"
    save_model(build_zeroconf(SMALL), path)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------------ validate

def test_validate_ok(capsys, small_model):
    report = run_json(capsys, "validate", small_model)
    assert report["verdict"] == "OK"
    assert report["states"] == 5
    assert report["rewards"] > 0


def test_validate_row_sum_failure(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "states": ["a", "b"],
        "transitions": [
            {"from": "a", "to": "a", "prob": "1/2"},
            {"from": "a", "to": "b", "prob": "1/3"},
            {"from": "b", "to": "b", "prob": 1},
        ],
    }))
    code, _, err = run(capsys, "validate", str(path))
    assert code == cli.EXIT_MODEL
    assert "'a'" in err and "5/6" in err


def test_validate_negative_reward(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "states": ["a"],
        "transitions": [{"from": "a", "to": "a", "prob": 1}],
        "rewards": [{"from": "a", "to": "a", "cost": -1}],
    }))
    code, _, err = run(capsys, "validate", str(path))
    assert code == cli.EXIT_MODEL
    assert "'a'" in err


def test_validate_io_and_parse_codes(capsys, tmp_path):
    code, _, _ = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == cli.EXIT_IO
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, _ = run(capsys, "validate", str(bad))
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize("model, message", [
    ({"states": ["a"], "transitions": [{"from": "a", "to": "b", "prob": "1"}]},
     "transitions[0]: undeclared state 'b'"),
    ({"states": ["a"], "transitions": [{"from": "a", "to": "a", "prob": "1"}],
      "rewards": [{"from": "a", "to": "b", "cost": "1"}]},
     "rewards[0]: undeclared state 'b'"),
    ({"states": ["a", "a"], "transitions": [{"from": "a", "to": "a", "prob": "1"}]},
     "duplicate state labels: ['a']"),
    ({"states": ["a"], "transitions": {"from": "a", "to": "a", "prob": "1"}},
     "'transitions' must be a list"),
    ({"states": ["a"], "transitions": [{"from": 0, "to": "a", "prob": "1"}]},
     "transitions[0]: 'from' and 'to' must be state names"),
], ids=["transition-to-undeclared", "reward-to-undeclared", "duplicate-label",
        "transitions-not-a-list", "from-not-a-label"])
def test_model_state_label_errors_are_parse_errors(capsys, tmp_path, model, message):
    # Not exit 6, which is for a query's unknown state, and no traceback.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == f"error: parse error: {message}\n"


# --------------------------------------------------------------------- solve

def test_solve_until_probability(capsys, small_model):
    report = run_json(capsys, "solve", small_model,
                      "--until", "ALL=>Error", "--start", "Start")
    (result,) = [r for r in report["results"] if r["name"] == "until_probability"]
    assert result["value"] == "1/5"
    assert result["provenance"] == "solver"
    assert report["verdicts"]["probability_zero"] is False


def test_solve_start_in_psi(capsys, small_model):
    report = run_json(capsys, "solve", small_model,
                      "--until", "ALL=>Ok,Error", "--start", "Error")
    assert report["results"][0]["value"] == "1"
    assert report["verdicts"]["ae_certified"] is True


def test_solve_unknown_start_exit_code(capsys, small_model):
    code, _, err = run(capsys, "solve", small_model,
                       "--until", "ALL=>Error", "--start", "Nowhere")
    assert code == cli.EXIT_QUERY
    assert "Nowhere" in err


def test_unknown_state_error_line(capsys, small_model):
    code, out, err = run(capsys, "solve", small_model,
                         "--until", "ALL=>Nope", "--start", "Start")
    assert code == cli.EXIT_QUERY
    assert out == ""
    assert err == "error: query error: unknown state 'Nope'\n"


def test_solve_with_cost(capsys, small_model):
    report = run_json(capsys, "solve", small_model,
                      "--until", "ALL=>Ok,Error", "--start", "Start", "--cost")
    by_name = {r["name"]: r["value"] for r in report["results"]}
    assert by_name["until_probability"] == "1"
    assert by_name["expected_cost"] == "14/5"


def test_solve_float_mode(capsys, small_model):
    report = run_json(capsys, "solve", small_model, "--float",
                      "--until", "ALL=>Error", "--start", "Start")
    assert abs(float(report["results"][0]["value"]) - 0.2) < 1e-12


def test_solve_float_cost_just_below_one_is_infinite(capsys, tmp_path):
    path = tmp_path / "trap.json"
    path.write_text(json.dumps({
        "states": ["a", "goal", "trap"],
        "transitions": [
            {"from": "a", "to": "a", "prob": "0.5"},
            {"from": "a", "to": "goal", "prob": "0.4999999999999"},
            {"from": "a", "to": "trap", "prob": "1e-13"},
            {"from": "goal", "to": "goal", "prob": 1},
            {"from": "trap", "to": "trap", "prob": 1},
        ],
        "rewards": [{"from": "a", "to": "goal", "cost": 1}],
    }))
    for mode in ("--exact", "--float"):
        report = run_json(capsys, "solve", str(path), mode, "--cost",
                          "--until", "ALL=>goal", "--start", "a")
        by_name = {r["name"]: r["value"] for r in report["results"]}
        assert by_name["expected_cost"] == "inf"


def test_solve_float_singular_system_exit_code(capsys, tmp_path):
    # Valid in exact mode; in float the self-loop rounds to 1.0.
    path = tmp_path / "rounding.json"
    path.write_text(json.dumps({
        "states": ["a", "goal"],
        "transitions": [
            {"from": "a", "to": "a", "prob": "0.99999999999999999"},
            {"from": "a", "to": "goal", "prob": "1e-17"},
            {"from": "goal", "to": "goal", "prob": 1},
        ],
    }))
    report = run_json(capsys, "solve", str(path), "--until", "ALL=>goal", "--start", "a")
    assert report["results"][0]["value"] == "1"
    # The exit-mass diagonal keeps the pivot at 1e-17 instead of 1 - 1.0.
    report = run_json(capsys, "solve", str(path), "--float",
                      "--until", "ALL=>goal", "--start", "a")
    assert report["results"][0]["value"] == "1.0"


def test_solver_failure_exit_code(capsys, small_model, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularSystemError("Singular matrix")

    monkeypatch.setattr(linalg, "solve", singular)
    code, out, err = run(capsys, "solve", small_model, "--float",
                         "--until", "ALL=>Error", "--start", "Start")
    assert code == cli.EXIT_SOLVER and out == ""
    assert err.startswith("error: solver failure:")


def test_float_near_one_crowd_is_a_solver_failure(capsys):
    # numpy's LU returns expected visits near -1.33e15 here, where the
    # exact value is 2.5e15/3: negative entry masses, not a law to print.
    code, out, err = run(capsys, "crowds", "--jondos", "12", "--colls", "9",
                         "--pf", "0.9999999999999999", "--float")
    assert code == cli.EXIT_SOLVER and out == ""
    assert err.startswith("error: solver failure:")


LOOP_MODEL = '{"states": ["a"], "transitions": [{"from": "a", "to": "a", "prob": %s}]}'
COST_MODEL = json.dumps({
    "states": ["a", "b"],
    "transitions": [{"from": "a", "to": "b", "prob": 1}, {"from": "b", "to": "b", "prob": 1}],
    "rewards": [{"from": "a", "to": "b", "cost": "1e400"}],
})
SUM_MODEL = json.dumps({
    "states": ["a", "b"],
    "transitions": [{"from": "a", "to": "a", "prob": "1/2"},
                    {"from": "a", "to": "b", "prob": "1/2"},
                    {"from": "b", "to": "b", "prob": 1}],
    "rewards": [{"from": "a", "to": "a", "cost": "1e308"}],
})

BIG_MODEL = ('{"states": ["a", "b"], "transitions": [{"from": "a", "to": "b", "prob": "%s"}, '
             '{"from": "a", "to": "a", "prob": 1}, {"from": "b", "to": "b", "prob": 1}]}')


@pytest.mark.parametrize("argv, text, code", [
    # JSON's non-standard constants are parse errors in both modes.
    (["validate", "FILE", "--exact"], LOOP_MODEL % "NaN", cli.EXIT_PARSE),
    (["validate", "FILE", "--float"], LOOP_MODEL % "NaN", cli.EXIT_PARSE),
    (["validate", "FILE", "--exact"], LOOP_MODEL % "Infinity", cli.EXIT_PARSE),
    (["validate", "FILE", "--float"], LOOP_MODEL % "-Infinity", cli.EXIT_PARSE),
    (["crowds", "--preset", "fig3", "--init", "FILE"], '{"J1": NaN, "J2": 0.5}', cli.EXIT_PARSE),
    # JSON's true and false are no masses, although they sum to one.
    (["crowds", "--preset", "fig3", "--init", "FILE"], '{"J1": true, "J2": false}',
     cli.EXIT_MODEL),
    # Numbers that overflow a float are invalid values, however they are written.
    (["validate", "FILE", "--float"], LOOP_MODEL % "1e400", cli.EXIT_MODEL),
    (["validate", "FILE", "--float"], LOOP_MODEL % '"1e400"', cli.EXIT_MODEL),
    (["validate", "FILE", "--float"], LOOP_MODEL % ("1" + "0" * 400), cli.EXIT_MODEL),
    (["zeroconf", "--preset", "paper-typical", "--E", "1e400", "--float"], None, cli.EXIT_MODEL),
    # Exact costs are sampled as floats, so the sampler rejects one that overflows.
    (["zeroconf", "--preset", "paper-typical", "--E", "1e400", "--simulate", "--samples", "1000"],
     None, cli.EXIT_MODEL),
    (["simulate", "FILE", "--event", "cost:b", "--start", "a", "--seed", "1", "--samples", "10"],
     COST_MODEL, cli.EXIT_MODEL),
    # So is a sampled cost total that overflows, although each cost fits.
    (["simulate", "FILE", "--event", "cost:b", "--start", "a", "--seed", "1", "--samples", "100",
      "--json"], SUM_MODEL, cli.EXIT_MODEL),
    # Messages spell out exact values past CPython's 4,300-digit limit on
    # integer-to-string conversion.
    (["validate", "FILE"], BIG_MODEL % "1e-5000", cli.EXIT_MODEL),
    (["validate", "FILE"], BIG_MODEL % "-1e-5000", cli.EXIT_MODEL),
    (["crowds", "--preset", "fig3", "--pf", "1e5000"], None, cli.EXIT_MODEL),
    (["crowds", "--preset", "fig3", "--init", "FILE"], '{"J1": "1e5000", "J2": 0}',
     cli.EXIT_MODEL),
    (["zeroconf", "--preset", "paper-typical", "--p", "1e5000"], None, cli.EXIT_MODEL),
    # A decimal exponent past chain.MAX_DECIMAL_EXPONENT is a parse error,
    # caught before its digits are expanded, wherever the literal is read.
    (["validate", "FILE"], LOOP_MODEL % "1e-1000000", cli.EXIT_PARSE),
    (["validate", "FILE", "--float"], LOOP_MODEL % "1e1000000", cli.EXIT_PARSE),
    (["validate", "FILE"], BIG_MODEL % "1e-1000000", cli.EXIT_PARSE),
    (["crowds", "--preset", "fig3", "--pf", "1e-1000000"], None, cli.EXIT_PARSE),
    (["crowds", "--preset", "fig3", "--init", "FILE"], '{"J1": "1e1000000", "J2": 0}',
     cli.EXIT_PARSE),
    # So is a JSON integer past CPython's 4,300-digit limit on parsing, and
    # in both modes a JSON decimal, which is read exactly.
    (["validate", "FILE"], LOOP_MODEL % ("1" + "0" * 5000), cli.EXIT_PARSE),
    (["validate", "FILE", "--float"], LOOP_MODEL % ("0." + "9" * 5000), cli.EXIT_PARSE),
], ids=["nan-exact", "nan-float", "inf-exact", "minus-inf-float", "init-nan", "init-bools",
        "number-1e400", "string-1e400", "int-1e400", "zeroconf-E-1e400",
        "zeroconf-E-1e400-simulate", "simulate-cost-1e400", "simulate-cost-sum-overflow",
        "row-sum-1e-5000", "negative-1e-5000", "crowds-pf-1e5000", "init-1e5000",
        "zeroconf-p-1e5000", "number-1e-1000000", "float-number-1e1000000",
        "string-1e-1000000", "flag-1e-1000000", "init-1e1000000", "int-5001-digits",
        "float-decimal-5000-digits"])
def test_non_finite_and_overflowing_numbers(capsys, tmp_path, argv, text, code):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    got, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert (got, out) == (code, "")
    assert err.startswith("error: ")


UTF16_MODEL = b"\xff\xfe" + (LOOP_MODEL % 1).encode("utf-16-le")
NESTED = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("argv, data", [
    (["validate", "FILE"], UTF16_MODEL),
    (["validate", "FILE"], NESTED),
    (["crowds", "--preset", "fig3", "--init", "FILE"], UTF16_MODEL),
    (["crowds", "--preset", "fig3", "--init", "FILE"], NESTED),
    # Read as UTF-8, a byte order mark is still no JSON.
    (["validate", "FILE"], b"\xef\xbb\xbf" + (LOOP_MODEL % 1).encode()),
], ids=["utf16", "nested", "init-utf16", "init-nested", "utf8-bom"])
def test_undecodable_and_deeply_nested_files_are_parse_errors(capsys, tmp_path, argv, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("error: parse error: invalid JSON: ") and err.count("\n") == 1


MALFORMED = "1/" + "7" * 50 + "x" * 100_000


def run_to_exit(capsys, *argv):
    """``run``, also through argparse's exit on a bad flag."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, text, code", [
    (["validate", "FILE"], LOOP_MODEL % json.dumps(MALFORMED), cli.EXIT_PARSE),
    (["validate", "FILE"], LOOP_MODEL % json.dumps(list(range(20_000))), cli.EXIT_PARSE),
    (["crowds", "--preset", "fig3", "--pf", MALFORMED], None, cli.EXIT_USAGE),
    (["zeroconf", "--preset", "paper-typical", "--sweep", "p=" + MALFORMED], None, cli.EXIT_MODEL),
    (["zeroconf", "--preset", "paper-typical", "--sweep", "probes=" + MALFORMED], None,
     cli.EXIT_MODEL),
    (["crowds", "--preset", "fig3", "--init", "FILE"], json.dumps({"J1": MALFORMED, "J2": 0}),
     cli.EXIT_MODEL),
], ids=["model-string", "model-list", "flag", "sweep-p", "sweep-probes", "init"])
def test_malformed_literals_are_shown_cut_short(capsys, tmp_path, argv, text, code):
    # A message quotes only the first 20 and last 12 characters of a long
    # literal, and the exit code is that of any malformed literal.
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    got, out, err = run_to_exit(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert (got, out) == (code, "")
    assert len(err) < 500
    assert any(cut in err for cut in ("'1/777777777777777777...xxxxxxxxxxxx'",
                                      "[0, 1, 2, 3, 4, 5, 6...9998, 19999]"))


@pytest.mark.parametrize("literal", ["abc", "1/" + "7" * 37 + "x"])
def test_malformed_literals_of_40_characters_are_shown_whole(capsys, literal):
    code, out, err = run_to_exit(capsys, "crowds", "--preset", "fig3", "--pf", literal)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.rstrip().endswith(f"cannot parse number {literal!r}")


ZEROCONF = ["zeroconf", "--preset", "paper-typical"]
CROWDS = ["crowds", "--preset", "fig3"]
NINES = "9" * 5000  # past CPython's 4,300-digit limit on parsing an integer
NINES_CUT = f"'{NINES[:20]}...{NINES[-12:]}'"


@pytest.mark.parametrize("argv, code, message", [
    ([*ZEROCONF, "--simulate", "--samples", "x"], cli.EXIT_USAGE,
     "argument --samples: expected an integer, got 'x'"),
    ([*ZEROCONF, "--simulate", "--max-steps", "x"], cli.EXIT_USAGE,
     "argument --max-steps: expected an integer, got 'x'"),
    ([*ZEROCONF, "--hosts", "abc"], cli.EXIT_USAGE,
     "argument --hosts: expected an integer, got 'abc'"),
    ([*ZEROCONF, "--sweep", "hosts=abc"], cli.EXIT_MODEL, "cannot parse sweep hosts='abc'"),
    ([*ZEROCONF, "--hosts", "-5"], cli.EXIT_MODEL, "need 0 < q < 1, got q=-5/65024"),
    ([*ZEROCONF, "--probes", "2x"], cli.EXIT_USAGE,
     "argument --probes: expected an integer, got '2x'"),
    ([*ZEROCONF, "--probes", NINES], cli.EXIT_USAGE,
     f"argument --probes: expected an integer, got {NINES_CUT}"),
    ([*CROWDS, "--jondos", "5x"], cli.EXIT_USAGE,
     "argument --jondos: expected an integer, got '5x'"),
    ([*CROWDS, "--jondos", NINES], cli.EXIT_USAGE,
     f"argument --jondos: expected an integer, got {NINES_CUT}"),
    ([*CROWDS, "--colls", "1x"], cli.EXIT_USAGE,
     "argument --colls: expected an integer, got '1x'"),
    ([*CROWDS, "--colls", NINES], cli.EXIT_USAGE,
     f"argument --colls: expected an integer, got {NINES_CUT}"),
    ([*ZEROCONF, "--simulate", "--seed", "7x"], cli.EXIT_USAGE,
     "argument --seed: expected an integer, got '7x'"),
    ([*ZEROCONF, "--simulate", "--seed", NINES], cli.EXIT_USAGE,
     f"argument --seed: expected an integer, got {NINES_CUT}"),
], ids=["samples", "max-steps", "hosts", "sweep-hosts", "hosts-negative", "probes",
        "probes-5000-digits", "jondos", "jondos-5000-digits", "colls", "colls-5000-digits", "seed",
        "seed-5000-digits"])
def test_malformed_integer_flags_name_no_private_helper(capsys, argv, code, message):
    # Every integer flag reads its value through cli._int_flag, whose message
    # names the flag and quotes a long value cut short. An integer that the
    # model refuses is a parameter error, not argparse's "invalid <type
    # function> value".
    got, out, err = run_to_exit(capsys, *argv)
    assert (got, out) == (code, "")
    assert len(err) < 1000
    assert err.rstrip().endswith(message)
    assert "_" not in err.splitlines()[-1]


@pytest.mark.parametrize("argv, text, code, message", [
    (["solve", "FILE", "--until", "ALL", "--start", "a"], LOOP_MODEL % 1, cli.EXIT_MODEL,
     "invalid parameters: --until expects 'PHI=>PSI', got 'ALL'"),
    (["solve", "FILE", "--until", "ALL=>a", "--start", "a", "--cost"], LOOP_MODEL % 1,
     cli.EXIT_MODEL, "invalid parameters: --cost requires a model file with rewards"),
    (["crowds", "--preset", "fig3", "--init", "FILE"], "[0.5, 0.5]", cli.EXIT_PARSE,
     "parse error: init file FILE must hold an object"),
], ids=["until-without-arrow", "cost-without-rewards", "init-list"])
def test_malformed_requests_exit_by_their_code(capsys, tmp_path, argv, text, code, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    got, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert (got, out) == (code, "")
    assert err == f"error: {message.replace('FILE', str(path))}\n"


# Model-file values, as JSON text: near-one pairs, float extremes, negatives,
# exponents at and past the bound, 4,000-digit rationals, a 100 KB malformed
# string, and values that are no numbers.
HOSTILE = [
    "1", '"1/2"', "0.5", '"0.9999999999999999"', '"1e-16"', "5e-324", "1e400", "-1", '"-1/2"',
    '"1e-10000"', "1e10000", '"1e1000000"', "1e-1000000", '"3/0"', '"nan"',
    json.dumps("7" * 4000 + "/" + "7" * 4000), json.dumps("1/" + "3" * 4000),
    json.dumps("1/" + "x" * 100_000), "true", "null", "[]",
]
README_EXITS = {int(line[2]) for line in (ROOT / "README.md").read_text().splitlines()
                if line[:2] == "| " and line[2:3].isdigit()}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_hostile_model_files_exit_by_the_table(tmp_path_factory, n, data):
    # Whatever the literals, every command ends with a code from README's
    # table (argparse's SystemExit counted as its code), raises nothing
    # else, writes a bounded message, and writes one exactly when it fails.
    value = st.one_of(st.just("1"), st.sampled_from(HOSTILE))
    # Each row is one that sums to one, so that some files reach the
    # solver and the sampler, or one or two values from the pool.
    row = st.sampled_from([["1"], ['"1/2"', "0.5"], ['"0.9999999999999999"', '"1e-16"']])
    row |= st.lists(value, min_size=1, max_size=2)
    transitions = [(u, v, x) for u in range(n)
                   for v, x in zip(data.draw(st.permutations(range(n))), data.draw(row))]
    rewards = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), value),
                                 max_size=2))
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text('{"states": [%s], "transitions": [%s], "rewards": [%s]}' % (
        ", ".join(f'"s{i}"' for i in range(n)),
        ", ".join(f'{{"from": "s{u}", "to": "s{v}", "prob": {x}}}' for u, v, x in transitions),
        ", ".join(f'{{"from": "s{u}", "to": "s{v}", "cost": {x}}}' for u, v, x in rewards)))
    start, sampling = f"s{n - 1}", ["--seed", "1", "--samples", "50", "--max-steps", "50"]
    for mode in ("--exact", "--float"):
        for argv in (["validate", str(path)],
                     ["solve", str(path), "--until", "ALL=>s0", "--start", start],
                     ["solve", str(path), "--until", "ALL=>s0", "--start", start, "--cost"],
                     ["simulate", str(path), "--event", "until:ALL=>s0", "--start", start,
                      *sampling],
                     ["simulate", str(path), "--event", "cost:s0", "--start", start, *sampling]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([*argv, mode])
                except SystemExit as exc:
                    code = exc.code
            assert code in README_EXITS, (argv, code)
            assert len(err.getvalue()) < 256 * 1024
            assert (err.getvalue() == "") == (code == 0), (argv, code, err.getvalue()[:300])


# ------------------------------------------------------------------ zeroconf

def test_zeroconf_preset_report(capsys):
    report = run_json(capsys, "zeroconf", "--preset", "paper-typical")
    assert report["p_err_start"]["solver"] == "1/4063000001"
    assert report["p_err_start"]["difference"] == "0"
    assert F(report["expected_cost"]["solver"]) <= F(7, 1000)
    assert report["bound_audit"]["within_claimed_bound"] is False


def test_zeroconf_hosts_flag(capsys):
    report = run_json(capsys, "zeroconf", "--probes", "2", "--p", "1/100",
                      "--hosts", "16", "--r", "1/500", "--E", "3600")
    assert report["params"]["q"] == "1/4064"
    assert report["p_err_start"]["solver"] == "1/4063000001"


def test_zeroconf_invalid_p(capsys):
    code, _, err = run(capsys, "zeroconf", "--probes", "1", "--p", "1",
                       "--q", "1/2", "--r", "0", "--E", "0")
    assert code == cli.EXIT_MODEL
    assert "p" in err


def test_zeroconf_missing_params(capsys):
    code, _, err = run(capsys, "zeroconf", "--probes", "1")
    assert code == cli.EXIT_MODEL
    assert "missing" in err


def test_zeroconf_sweep_csv(capsys):
    code, out, _ = run(capsys, "zeroconf", "--preset", "paper-typical",
                       "--sweep", "p=1/100,1/10;probes=1,2,3", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:6] == ["mode", "N", "p", "q", "r", "E"]
    assert len(lines) == 7  # header + 2*3 grid rows
    assert lines[1].startswith("exact,1,1/100")


def test_sweep_prints_each_report_without_its_command_one_blank_line_apart(capsys):
    code, swept, err = run(capsys, "zeroconf", "--preset", "paper-typical",
                           "--sweep", "probes=1,2")
    assert code == 0, err
    bodies = []
    for probes in ("1", "2"):
        argv = ["zeroconf", "--preset", "paper-typical", "--probes", probes]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        body, command = out.rsplit("command: ", 1)
        assert command == f"exactchain {' '.join(argv)}\n"
        bodies.append(body)
    assert swept == "\n".join(bodies)


@pytest.mark.parametrize("sweep, message", [
    ("p=", "no values"),
    ("p=1/100,;probes= ,", "no values"),
    ("p=1/100;p=1/10", "twice"),
    ("pp=1/100", "sweep axis 'pp' not in ['E', 'hosts', 'p', 'probes', 'q', 'r']"),
    (";", "empty sweep specification"),
])
def test_zeroconf_sweep_rejects_empty_and_repeated_axes(capsys, sweep, message):
    code, out, err = run(capsys, "zeroconf", "--preset", "paper-typical",
                         "--sweep", sweep, "--csv")
    assert code == cli.EXIT_MODEL
    assert out == ""
    assert "invalid parameters" in err and message in err


def test_zeroconf_simulation_block(capsys):
    report = run_json(capsys, "zeroconf", "--probes", "1", "--p", "1/2",
                      "--q", "1/2", "--r", "1", "--E", "0",
                      "--simulate", "--seed", "9", "--samples", "20000")
    sim = report["simulation"]
    assert sim["seed"] == 9
    est = sim["p_err_start"]
    assert abs(est["mean"] - 0.2) <= 4 * est["std_error"]


# -------------------------------------------------------------------- crowds

def test_crowds_fig3_values(capsys):
    report = run_json(capsys, "crowds", "--jondos", "3", "--colls", "1",
                      "--pf", "1/2")
    assert report["hit_collaborator"]["closed_form"] == "1/2"
    assert report["hit_collaborator"]["difference"] == "0"
    assert report["first_equals_last"]["closed_form"] == "5/6"
    assert report["joint_first_last"]["J1|J1"]["solver"] == "5/12"
    assert report["independence_first_last_jondo"] is True


def test_crowds_preset_matches_flags(capsys):
    a = run_json(capsys, "crowds", "--preset", "fig3")
    b = run_json(capsys, "crowds", "--jondos", "3", "--colls", "1", "--pf", "1/2")
    a.pop("command"), b.pop("command")
    assert a == b


def test_crowds_invalid_colls(capsys):
    code, _, err = run(capsys, "crowds", "--jondos", "2", "--colls", "2",
                       "--pf", "1/2")
    assert code == cli.EXIT_MODEL


def test_crowds_probable_innocence(capsys):
    report = run_json(capsys, "crowds", "--jondos", "10", "--colls", "2",
                      "--pf", "5/7")
    verdict = report["probable_innocence"]
    assert verdict["holds"] is True
    assert F(verdict["threshold"]) == F(10, 14)


def test_crowds_init_file(capsys, tmp_path):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"J1": "2/3", "J2": "1/3"}))
    report = run_json(capsys, "crowds", "--jondos", "3", "--colls", "1",
                      "--pf", "1/2", "--init", str(init))
    assert report["params"]["init"]["J1"] == "2/3"
    assert report["independence_first_last_jondo"] is True


def test_crowds_init_file_is_read_once_per_run(capsys, tmp_path):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"J1": "2/3", "J2": "1/3"}))
    argv = ["crowds", "--preset", "fig3", "--init", str(init), "--csv"]
    with recording(modelfile, "_read_json") as calls:
        code, swept, err = run(capsys, *argv, "--sweep", "pf=1/2,3/4")
    assert (code, err, len(calls)) == (0, "", 1)
    # Each sweep row is the row of a one-point run at that p_f.
    header, *rows = swept.splitlines()
    for pf, row in zip(("1/2", "3/4"), rows, strict=True):
        assert run(capsys, *argv, "--pf", pf)[1].splitlines() == [header, row]


def test_crowds_sweep(capsys):
    reports = run_json(capsys, "crowds", "--jondos", "4", "--colls", "1",
                       "--sweep", "pf=1/4,1/2,3/4")
    assert isinstance(reports, list) and len(reports) == 3
    assert [r["params"]["p_f"] for r in reports] == ["1/4", "1/2", "3/4"]


@pytest.mark.parametrize("argv, want", [
    # A sweep axis replaces the flag; q and hosts are one axis, spelled two ways.
    (["zeroconf", "--preset", "paper-typical", "--hosts", "10", "--sweep", "q=1/2"],
     {"q": "1/2"}),
    (["zeroconf", "--preset", "paper-typical", "--q", "1/2", "--sweep", "hosts=10"],
     {"q": "5/32512"}),
    (["zeroconf", "--preset", "paper-typical", "--hosts", "10"], {"q": "5/32512"}),
    (["crowds", "--preset", "fig3", "--colls", "2", "--sweep", "jondos=5"],
     {"J": 5, "H": 3, "p_f": "1/2"}),
    (["zeroconf", "--preset", "paper-typical", "--sweep", "q=1/2;hosts=10"], cli.EXIT_MODEL),
])
def test_case_study_parameter_resolution(capsys, argv, want):
    code, out, err = run(capsys, *argv, "--json")
    if isinstance(want, int):
        assert code == want and out == ""
        assert err.startswith("error: invalid parameters:")
        return
    assert code == 0, err
    reports = json.loads(out)
    for report in reports if isinstance(reports, list) else [reports]:
        seen = {**report["params"], **report}
        assert {key: seen[key] for key in want} == want


# ------------------------------------------------------------------ simulate

def test_simulate_until_preset(capsys):
    report = run_json(capsys, "simulate", "zeroconf:paper-typical",
                      "--event", "until:ALL=>Ok,Error", "--start", "Start",
                      "--seed", "4", "--samples", "5000")
    result = report["results"][0]
    assert result["provenance"] == "simulation"
    assert result["mean"] == 1.0  # termination is almost sure


def test_simulate_cost_preset(capsys):
    report = run_json(capsys, "simulate", "zeroconf:paper-typical",
                      "--event", "cost:Ok,Error",
                      "--seed", "4", "--samples", "5000")
    result = report["results"][0]
    assert abs(result["mean"] - 0.006) < 0.01


def test_simulate_model_file(capsys, small_model):
    report = run_json(capsys, "simulate", small_model,
                      "--event", "until:ALL=>Error", "--start", "Start",
                      "--seed", "2", "--samples", "60000")
    result = report["results"][0]
    assert abs(result["mean"] - 0.2) <= 3 * result["std_error"]


def test_simulate_reruns_are_byte_identical(capsys):
    args = ("simulate", "crowds:fig3", "--event", "until:ALL=>Mix J3",
            "--seed", "77", "--samples", "20000", "--json")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    report = json.loads(out_a)
    assert abs(report["results"][0]["mean"] - 0.5) < 0.02


def test_simulate_zero_samples_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "crowds:fig3", "--event", "until:ALL=>End",
                  "--seed", "1", "--samples", "0"])
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_usage_error(capsys, seed):
    # The sampler reads a seed modulo 2**64, so a seed outside the range
    # would draw another seed's paths while the report echoed its own.
    code, out, err = run_to_exit(capsys, "simulate", "crowds:fig3", "--event", "until:ALL=>End",
                                 "--seed", seed, "--samples", "10")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.rstrip().endswith(f"argument --seed: must be in 0..{2**64 - 1}, got {seed}")


@pytest.mark.parametrize("flag, value, message", [
    ("--samples", "-3", f"must be in 1..{2**44}, got -3"),
    # Path 2**44 would replay path 0's stream.
    ("--samples", str(2**44 + 1), f"must be in 1..{2**44}, got {2**44 + 1}"),
    ("--max-steps", "0", "must be in 1..1048577, got 0"),
    # A path of 2**20 + 2 states would draw from the next path's stream.
    ("--max-steps", "1048578", "must be in 1..1048577, got 1048578"),
])
def test_sampling_flags_outside_their_range_are_usage_errors(capsys, flag, value, message):
    flags = {"--seed": "1", "--samples": "10", flag: value}
    code, out, err = run_to_exit(capsys, "simulate", "crowds:fig3", "--event", "until:ALL=>End",
                                 *(item for pair in flags.items() for item in pair))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.rstrip().endswith(f"argument {flag}: {message}")


def test_simulate_bad_event(capsys):
    code, _, err = run(capsys, "simulate", "crowds:fig3",
                       "--event", "hitting:End", "--seed", "1", "--samples", "10")
    assert code == cli.EXIT_MODEL


def test_simulate_cost_needs_rewards(capsys):
    code, _, err = run(capsys, "simulate", "crowds:fig3",
                       "--event", "cost:End", "--seed", "1", "--samples", "10")
    assert code == cli.EXIT_MODEL
    assert "rewards" in err


def test_simulate_max_steps_keeps_path_streams_disjoint(capsys):
    # Paths of up to 2**20 + 1 states stay inside their own draw streams.
    args = ("simulate", "crowds:fig3", "--event", "until:ALL=>End",
            "--seed", "1", "--samples", "10")
    report = run_json(capsys, *args, "--max-steps", "1048577")
    assert report["max_steps"] == 1048577
    code, out, err = run_to_exit(capsys, *args, "--max-steps", "1048578")
    assert code == cli.EXIT_USAGE
    assert out == "" and err.rstrip().endswith(
        "argument --max-steps: must be in 1..1048577, got 1048578")


@pytest.mark.parametrize("flag", ["--seed", "--samples", "--max-steps"])
def test_sampling_flags_read_simconfig_ranges(capsys, flag):
    # Parsing only: nothing is sampled, so the 2**44 samples of --samples'
    # upper bound never run.
    from exactchain.simulate import _RANGES

    field = flag.removeprefix("--").replace("-", "_")
    low, high = _RANGES[field]
    argv = ["simulate", "crowds:fig3", "--event", "until:ALL=>End", "--seed", "1",
            "--samples", "10"]
    parser = cli.build_parser()
    for value in (low, high):
        assert getattr(parser.parse_args([*argv, flag, str(value)]), field) == value
    for value in (low - 1, high + 1):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, flag, str(value)])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.rstrip().endswith(f"argument {flag}: must be in {low}..{high}, got {value}")


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--max-steps", "2000000")])
def test_zeroconf_sampling_flags_are_checked_without_simulate(capsys, flag, value):
    code, out, err = run_to_exit(capsys, "zeroconf", "--preset", "paper-typical", flag, value)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert f"argument {flag}: must be in " in err


# ------------------------------------------------------------------- generic

def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"])  # missing required flags
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()


def test_human_output_prints_values(capsys, small_model):
    code, out, _ = run(capsys, "solve", small_model,
                       "--until", "ALL=>Error", "--start", "Start")
    assert code == 0
    assert "until_probability" in out and "1/5" in out


def test_exact_and_float_reports_agree(capsys):
    exact = run_json(capsys, "zeroconf", "--preset", "paper-typical")
    approx = run_json(capsys, "zeroconf", "--preset", "paper-typical", "--float")
    for key in ("p_err_start", "expected_cost"):
        a = float(F(exact[key]["solver"]))
        b = float(approx[key]["solver"])
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_mode_env_variable(capsys, small_model, monkeypatch):
    monkeypatch.setenv(cli.ENV_MODE, "float")
    report = run_json(capsys, "solve", small_model,
                      "--until", "ALL=>Error", "--start", "Start")
    assert report["mode"] == "float"
    monkeypatch.setenv(cli.ENV_MODE, "exact")
    report = run_json(capsys, "solve", small_model,
                      "--until", "ALL=>Error", "--start", "Start")
    assert report["mode"] == "exact"
    monkeypatch.setenv(cli.ENV_MODE, "bogus")
    code, out, err = run(capsys, "solve", small_model, "--until", "ALL=>Error", "--start", "Start")
    assert code == cli.EXIT_MODEL and out == ""
    assert f"{cli.ENV_MODE} must be 'exact' or 'float'" in err


def test_rational_values_round_trip(capsys):
    report = run_json(capsys, "zeroconf", "--preset", "paper-typical")
    for triple in (report["p_err_start"], report["expected_cost"]):
        for field in ("closed_form", "solver", "difference"):
            F(triple[field])  # parses losslessly


def test_timing_flag_adds_field(capsys, small_model):
    report = run_json(capsys, "validate", small_model, "--timing")
    assert "elapsed_seconds" in report


@pytest.mark.parametrize("argv", [
    ["zeroconf", "--preset", "paper-typical"],
    ["zeroconf", "--preset", "paper-typical", "--sweep", "p=1/100,1/10"],
    ["crowds", "--preset", "fig3"],
], ids=["zeroconf", "zeroconf-sweep", "crowds"])
def test_csv_timing_appends_elapsed_seconds_as_last_column(capsys, argv):
    code, plain, _ = run(capsys, *argv, "--csv")
    assert code == 0
    code, timed, _ = run(capsys, *argv, "--csv", "--timing")
    assert code == 0
    plain_lines, timed_lines = plain.splitlines(), timed.splitlines()
    assert timed_lines[0] == plain_lines[0] + ",elapsed_seconds"
    assert len(timed_lines) == len(plain_lines)
    for plain_row, timed_row in zip(plain_lines[1:], timed_lines[1:]):
        head, elapsed = timed_row.rsplit(",", 1)
        assert head == plain_row
        assert float(elapsed) >= 0


SMALL_FILE = "bench/models/zeroconf_small.json"


@pytest.mark.parametrize("argv, header, row", [
    (["validate", SMALL_FILE],
     "command,mode,model_file,verdict,states,transitions,rewards",
     f"exactchain validate {SMALL_FILE} --csv,exact,{SMALL_FILE},OK,5,8,3"),
    (["solve", SMALL_FILE, "--until", "ALL=>Error", "--start", "Start", "--cost"],
     "command,mode,model_file,start,phi,psi,"
     "results[0].name,results[0].provenance,results[0].value,"
     "results[1].name,results[1].provenance,results[1].value,"
     "verdicts.probability_zero,verdicts.ae_certified",
     f"exactchain solve {SMALL_FILE} --until ALL=>Error --start Start --cost --csv,exact,"
     f"{SMALL_FILE},Start,Error Ok Probe 0 Probe 1 Start,Error,"
     "until_probability,solver,1/5,expected_cost,solver,inf,False,False"),
    (["simulate", SMALL_FILE, "--event", "until:ALL=>Error", "--seed", "7", "--samples", "1000"],
     "command,mode,model,start,event,seed,samples,max_steps,"
     "results[0].name,results[0].provenance,results[0].mean,results[0].std_error,"
     "results[0].samples_used,results[0].censored",
     f"exactchain simulate {SMALL_FILE} --event until:ALL=>Error --seed 7 --samples 1000 --csv,"
     f"exact,{SMALL_FILE},Start,until:ALL=>Error,7,1000,10000,"
     "until_probability,simulation,0.191,0.012430567163247218,1000,0"),
], ids=["validate", "solve", "simulate"])
def test_generic_csv_flattens_nested_reports(capsys, monkeypatch, argv, header, row):
    # Nested dicts and lists of dicts become dotted and indexed columns;
    # --timing appends elapsed_seconds last, as it does for every command.
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *argv, "--csv")
    assert code == 0, err
    assert out.splitlines() == [header, row]
    code, out, err = run(capsys, *argv, "--csv", "--timing")
    assert code == 0, err
    timed_header, timed_row = out.splitlines()
    assert timed_header == header + ",elapsed_seconds"
    head, elapsed = timed_row.rsplit(",", 1)
    assert head == row.replace(" --csv,", " --csv --timing,", 1)
    assert float(elapsed) >= 0


def _readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under ``## heading`` in README.md."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"## {heading}", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _readme_commands():
    """The ``exactchain`` lines of the sh block under "## Command line" in README.md."""
    lines = _readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("exactchain ")]


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", README_COMMANDS,
                         ids=[f"example{i}" for i in range(len(README_COMMANDS))])
def test_readme_command_examples(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out


def test_readme_library_quick_start(capsys):
    # Each print in the block prints what its comment says.
    block = _readme_block("Library quick start", "python")
    exec(compile(block, "README.md", "exec"), {})
    want = [line.rpartition("# ")[2] for line in block.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == want == ["2/3", "2"]


# ------------------------------------------------------------------ start-up

MODEL = str(ROOT / "bench" / "models" / "zeroconf_small.json")

# Runs ``cli.main`` on its arguments (if any) with stdout discarded, then
# prints the exit code, whether numpy got imported, and the package modules
# that did.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import exactchain, exactchain.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = exactchain.cli.main(sys.argv[1:])
print(json.dumps([code, "numpy" in sys.modules,
                  sorted(m for m in sys.modules if m.startswith("exactchain."))]))
"""

# Package modules each kind of run must not load, by short name.
_NO_SOLVER = "analysis linalg simulate crowds zeroconf info"
_NO_SAMPLER = "simulate crowds zeroconf info"


@pytest.mark.parametrize("argv, numpy_loaded, not_loaded", [
    ([], False, "modelfile " + _NO_SOLVER),
    (["zeroconf", "--preset", "paper-typical"], False, "crowds modelfile simulate info"),
    (["zeroconf", "--preset", "paper-typical",
      "--sweep", "p=1/100,1/10;probes=1,2,3", "--csv"], False, "crowds modelfile simulate info"),
    (["crowds", "--preset", "fig3"], False, "zeroconf modelfile simulate"),
    # Fig. 3's blocks are sparse enough for state elimination; J=20's go to Bareiss.
    (["crowds", "--jondos", "20", "--colls", "4", "--pf", "4/5"], False,
     "zeroconf modelfile simulate"),
    (["validate", MODEL], False, _NO_SOLVER),
    (["solve", MODEL, "--until", "ALL=>Error", "--start", "Start", "--cost"], False, _NO_SAMPLER),
    (["solve", MODEL, "--until", "ALL=>Error", "--start", "Start", "--float"], True, _NO_SAMPLER),
    (["simulate", MODEL, "--event", "until:ALL=>Error", "--start", "Start",
      "--seed", "7", "--samples", "100"], True, "linalg crowds zeroconf info"),
    (["zeroconf", "--preset", "paper-typical", "--simulate", "--samples", "100"], True,
     "crowds modelfile info"),
    (["crowds", "--preset", "fig3", "--simulate", "--samples", "100"], True,
     "zeroconf modelfile"),
    (["crowds", "--preset", "fig3", "--init", "FILE"], False, "zeroconf simulate"),
    (["simulate", "zeroconf:paper-typical", "--event", "until:ALL=>Error",
      "--seed", "7", "--samples", "100"], True, "linalg crowds modelfile info"),
    (["simulate", "crowds:fig3", "--event", "until:ALL=>End", "--seed", "1", "--samples", "100"],
     True, "linalg zeroconf modelfile"),
], ids=["import", "zeroconf", "zeroconf-sweep-csv", "crowds", "crowds-bareiss", "validate",
        "solve", "solve-float", "simulate", "zeroconf-simulate", "crowds-simulate", "crowds-init",
        "simulate-preset", "simulate-crowds"])
def test_numpy_loads_only_for_float_solves_and_sampling(tmp_path, argv, numpy_loaded, not_loaded):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"J1": "2/3", "J2": "1/3"}))
    argv = [str(init) if arg == "FILE" else arg for arg in argv]
    # A fresh interpreter: this one has numpy and every package module loaded already.
    env = {k: v for k, v in os.environ.items() if k != cli.ENV_MODE}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded, modules = json.loads(proc.stdout)
    assert code == (0 if argv else None), proc.stderr
    assert loaded is numpy_loaded
    assert sorted({f"exactchain.{name}" for name in not_loaded.split()} & set(modules)) == []


def test_package_loads_each_name_from_its_home_module_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import json, sys, exactchain; "
             "print(json.dumps([m for m in sys.modules if m.startswith('exactchain.')]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []

    for name in exactchain.__all__:
        home = importlib.import_module(f"exactchain.{exactchain._HOME[name]}")
        assert getattr(exactchain, name) is getattr(home, name), name
    star = {}
    exec("from exactchain import *", star)
    assert set(exactchain.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(exactchain, "no_such_name")


def test_closed_stdout_ends_the_run_without_a_traceback():
    # The report (about 360 kB) outgrows the pipe buffer, so the writer is
    # still writing when the reader closes the pipe.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["crowds", "--jondos", "60", "--colls", "12", "--pf", "4/5", "--float", "--json"]
    proc = subprocess.Popen([sys.executable, "-m", "exactchain.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "model'
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    # 1, as Python exits on EPIPE: a cut report is no success.
    assert (proc.returncode, err) == (1, b"")


def test_float_bytes_do_not_depend_on_the_openblas_thread_count():
    # OpenBLAS rounds this report's solves differently with more than one
    # thread, and by default it starts one per CPU; the CLI asks for one
    # unless the variable is set. Each run starts at most 2 threads.
    argv = ["crowds", "--jondos", "60", "--colls", "12", "--pf", "4/5", "--float", "--json"]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    outputs = []
    for child_env in (env, {**env, "OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run([sys.executable, "-m", "exactchain.cli", *argv], env=child_env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]

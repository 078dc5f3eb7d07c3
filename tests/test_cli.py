import json
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from exactchain import cli, linalg
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
    def singular(a, b, mode):
        raise SingularSystemError("Singular matrix")

    monkeypatch.setattr(linalg, "solve", singular)
    code, out, err = run(capsys, "solve", small_model, "--float",
                         "--until", "ALL=>Error", "--start", "Start")
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


@pytest.mark.parametrize("argv, text, code", [
    # JSON's non-standard constants are parse errors in both modes.
    (["validate", "FILE", "--exact"], LOOP_MODEL % "NaN", cli.EXIT_PARSE),
    (["validate", "FILE", "--float"], LOOP_MODEL % "NaN", cli.EXIT_PARSE),
    (["validate", "FILE", "--exact"], LOOP_MODEL % "Infinity", cli.EXIT_PARSE),
    (["validate", "FILE", "--float"], LOOP_MODEL % "-Infinity", cli.EXIT_PARSE),
    (["crowds", "--preset", "fig3", "--init", "FILE"], '{"J1": NaN, "J2": 0.5}', cli.EXIT_PARSE),
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
], ids=["nan-exact", "nan-float", "inf-exact", "minus-inf-float", "init-nan",
        "number-1e400", "string-1e400", "int-1e400", "zeroconf-E-1e400",
        "zeroconf-E-1e400-simulate", "simulate-cost-1e400", "simulate-cost-sum-overflow"])
def test_non_finite_and_overflowing_numbers(capsys, tmp_path, argv, text, code):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    got, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert (got, out) == (code, "")
    assert err.startswith("error: ")


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


@pytest.mark.parametrize("sweep, message", [
    ("p=", "no values"),
    ("p=1/100,;probes= ,", "no values"),
    ("p=1/100;p=1/10", "twice"),
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
    code, out, err = run(capsys, *args, "--max-steps", "1048578")
    assert code == cli.EXIT_MODEL
    assert out == "" and err.startswith("error: invalid parameters: max_steps")


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


def test_rational_values_round_trip(capsys):
    report = run_json(capsys, "zeroconf", "--preset", "paper-typical")
    for triple in (report["p_err_start"], report["expected_cost"]):
        for field in ("closed_form", "solver", "difference"):
            F(triple[field])  # parses losslessly


def test_timing_flag_adds_field(capsys, small_model):
    report = run_json(capsys, "validate", small_model, "--timing")
    assert "elapsed_seconds" in report


def _readme_commands():
    """The ``exactchain`` lines of the sh block under "## Command line" in README.md."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("exactchain ")]


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", README_COMMANDS,
                         ids=[f"example{i}" for i in range(len(README_COMMANDS))])
def test_readme_command_examples(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out

import hashlib
import json
import re
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from exactchain import EXACT, FLOAT, analysis, format_scalar, zeroconf
from exactchain.analysis import (
    certify_ae_until,
    expected_cost_until,
    until_probabilities,
    until_probability,
)
from exactchain.chain import _triple, _with_mode, arithmetic
from exactchain.errors import InvalidParamsError
from exactchain.simulate import SimConfig
from exactchain.zeroconf import (
    CLAIMED_ERROR_BOUND,
    PAPER_TYPICAL,
    ZeroconfParams,
    build_zeroconf,
    expected_cost_closed,
    hosts_to_q,
    p_err_closed,
    p_err_probe_closed,
    probe_label,
    state_labels,
    zeroconf_report,
)
from _support import recording

SMALL = ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), r=1, E=0)


def test_parameter_validation():
    with pytest.raises(InvalidParamsError, match=r"^N must be >= 0, got -1$"):
        ZeroconfParams(N=-1, p=F(1, 2), q=F(1, 2), r=0, E=0)
    for flag in (True, False):  # bool is an int subclass, but not a probe count
        with pytest.raises(InvalidParamsError, match=rf"^N must be an integer, got {flag}$"):
            ZeroconfParams(N=flag, p=F(1, 2), q=F(1, 2), r=0, E=0)
    with pytest.raises(InvalidParamsError):
        ZeroconfParams(N=1, p=F(1), q=F(1, 2), r=0, E=0)
    with pytest.raises(InvalidParamsError):
        ZeroconfParams(N=1, p=F(1, 2), q=F(0), r=0, E=0)
    with pytest.raises(InvalidParamsError):
        ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), r=-1, E=0)
    with pytest.raises(InvalidParamsError, match="need E >= 0"):
        ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), r=0, E=-1)
    with pytest.raises(InvalidParamsError):
        ZeroconfParams(N=1, p="nonsense", q=F(1, 2), r=0, E=0)
    with pytest.raises(InvalidParamsError, match="finite"):
        ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), r=0, E=float("inf"))
    # A bool is no number of seconds.
    for params in ({"r": True, "E": 0}, {"r": 0, "E": False}):
        with pytest.raises(InvalidParamsError, match="must be a finite number, got"):
            ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), **params)


def test_paper_typical_preset():
    assert PAPER_TYPICAL.N == 2
    assert PAPER_TYPICAL.q == hosts_to_q(16) == F(16, 65024)
    assert PAPER_TYPICAL.p == F(1, 100)
    assert PAPER_TYPICAL.r == F(1, 500)
    assert PAPER_TYPICAL.E == 3600


def test_state_set_size():
    rchain = build_zeroconf(PAPER_TYPICAL)
    assert len(rchain.chain.states) == 6  # Start, Ok, Error, Probe 0..2
    assert set(rchain.chain.states) == set(state_labels(PAPER_TYPICAL))


def test_transition_rows():
    rchain = build_zeroconf(PAPER_TYPICAL)
    chain = rchain.chain
    p, q = PAPER_TYPICAL.p, PAPER_TYPICAL.q
    assert chain.row("Start") == {"Probe 0": q, "Ok": 1 - q}
    assert chain.row("Probe 0") == {"Probe 1": p, "Start": 1 - p}
    assert chain.row("Probe 2") == {"Error": p, "Start": 1 - p}
    assert chain.row("Ok") == {"Ok": F(1)}
    assert chain.row("Error") == {"Error": F(1)}


def test_cost_rows():
    rchain = build_zeroconf(PAPER_TYPICAL)
    r, e, n = PAPER_TYPICAL.r, PAPER_TYPICAL.E, PAPER_TYPICAL.N
    assert rchain.cost("Start", "Probe 0") == r
    assert rchain.cost("Start", "Ok") == r * (n + 1)
    assert rchain.cost("Probe 0", "Probe 1") == r
    assert rchain.cost("Probe 2", "Error") == e
    assert rchain.cost("Probe 0", "Start") == 0
    assert rchain.cost("Ok", "Ok") == 0


def test_state_enumeration_split():
    # Summing any function over the enumeration helper equals summing it
    # over the chain's states: the three named states plus each probe.
    params = ZeroconfParams(N=3, p=F(1, 3), q=F(2, 5), r=1, E=2)
    chain = build_zeroconf(params).chain
    f = {s: F(hash(s) % 97, 13) for s in chain.states}
    split = (
        f["Start"] + f["Ok"] + f["Error"]
        + sum(f[probe_label(n)] for n in range(params.N + 1))
    )
    assert sum(f[s] for s in chain.states) == split
    assert state_labels(params)[:3] == ["Start", "Ok", "Error"]


def test_p_err_small_closed_form():
    assert p_err_closed(SMALL) == F(1, 5)


def test_p_err_probe_closed_forms():
    assert p_err_probe_closed(SMALL, 0) == F(2, 5)
    # Last probe: lose the final probe or restart and fail later.
    p = SMALL.p
    assert p_err_probe_closed(SMALL, SMALL.N) == p + (1 - p) * p_err_closed(SMALL)
    with pytest.raises(ValueError):
        p_err_probe_closed(SMALL, SMALL.N + 1)


def test_probe_index_is_an_integer_and_not_a_bool():
    # A probe number is whatever operator.index takes, as a numpy integer;
    # a bool is no probe number, and a float is none even when it is whole.
    assert p_err_probe_closed(PAPER_TYPICAL, np.int64(1)) == p_err_probe_closed(PAPER_TYPICAL, 1)
    assert type(p_err_probe_closed(PAPER_TYPICAL, np.uint8(2))) is F
    for index in (True, False, 1.0, 1.5, F(1), "1", None):
        message = f"probe index must be an integer, got {index!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            p_err_probe_closed(PAPER_TYPICAL, index)
    for index in (-1, 3, np.int64(3)):
        with pytest.raises(ValueError, match=rf"^probe index must be in 0\.\.2, got {index}$"):
            p_err_probe_closed(PAPER_TYPICAL, index)


def plain_probe_form(tail, p_err):
    """The error probability from a probe with ``tail = p**(N - n + 1)``: the
    remaining probes are all lost, or one is answered and the restart errs."""
    return tail + (1 - tail) * p_err


PROBABILITIES = st.fractions(0, 1, max_denominator=10**6).filter(lambda x: 0 < x < 1)


@settings(max_examples=60, deadline=None)
@given(p=PROBABILITIES, q=PROBABILITIES, n=st.integers(0, 60),
       mode=st.sampled_from([EXACT, FLOAT]))
def test_per_probe_forms_are_the_plain_form_in_both_modes(p, q, n, mode):
    # The per-probe forms run on split numerators, which in float mode are
    # the floats over the int 1; every operation with that 1 is exact, so
    # they round where the plain form does. The report reads the same forms
    # as p_err_probe_closed.
    params = _with_mode(ZeroconfParams(n, p, q, F(1, 500), 3600), mode)
    p_err = p_err_closed(params)
    frac = arithmetic(mode).frac
    plain = [plain_probe_form(params.p ** (n - i + 1), p_err) for i in range(n + 1)]
    forms = [frac(num, den) for num, den in zeroconf._p_err_probes(params, p_err, range(n + 1))]
    assert list(map(repr, forms)) == list(map(repr, plain))
    report = zeroconf_report(params, mode)["p_err_probe"]
    assert [report[probe_label(i)]["closed_form"] for i in range(n + 1)] == [
        format_scalar(p_err_probe_closed(params, i)) for i in range(n + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(p=PROBABILITIES, q=PROBABILITIES, n=st.integers(0, 60),
       mode=st.sampled_from([EXACT, FLOAT]))
def test_report_cross_checks_each_probe_as_the_reduced_triple(p, q, n, mode):
    # The report compares each exact split pair with the solver's value by
    # cross-multiplying; its entries are the triples of the reduced forms.
    params = _with_mode(ZeroconfParams(n, p, q, F(1, 500), 3600), mode)
    frac = arithmetic(mode).frac
    solver = until_probabilities(build_zeroconf(params, mode).chain, state_labels(params),
                                 {"Error"})
    pairs = zeroconf._p_err_probes(params, p_err_closed(params), range(n + 1))
    assert zeroconf_report(params, mode)["p_err_probe"] == {
        probe_label(i): _triple(frac(num, den), solver[probe_label(i)])
        for i, (num, den) in enumerate(pairs)
    }


def test_a_probe_the_solver_misses_prints_its_reduced_form_and_difference(monkeypatch):
    # One solver value off by 1/10**30 fails the cross-multiplication, so the
    # report reduces that probe's form and prints the triple as _triple does.
    params, off, missed = PAPER_TYPICAL, F(1, 10**30), probe_label(1)
    solve = analysis.until_probabilities

    def off_by_one_probe(*args):
        values = solve(*args)
        values[missed] += off
        return values

    monkeypatch.setattr(analysis, "until_probabilities", off_by_one_probe)
    report = zeroconf_report(params)["p_err_probe"]
    closed = p_err_probe_closed(params, 1)
    assert report[missed] == {
        "closed_form": format_scalar(closed),
        "solver": format_scalar(closed + off),
        "difference": format_scalar(-off),
    }
    assert report[missed] == _triple(closed, closed + off)
    for i in (0, 2):
        assert report[probe_label(i)]["difference"] == "0"


def row_shapes(n, p, q, r, e):
    """The rows of the ZeroConf chain by shape, as ``[(successor, probability, cost)]``.

    A probe ``i < N`` moves on to probe ``i + 1``, named here by shape.
    """
    return {
        "Start": [("Probe 0", q, r), ("Ok", 1 - q, r * (n + 1))],
        "Probe i<N": [("Probe i+1", p, r), ("Start", 1 - p, 0)],
        "Probe N": [("Error", p, e), ("Start", 1 - p, 0)],
    }


@pytest.mark.parametrize("n", range(41))
def test_builder_rows_take_the_three_shapes(n):
    # The link between the symbolic check below and the builder, on a grid
    # of sizes with generic rational parameters.
    p, q, r, e = F(2, 7), F(3, 11), F(5, 13), F(17, 19)
    rchain = build_zeroconf(ZeroconfParams(n, p, q, r, e))
    shapes = row_shapes(n, p, q, r, e)
    costs = {}
    for u, v, c in rchain.cost_edges():
        costs.setdefault(u, {})[v] = c
    for state in rchain.states:
        if state in ("Ok", "Error"):
            shape, rename = [(state, 1, 0)], {}
        elif state == "Start":
            shape, rename = shapes["Start"], {}
        else:
            i = int(state.split()[1])
            shape = shapes["Probe N" if i == n else "Probe i<N"]
            rename = {"Probe i+1": probe_label(i + 1)}
        assert rchain.chain.row(state) == {rename.get(v, v): x for v, x, _ in shape}
        assert costs.get(state, {}) == {rename.get(v, v): c for v, _, c in shape if c}


def test_closed_forms_satisfy_every_row_shape_for_every_size():
    # With t = p**(N - i) for probe i and T = p**(N + 1), the error
    # probability and the expected cost from probe i are functions of t
    # (error(t), expected(t)), so each row shape is one identity in p, q, r,
    # E, N, t and T. Probe i + 1 has t / p, probe 0 has T / p and probe N
    # has 1. The per-probe cost vector is not in the package; it is derived
    # here.
    p, q, r, e, t, T = sympy.symbols("p q r E t T", positive=True)
    n = sympy.Symbol("N", integer=True, nonnegative=True)
    params = SimpleNamespace(N=n, p=p, q=q, r=r, E=e)
    powers = {p ** (n + 1): T, p**n: T / p}
    p_err = p_err_closed(params).subs(powers)
    cost = expected_cost_closed(params).subs(powers)
    assert not {p ** (n + 1), p**n} & (p_err.atoms(sympy.Pow) | cost.atoms(sympy.Pow))

    def error(t):
        return plain_probe_form(p * t, p_err)

    def expected(t):
        return p * r * (1 - t) / (1 - p) + p * t * e + (1 - p * t) * cost

    shapes = row_shapes(n, p, q, r, e)
    # (vector, its value at Start and at Error, whether transitions cost)
    for value, start, err, paid in ((error, p_err, 1, 0), (expected, cost, 0, 1)):
        values = {
            "Start": {"self": start, "Probe 0": value(T / p), "Ok": 0},
            "Probe i<N": {"self": value(t), "Probe i+1": value(t / p), "Start": start},
            "Probe N": {"self": value(1), "Error": err, "Start": start},
        }
        for shape, row in shapes.items():
            x = values[shape]
            residual = x["self"] - sum(prob * (paid * c + x[v]) for v, prob, c in row)
            assert sympy.cancel(residual) == 0, (value.__name__, shape)


def test_start_iteration_identity():
    for params in (SMALL, PAPER_TYPICAL):
        assert params.q * p_err_probe_closed(params, 0) == p_err_closed(params)


def test_closed_forms_match_solver_on_grid():
    grid_probs = [F(1, 10), F(3, 10), F(5, 10), F(7, 10), F(9, 10)]
    for n in range(3):
        for p in grid_probs[::2]:
            for q in grid_probs[::2]:
                params = ZeroconfParams(N=n, p=p, q=q, r=F(1, 2), E=F(3))
                rchain = build_zeroconf(params)
                chain = rchain.chain
                vec = until_probabilities(chain, chain.states, {"Error"})
                assert vec["Start"] == p_err_closed(params)
                for i in range(n + 1):
                    assert vec[probe_label(i)] == p_err_probe_closed(params, i)
                assert expected_cost_until(rchain, {"Ok", "Error"}, "Start") == (
                    expected_cost_closed(params)
                )


@pytest.mark.parametrize("n", [50, 200, 400])
def test_closed_forms_match_solver_at_large_n(n):
    report = zeroconf_report(ZeroconfParams(N=n, p=F(1, 100), q=F(16, 65024),
                                            r=F(1, 500), E=3600))
    triples = [report["p_err_start"], report["expected_cost"],
               *report["p_err_probe"].values()]
    assert len(triples) == n + 3
    assert all(t["difference"] == "0" for t in triples)


def test_p_err_monotone_in_p_and_q():
    grid = [F(1, 10), F(3, 10), F(5, 10), F(7, 10), F(9, 10)]
    for n in (0, 2):
        for a, b in zip(grid, grid[1:]):
            base = ZeroconfParams(N=n, p=a, q=a, r=0, E=0)
            assert p_err_closed(ZeroconfParams(N=n, p=b, q=a, r=0, E=0)) > p_err_closed(base)
            assert p_err_closed(ZeroconfParams(N=n, p=a, q=b, r=0, E=0)) > p_err_closed(base)


def test_expected_cost_zero_when_free():
    params = ZeroconfParams(N=2, p=F(1, 4), q=F(1, 4), r=0, E=0)
    assert expected_cost_closed(params) == 0
    assert expected_cost_until(build_zeroconf(params), {"Ok", "Error"}, "Start") == 0


def test_paper_typical_cost_bound():
    cost = expected_cost_closed(PAPER_TYPICAL)
    assert cost == F(121918101, 20315000005)
    assert cost <= F(7, 1000)


def test_paper_typical_error_probability_exact():
    value = p_err_closed(PAPER_TYPICAL)
    assert value == F(1, 4063000001)
    assert value > CLAIMED_ERROR_BOUND


def test_ae_termination_from_every_state():
    chain = build_zeroconf(PAPER_TYPICAL).chain
    for s in chain.states:
        assert certify_ae_until(chain, chain.states, {"Ok", "Error"}, s)


def test_report_graph_searches_do_not_grow_with_n():
    # The verdicts for all states come from one all-states split, not one
    # backward search per state.
    def count(n):
        with recording(analysis, "_traverse") as calls:
            report = zeroconf_report(ZeroconfParams(N=n, p=F(1, 10), q=F(1, 2), r=1, E=1))
        assert all(report["ae_termination"].values())
        return len(calls)

    assert count(2) == count(40)


def test_report_converts_its_parameters_once():
    # The report builds its chain from the record it converted for its
    # closed forms, so the build's conversion returns that record as it is.
    for mode in ("exact", FLOAT):
        with recording(zeroconf, "_with_mode") as conversions:
            with recording(zeroconf, "build_zeroconf") as builds:
                zeroconf_report(PAPER_TYPICAL, mode)
        [build] = builds
        assert [c["params"] for c in conversions] == [PAPER_TYPICAL, build["params"]]
        assert _with_mode(build["params"], mode) is build["params"]


def test_report_with_numpy_sampling_counts_is_the_report_with_ints():
    # SimConfig keeps plain ints, so the report's simulation section goes
    # through json, and the walker draws the paths of the same seed.
    with_numpy = zeroconf_report(PAPER_TYPICAL, sim=SimConfig(np.int64(7), np.int64(1000)))
    with_ints = zeroconf_report(PAPER_TYPICAL, sim=SimConfig(7, 1000))
    assert json.dumps(with_numpy) == json.dumps(with_ints)


def test_report_exact_mode():
    report = zeroconf_report(PAPER_TYPICAL)
    assert report["p_err_start"]["difference"] == "0"
    assert report["expected_cost"]["difference"] == "0"
    for n in range(PAPER_TYPICAL.N + 1):
        assert report["p_err_probe"][probe_label(n)]["difference"] == "0"
    assert all(report["ae_termination"].values())
    audit = report["bound_audit"]
    assert audit["within_claimed_bound"] is False
    assert audit["exact_p_err"] == "1/4063000001"
    assert F(audit["claimed_error_bound"]) == CLAIMED_ERROR_BOUND


def test_report_float_mode_close_to_exact():
    exact = zeroconf_report(PAPER_TYPICAL)
    approx = zeroconf_report(PAPER_TYPICAL, mode=FLOAT)
    for key in ("p_err_start", "expected_cost"):
        a = F(exact[key]["solver"])
        b = float(approx[key]["solver"])
        assert abs(b - float(a)) <= 1e-9 * max(1.0, abs(float(a)))


def test_float_mode_chain_matches_exact_solver():
    fchain = build_zeroconf(PAPER_TYPICAL, mode=FLOAT).chain
    value = until_probability(fchain, fchain.states, {"Error"}, "Start")
    assert value == pytest.approx(float(F(1, 4063000001)), rel=1e-6)


# Exact reports hashed before the per-probe closed forms were built from
# integer tails over one denominator; no byte may move.
GOLDEN_REPORTS = {
    2: "004b08fdd480a59903840175d491acb85538659583690af9599a5e0fc43ffbac",
    25: "0bf04ccc875f6d2a66398413d317d3e5ab2c955c613a0bf48532b9295e2e4dcb",
    100: "51262de1fdea48d59940034cc626b4299e16d47cce8bda0b749773054b8759db",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_REPORTS))
def test_exact_report_bytes_are_unchanged(n):
    base = PAPER_TYPICAL
    params = ZeroconfParams(n, base.p, base.q, base.r, base.E)
    text = json.dumps(zeroconf_report(params), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[n]

import hashlib
import json
from fractions import Fraction as F

import pytest

from exactchain import FLOAT, analysis, zeroconf
from exactchain.analysis import (
    certify_ae_until,
    expected_cost_until,
    until_probabilities,
    until_probability,
)
from exactchain.errors import InvalidParamsError
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
    with pytest.raises(InvalidParamsError):
        ZeroconfParams(N=-1, p=F(1, 2), q=F(1, 2), r=0, E=0)
    for flag in (True, False):  # bool is an int subclass, but not a probe count
        with pytest.raises(InvalidParamsError, match="N must be a natural number"):
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
    # closed forms, so the build does not convert it again.
    for mode in ("exact", FLOAT):
        with recording(zeroconf, "_with_mode") as calls:
            zeroconf_report(PAPER_TYPICAL, mode)
        assert len(calls) == 1


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

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a pytest failure in a criterion is its FAIL line.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as F

from exactchain import cli
from exactchain.analysis import (
    certify_ae_until,
    expected_cost_until,
    expected_hitting_time,
    until_prob_is_zero,
    until_probabilities,
    until_probability,
)
from exactchain.crowds import (
    FIG3,
    build_crowds,
    conditional_joint,
    first_last_jondo_joint,
    is_product_joint,
    joint_first_last,
    last_jondo_distribution,
    make_params,
    mi_bound,
    mi_exact,
    path_shape_error,
    prob_first_eq_last,
    prob_hit_colls,
    probable_innocence,
    solver_hit_prob,
    solver_joint_first_last,
)
from exactchain.simulate import (
    PathRng,
    SimConfig,
    estimate_joint_first_last,
    estimate_until,
    sample_path,
)
from exactchain.zeroconf import (
    CLAIMED_ERROR_BOUND,
    PAPER_TYPICAL,
    ZeroconfParams,
    build_zeroconf,
    expected_cost_closed,
    p_err_closed,
    zeroconf_report,
)
from _support import random_chain, random_query, truncated_until_mass

PROB_GRID = [F(1, 10), F(3, 10), F(5, 10), F(7, 10), F(9, 10)]

CROWDS_GRID = [
    (j, c, pf)
    for j in range(3, 9)
    for c in range(1, j - 1)
    for pf in (F(1, 4), F(1, 2), F(3, 4))
]


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def test_criterion_01_zeroconf_closed_form_equality():
    started = time.perf_counter()
    cases = 0
    for n in range(5):
        for p in PROB_GRID:
            for q in PROB_GRID:
                params = ZeroconfParams(N=n, p=p, q=q, r=0, E=0)
                chain = build_zeroconf(params).chain
                solver = until_probability(chain, chain.states, {"Error"}, "Start")
                assert solver - p_err_closed(params) == 0
                cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 125
    assert elapsed < 5.0
    _pass(1, f"125/125 exact closed-form equalities in {elapsed:.2f}s")


def test_criterion_02_zeroconf_expected_cost():
    preset_cost = expected_cost_until(
        build_zeroconf(PAPER_TYPICAL), {"Ok", "Error"}, "Start"
    )
    assert preset_cost == expected_cost_closed(PAPER_TYPICAL)
    assert preset_cost <= F(7, 1000)

    cases = 0
    for n in range(5):
        for p in PROB_GRID:
            for q in PROB_GRID:
                for r in (F(0), F(1, 2), F(3600)):
                    for e in (F(0), F(1, 2), F(3600)):
                        params = ZeroconfParams(N=n, p=p, q=q, r=r, E=e)
                        solver = expected_cost_until(
                            build_zeroconf(params), {"Ok", "Error"}, "Start"
                        )
                        assert solver - expected_cost_closed(params) == 0
                        cases += 1
    _pass(2, f"preset cost {preset_cost} <= 7/1000; {cases} grid equalities exact")


def test_criterion_03_zeroconf_bound_audit():
    # Independent evaluation of the closed form, written out from scratch.
    p, q, n = F(1, 100), F(16, 65024), 2
    independent = (q * p ** (n + 1)) / (1 - q * (1 - p ** (n + 1)))
    assert independent == F(1, 4063000001)

    exact = p_err_closed(PAPER_TYPICAL)
    assert exact == independent
    assert abs(float(exact) - 2.46e-10) < 0.01e-10

    report = zeroconf_report(PAPER_TYPICAL)
    audit = report["bound_audit"]
    assert F(audit["claimed_error_bound"]) == CLAIMED_ERROR_BOUND == F(1, 10**13)
    assert audit["within_claimed_bound"] is False  # flagged, not failed
    assert exact > CLAIMED_ERROR_BOUND
    _pass(3, f"exact P_err {exact} (~{float(exact):.3e}) exceeds 1/10^13; report flags it")


def test_criterion_04_ae_certification_and_finite_hitting_times():
    rchain = build_zeroconf(PAPER_TYPICAL)
    chain = rchain.chain
    goal = {"Ok", "Error"}
    for s in chain.states:
        assert certify_ae_until(chain, chain.states, goal, s)
        assert expected_hitting_time(chain, goal, s) != math.inf

    for j, c, pf in CROWDS_GRID:
        model = build_crowds(make_params(j, c, pf))
        assert certify_ae_until(model.chain, model.chain.states, {"End"}, "Start")
        assert expected_hitting_time(model.chain, {"End"}, "Start") != math.inf
    _pass(4, f"AE certificates hold for all ZeroConf states and {len(CROWDS_GRID)} "
             "Crowds grid points, with finite hitting times")


def test_criterion_05_crowds_closed_form_equalities():
    started = time.perf_counter()
    for j, c, pf in CROWDS_GRID:
        params = make_params(j, c, pf)
        model = build_crowds(params)
        assert solver_hit_prob(model) == prob_hit_colls(params)
        assert solver_joint_first_last(model) == conditional_joint(params)
        diagonal = sum(
            joint_first_last(params, i, i) for i in params.honest
        )
        assert diagonal == prob_first_eq_last(params)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(5, f"{len(CROWDS_GRID)} grid points match exactly in {elapsed:.2f}s")


def test_criterion_06_probable_innocence():
    for j, c, pf in CROWDS_GRID:
        params = make_params(j, c, pf)
        verdict = probable_innocence(params)
        if verdict.holds:
            assert prob_first_eq_last(params) <= F(1, 2)
        if params.H > 1 and pf < verdict.threshold:
            assert prob_first_eq_last(params) > F(1, 2)

    boundaries = 0
    for j in range(3, 9):
        for c in range(1, j - 1):
            h = j - c
            if h <= 1:
                continue
            threshold = F(j, 2 * (h - 1))
            if threshold >= 1:
                continue
            params = make_params(j, c, threshold)
            assert probable_innocence(params).holds
            assert prob_first_eq_last(params) == F(1, 2)
            boundaries += 1
    assert boundaries > 0
    _pass(6, f"innocence verdicts consistent on the grid and {boundaries} "
             "threshold-boundary points hit exactly 1/2")


def test_criterion_07_mutual_information_bound():
    for j, c, pf in CROWDS_GRID:
        params = make_params(j, c, pf)
        assert mi_exact(params) <= mi_bound(params) + 1e-9
    for j in range(2, 9):
        lonely = make_params(j, j - 1, F(1, 2))  # single honest jondo
        assert lonely.H == 1
        assert mi_exact(lonely) == 0.0
    _pass(7, f"information gain below its bound at {len(CROWDS_GRID)} grid points; "
             "zero with a single honest jondo")


def test_criterion_08_first_last_independence_and_uniform_contact():
    for j, c, pf in CROWDS_GRID:
        params = make_params(j, c, pf)
        model = build_crowds(params)
        joint = first_last_jondo_joint(model)
        assert is_product_joint(joint)
        assert sum(joint.values()) == 1
        law = last_jondo_distribution(model)
        assert law.never == 0
        assert law.mass == {lab: F(1, j) for lab in params.jondos}
    _pass(8, f"(initiator, server contact) factorizes and the contact law is "
             f"uniform 1/J at {len(CROWDS_GRID)} grid points")


def test_criterion_09_monte_carlo_oracle():
    # ZeroConf N=1, p=q=1/2: exact error probability 1/5.
    small = build_zeroconf(ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), r=1, E=0))
    cfg = SimConfig(seed=1, samples=1_000_000)
    est = estimate_until(small.chain, small.chain.states, {"Error"}, "Start", cfg)
    assert est.censored == 0
    assert abs(est.mean - 0.2) <= 3 * est.std_error
    assert est == estimate_until(small.chain, small.chain.states, {"Error"}, "Start", cfg)

    # Crowds J=3, one collaborator, p_f=1/2: joint cells 5/12 and 1/12.
    model = build_crowds(FIG3)
    counts = estimate_joint_first_last(model, cfg)
    assert counts == estimate_joint_first_last(model, cfg)
    for i in FIG3.honest:
        for l in FIG3.honest:
            exact = float(joint_first_last(FIG3, i, l))
            sigma = math.sqrt(exact * (1 - exact) / counts.hits)
            assert abs(counts.cell_fraction(i, l) - exact) <= 3 * sigma

    # Every sampled path follows the route shape within the horizon.
    checked = 20_000
    for i in range(checked):
        path = sample_path(model.chain, "Start", PathRng(7, i), max_steps=64)
        assert path_shape_error(model, path.states) is None

    # Rerunning the CLI with the same seed is byte-identical.
    argv = ["simulate", "crowds:fig3", "--event", "until:ALL=>Mix J3",
            "--seed", "123", "--samples", "50000", "--json"]
    first, second = io.StringIO(), io.StringIO()
    with redirect_stdout(first):
        assert cli.main(list(argv)) == 0
    with redirect_stdout(second):
        assert cli.main(list(argv)) == 0
    assert first.getvalue() == second.getvalue()
    assert abs(json.loads(first.getvalue())["results"][0]["mean"] - 0.5) < 0.01

    _pass(9, f"10^6-sample estimates within 3 sigma (zeroconf dev "
             f"{abs(est.mean - 0.2) / est.std_error:.2f} sigma); {checked} paths "
             "shape-conformant; reruns byte-identical")


def test_criterion_10_generic_engine_properties():
    rng = random.Random(2024)
    bellman_states = 0
    for _ in range(200):
        chain = random_chain(rng, rng.randint(2, 6))
        phi, psi, start = random_query(rng, chain)
        values = until_probabilities(chain, phi, psi)

        # Fixed-point identity with zero residual off the classified states.
        for s in chain.states:
            if s in psi or until_prob_is_zero(chain, phi, psi, s):
                continue
            total = sum((p * values[t] for t, p in chain.row(s).items()), F(0))
            assert values[s] - total == 0
            bellman_states += 1

        # Exhaustive prefix enumeration up to 12 transitions brackets the
        # solved value by the still-undecided mass.
        hit, undecided = truncated_until_mass(chain, phi, psi, start, 12)
        assert hit <= values[start] <= hit + undecided

        # The graph-level zero test agrees with the solver everywhere.
        for s in chain.states:
            assert until_prob_is_zero(chain, phi, psi, s) == (values[s] == 0)
    _pass(10, f"200 random chains: Bellman residual zero on {bellman_states} "
              "states, enumeration brackets hold, zero-test matches solver")

import math
from fractions import Fraction as F

import pytest

from exactchain import FLOAT, linalg
from exactchain.analysis import certify_ae_until, entry_edge_distribution
from exactchain.errors import InvalidParamsError, NotHonestJondoError
from exactchain.crowds import (
    FIG3,
    CrowdsParams,
    build_crowds,
    conditional_joint,
    crowds_report,
    first_last_jondo_joint,
    is_product_joint,
    joint_first_last,
    last_jondo_distribution,
    make_params,
    mi_bound,
    mi_exact,
    mix_label,
    path_shape_error,
    prob_first_eq_last,
    prob_hit_colls,
    probable_innocence,
    solver_hit_prob,
    solver_joint_first_last,
)


def test_parameter_validation():
    with pytest.raises(InvalidParamsError):
        make_params(2, 2, F(1, 2))  # collaborators must be a proper subset
    with pytest.raises(InvalidParamsError):
        make_params(3, 1, F(1))  # p_f < 1
    with pytest.raises(InvalidParamsError):
        make_params(3, 1, F(0))
    with pytest.raises(InvalidParamsError):
        CrowdsParams(("a", "a", "b"), frozenset({"b"}), F(1, 2))
    with pytest.raises(InvalidParamsError):
        CrowdsParams(("a", "b"), frozenset(), F(1, 2))
    with pytest.raises(InvalidParamsError):
        # collaborators cannot initiate
        CrowdsParams(("a", "b", "c"), frozenset({"c"}),
                     F(1, 2), {"a": F(1, 2), "c": F(1, 2)})
    with pytest.raises(InvalidParamsError):
        CrowdsParams(("a", "b", "c"), frozenset({"c"}),
                     F(1, 2), {"a": F(1, 2), "b": F(1, 3)})
    for mass in (math.nan, math.inf):
        with pytest.raises(InvalidParamsError, match="finite"):
            CrowdsParams(("a", "b", "c"), frozenset({"c"}), 0.5, {"a": mass, "b": 0.5})


def test_fig3_preset_and_derived_counts():
    assert FIG3.jondos == ("J1", "J2", "J3")
    assert FIG3.colls == frozenset({"J3"})
    assert FIG3.J == 3 and FIG3.H == 2
    assert FIG3.honest == ("J1", "J2")
    assert FIG3.init["J1"] == F(1, 2)


def test_chain_structure():
    model = build_crowds(FIG3)
    chain = model.chain
    assert len(chain.states) == 7  # Start, 2 Init, 3 Mix, End
    assert chain.row("Start") == {"Init J1": F(1, 2), "Init J2": F(1, 2)}
    assert chain.row("Init J1") == {mix_label(j): F(1, 3) for j in FIG3.jondos}
    mix_row = chain.row("Mix J2")
    assert mix_row["End"] == F(1, 2)
    for j in FIG3.jondos:
        assert mix_row[mix_label(j)] == F(1, 6)
    assert chain.row("End") == {"End": F(1)}


def test_skewed_init_goes_into_start_row():
    params = CrowdsParams(("a", "b", "c"), frozenset({"c"}), F(1, 2),
                          {"a": F(2, 3), "b": F(1, 3)})
    chain = build_crowds(params).chain
    assert chain.row("Start") == {"Init a": F(2, 3), "Init b": F(1, 3)}


def test_honest_jondo_with_zero_init_mass():
    # 'b' never initiates but still mixes; closed forms and solver agree.
    params = CrowdsParams(("a", "b", "c"), frozenset({"c"}), F(1, 2),
                          {"a": F(1)})
    model = build_crowds(params)
    assert "Init b" in model.chain.states
    assert model.chain.row("Start") == {"Init a": F(1)}
    assert solver_hit_prob(model) == prob_hit_colls(params)
    assert solver_joint_first_last(model) == conditional_joint(params)
    assert sum(conditional_joint(params).values()) == 1
    assert is_product_joint(first_last_jondo_joint(model))


@pytest.mark.parametrize("mode", ["exact", FLOAT])
def test_skewed_init_with_a_silent_honest_jondo(mode):
    # J2 never initiates: the batched solve covers J1, J3 and J4 only, yet every
    # cell of the joint, J2's row of zeros included, matches the closed form.
    params = make_params(6, 2, F(3, 4), init={"J1": F(1, 3), "J2": 0, "J3": F(1, 6),
                                             "J4": F(1, 2)})
    model = build_crowds(params, mode)
    if mode == "exact":
        def same(x, y):
            return x == y
    else:
        def same(x, y):
            return x == pytest.approx(y, rel=1e-12, abs=1e-15)
    solver = solver_joint_first_last(model)
    closed = conditional_joint(model.params)
    assert list(solver) == list(closed)
    assert all(same(solver[c], closed[c]) for c in closed)
    assert all(solver[("J2", l)] == 0 for l in params.honest)
    joint = first_last_jondo_joint(model)
    assert all(same(v, model.params.init[i] / 6) for (i, _), v in joint.items())
    assert is_product_joint(joint)


def test_report_solves_once_per_query(monkeypatch):
    # Hit probability, collaborator joint, last-jondo law and the
    # independence joint: one absorbing solve each, whatever J.
    calls = []
    solve = linalg.solve

    def counting_solve(a, b, mode):
        calls.append(len(a))
        return solve(a, b, mode)

    monkeypatch.setattr(linalg, "solve", counting_solve)
    report = crowds_report(make_params(20, 4, F(4, 5)))
    assert len(calls) <= 4
    assert all(t["difference"] == "0" for t in report["joint_first_last"].values())


def test_hit_probability_closed_form():
    assert prob_hit_colls(FIG3) == F(1, 2)
    # One collaborator among J jondos, arbitrary p_f.
    for j in (3, 5, 8):
        params = make_params(j, 1, F(3, 4))
        expected = F(1, j) / (1 - F(3, 4) * F(j - 1, j))
        assert prob_hit_colls(params) == expected


def test_hit_probability_decreases_with_crowd_size():
    values = [prob_hit_colls(make_params(j, 1, F(1, 2))) for j in range(3, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_joint_first_last_closed_form():
    assert joint_first_last(FIG3, "J1", "J1") == F(5, 12)
    assert joint_first_last(FIG3, "J1", "J2") == F(1, 12)
    with pytest.raises(NotHonestJondoError):
        joint_first_last(FIG3, "J3", "J1")
    total = sum(conditional_joint(FIG3).values())
    assert total == 1


def test_prob_first_eq_last_closed_form():
    assert prob_first_eq_last(FIG3) == F(5, 6)
    assert prob_first_eq_last(FIG3) == sum(
        joint_first_last(FIG3, i, i) for i in FIG3.honest
    )
    # A single honest jondo must be both initiator and contact.
    assert prob_first_eq_last(make_params(3, 2, F(1, 2))) == 1


def test_solver_matches_closed_forms():
    for j, c, pf in [(3, 1, F(1, 2)), (4, 2, F(1, 4)), (6, 3, F(3, 4))]:
        params = make_params(j, c, pf)
        model = build_crowds(params)
        assert solver_hit_prob(model) == prob_hit_colls(params)
        assert solver_joint_first_last(model) == conditional_joint(params)


def test_entry_edge_total_mass_is_hit_probability():
    model = build_crowds(FIG3)
    edge = entry_edge_distribution(model.chain, {"Mix J3"}, "Start")
    assert edge.total() == F(1, 2)
    assert edge.never == F(1, 2)


def test_probable_innocence_threshold():
    verdict = probable_innocence(make_params(10, 2, F(18, 25)))  # p_f = 0.72
    assert verdict.threshold == F(10, 14)
    assert verdict.holds
    below = probable_innocence(make_params(10, 2, F(7, 10)))
    assert not below.holds
    single = probable_innocence(make_params(3, 2, F(1, 2)))
    assert not single.holds and single.threshold == math.inf


def test_probable_innocence_implies_half():
    for j in range(3, 9):
        for c in range(1, j - 1):
            for pf in (F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
                params = make_params(j, c, pf)
                if probable_innocence(params).holds:
                    assert prob_first_eq_last(params) <= F(1, 2)


def test_last_jondo_distribution_uniform():
    for j, c in [(3, 1), (5, 2)]:
        params = make_params(j, c, F(2, 5))
        dist = last_jondo_distribution(build_crowds(params))
        assert dist.never == 0
        assert dist.mass == {lab: F(1, j) for lab in params.jondos}


def test_first_last_jondo_independence():
    # Which jondo contacts the server says nothing about the initiator,
    # also under a skewed initiator distribution.
    skewed = CrowdsParams(("a", "b", "c", "d"), frozenset({"d"}), F(1, 3),
                          {"a": F(1, 2), "b": F(1, 3), "c": F(1, 6)})
    for params in (FIG3, make_params(5, 2, F(3, 4)), skewed):
        joint = first_last_jondo_joint(build_crowds(params))
        assert is_product_joint(joint)
        assert sum(joint.values()) == 1


def test_conditional_joint_is_not_product():
    # The collaborator-conditioned joint carries real information.
    for params in (FIG3, make_params(5, 2, F(3, 4))):
        assert not is_product_joint(conditional_joint(params))
        assert mi_exact(params) > 0


def test_mi_values():
    assert mi_exact(FIG3) == pytest.approx(0.3499775783516, abs=1e-10)
    assert mi_bound(FIG3) == pytest.approx(5 / 6)
    assert mi_exact(make_params(3, 2, F(1, 2))) == 0.0
    assert mi_bound(make_params(3, 2, F(1, 2))) == 0.0


def test_mi_bound_dominates_and_decreases_in_pf():
    for j, c in [(3, 1), (6, 2), (8, 5)]:
        previous = None
        for pf in (F(1, 4), F(1, 2), F(3, 4)):
            params = make_params(j, c, pf)
            bound = mi_bound(params)
            assert mi_exact(params) <= bound + 1e-9
            if previous is not None:
                assert bound < previous
            previous = bound


def test_route_termination_certified():
    model = build_crowds(FIG3)
    assert certify_ae_until(model.chain, model.chain.states, {"End"}, "Start")


def test_path_shape_checker():
    model = build_crowds(FIG3)
    ok = ("Start", "Init J1", "Mix J3", "Mix J2", "End", "End")
    assert path_shape_error(model, ok) is None
    assert path_shape_error(model, ("Start", "Mix J1")) is not None
    assert path_shape_error(model, ("Start", "Init J1", "End", "Mix J1")) is not None
    assert path_shape_error(model, ("Init J1", "Mix J1")) is not None


def test_report_exact_mode():
    report = crowds_report(FIG3)
    assert report["hit_collaborator"]["difference"] == "0"
    assert report["first_equals_last"]["difference"] == "0"
    assert all(cell["difference"] == "0"
               for cell in report["joint_first_last"].values())
    assert report["independence_first_last_jondo"] is True
    assert report["ae_route_terminates"] is True
    assert report["last_jondo"]["max_difference"] == "0"
    assert report["probable_innocence"]["holds"] is False


def test_report_float_mode_close_to_exact():
    exact = crowds_report(FIG3)
    approx = crowds_report(FIG3, mode=FLOAT)
    for key in ("hit_collaborator", "first_equals_last"):
        a = float(F(exact[key]["solver"]))
        b = float(approx[key]["solver"])
        assert abs(a - b) <= 1e-9
    assert approx["independence_first_last_jondo"] is True


def test_report_float_mode_forwarding_just_below_one():
    # The float-summed hit mass may exceed 1 by an ulp; conditioning on it
    # must still give the joint.
    report = crowds_report(make_params(5, 3, 1 - 10**-16), mode=FLOAT)
    hit = report["hit_collaborator"]
    assert abs(float(hit["closed_form"]) - float(hit["solver"])) <= 1e-9

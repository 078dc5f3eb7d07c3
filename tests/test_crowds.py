import dataclasses
import hashlib
import json
import math
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from exactchain import EXACT, FLOAT, crowds, format_scalar, linalg, validate_chain
from exactchain import chain as chain_module
from exactchain.analysis import certify_ae_until, entry_edge_distribution
from exactchain.chain import _triple
from exactchain.errors import InvalidParamsError, NotHonestJondoError, SingularSystemError
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
from _support import recording


def test_parameter_validation():
    with pytest.raises(InvalidParamsError):
        make_params(2, 2, F(1, 2))  # collaborators must be a proper subset
    with pytest.raises(InvalidParamsError):
        make_params(3, 1, F(1))  # p_f < 1
    with pytest.raises(InvalidParamsError):
        make_params(3, 1, F(0))
    with pytest.raises(InvalidParamsError, match="^need 1 <= collaborators < jondos, got 1000"):
        make_params(10**5000, 10**5000, F(1, 2))  # counts past the 4,300-digit str limit
    with pytest.raises(InvalidParamsError):
        CrowdsParams(("a", "a", "b"), frozenset({"b"}), F(1, 2))
    with pytest.raises(InvalidParamsError):
        CrowdsParams(("a", "b"), frozenset(), F(1, 2))
    with pytest.raises(InvalidParamsError, match="need at least one jondo"):
        CrowdsParams((), frozenset({"a"}), F(1, 2))
    # make_params counts collaborators first, so only a record reaches this.
    with pytest.raises(InvalidParamsError, match="proper subset"):
        CrowdsParams(("a", "b"), frozenset({"a", "b"}), F(1, 2))
    with pytest.raises(InvalidParamsError, match="unknown jondos"):
        CrowdsParams(("a", "b"), frozenset({"b"}), F(1, 2), {"a": F(1, 2), "z": F(1, 2)})
    with pytest.raises(InvalidParamsError, match=r"init\[b\] is negative"):
        CrowdsParams(("a", "b", "c"), frozenset({"c"}), F(1, 2), {"a": F(3, 2), "b": F(-1, 2)})
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
    # Bools are no masses, although True and False sum to one.
    with pytest.raises(InvalidParamsError, match=r"init\[J1\] must be a finite number"):
        make_params(3, 1, F(1, 2), init={"J1": True, "J2": False})


def test_params_cache_honest_outside_eq_hash_and_repr():
    p = make_params(4, 1, F(1, 2))
    assert p.honest is p.honest == ("J1", "J2", "J3")
    assert repr(p) == (
        "CrowdsParams(jondos=('J1', 'J2', 'J3', 'J4'), colls=frozenset({'J4'}), "
        "p_f=Fraction(1, 2), init=mappingproxy({'J1': Fraction(1, 3), "
        "'J2': Fraction(1, 3), 'J3': Fraction(1, 3)}))"
    )
    explicit = CrowdsParams(("J1", "J2", "J3", "J4"), {"J4"}, F(1, 2),
                            {"J1": F(1, 3), "J2": F(1, 3), "J3": F(1, 3)})
    assert p == explicit and hash(p) == hash(explicit)
    assert p != make_params(4, 2, F(1, 2))
    skewed = make_params(4, 1, F(1, 2), {"J1": F(1, 2), "J2": F(1, 2)})
    assert skewed != p and skewed == make_params(4, 1, 0.5, {"J2": 0.5, "J1": 0.5})
    assert hash(skewed) == hash(make_params(4, 1, 0.5, {"J2": 0.5, "J1": 0.5}))


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
    # Exact mode rejects a float mass, a zero one included.
    with pytest.raises(TypeError, match="exact mode rejects float 0.0"):
        build_crowds(CrowdsParams(("a", "b", "c"), frozenset({"c"}), F(1, 2),
                                  {"a": F(1), "b": 0.0}))


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


def test_report_solves_once_per_query():
    # Two entry-law solves, whatever J, with at most one right-hand-side
    # column per honest initiator (H = 16): into the collaborators' Mix
    # states (hit probability and collaborator joint) and into End
    # (last-jondo law and the independence joint).
    with recording(linalg, "solve") as solves:
        report = crowds_report(make_params(20, 4, F(4, 5)))
    calls = [(len(solve["rows"]), len(solve["b"][0])) for solve in solves]
    assert len(calls) == 2
    assert max(cols for _, cols in calls) <= 16
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


def row_shapes(J, H, p_f):
    """The Init and Mix rows of the Crowds chain by shape, as ``[(kind, count, probability)]``.

    Each of the ``count`` successors of the kind ``kind`` has
    ``probability``; ``C = J - H`` Mix states are collaborators'.
    """
    return {
        "Init": [("collaborator Mix", J - H, 1 / J), ("honest Mix", H, 1 / J)],
        "Mix": [("collaborator Mix", J - H, p_f / J), ("honest Mix", H, p_f / J),
                ("End", 1, 1 - p_f)],
    }


def test_closed_forms_satisfy_the_init_and_mix_rows_for_every_size(monkeypatch):
    # Identities in J, H, p_f and the initiator weight w. A vector takes one
    # value per shape and role: "l", the honest jondo the outcome names, or
    # "other", every other honest one. The hit probability is the same from
    # every Init state and p_f times that from every honest Mix state; for
    # the joint's outcome l, Init l and Init i != l hold the conditional
    # cells times the hit probability over the initiator's weight, and Mix
    # states p_f times their jondo's Init value. An edge into a collaborator
    # pays 1, for the joint only from l's states. The closed forms read
    # their arithmetic off p_f; over sympy symbols it is sympy's division.
    J, H, p_f, w = sympy.symbols("J H p_f w", positive=True)
    monkeypatch.setattr(crowds, "_frac", lambda num, den, params: num / den)
    params = SimpleNamespace(J=J, H=H, p_f=p_f, honest=("i", "l"), init={"i": w, "l": 1 - w})
    hit = prob_hit_colls(params)
    joint = conditional_joint(params)
    init_values = {
        "hit": {"l": hit, "other": hit},
        "joint": {"l": joint[("l", "l")] / (1 - w) * hit, "other": joint[("i", "l")] / w * hit},
    }
    pays = {"hit": {"l": 1, "other": 1}, "joint": {"l": 1, "other": 0}}
    shapes = row_shapes(J, H, p_f)
    for vector, init in init_values.items():
        mix = {role: p_f * x for role, x in init.items()}
        for shape, x in (("Init", init), ("Mix", mix)):
            for role in ("l", "other"):
                value = {"collaborator Mix": pays[vector][role], "End": 0}
                step = 0
                for kind, count, prob in shapes[shape]:
                    if kind == "honest Mix":
                        step += prob * (mix["l"] + (count - 1) * mix["other"])
                    else:
                        step += count * prob * value[kind]
                assert sympy.cancel(x[role] - step) == 0, (vector, shape, role)


@pytest.mark.parametrize("J", range(2, 41))
def test_builder_rows_take_the_init_and_mix_shapes(J):
    # The link between the symbolic check above and the builder, on a grid
    # of sizes with a generic rational p_f and a skewed initiator law.
    p_f = F(7, 11)
    for H in sorted({1, (J + 1) // 2, J - 1}):
        init = {f"J{i}": F(2 * i, H * (H + 1)) for i in range(1, H + 1)}
        params = make_params(J, J - H, p_f, init)
        model = build_crowds(params)
        shapes = row_shapes(F(J), H, p_f)
        members = {"collaborator Mix": [mix_label(c) for c in params.colls],
                   "honest Mix": [mix_label(h) for h in params.honest], "End": [crowds.END]}
        for state in model.chain.states:
            kind = model.kind(state)
            if kind == "start":
                row = {crowds.init_label(h): params.init[h] for h in params.honest}
            elif kind == "end":
                row = {crowds.END: 1}
            else:
                shape = shapes[kind.capitalize()]
                assert [len(members[k]) for k, _, _ in shape] == [count for _, count, _ in shape]
                row = {v: prob for k, _, prob in shape for v in members[k]}
            assert model.chain.row(state) == row


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


def test_report_mi_reads_the_closed_form_joint_it_built():
    for mode in (EXACT, FLOAT):
        with recording(crowds, "conditional_joint") as joints:
            report = crowds_report(FIG3, mode=mode)
        calls = [joint["params"] for joint in joints]
        assert len(calls) == 1
        assert report["mutual_information_bits"]["exact"] == mi_exact(calls[0])


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


def test_states_keep_their_roles_and_other_labels_have_none():
    for params in (FIG3, make_params(8, 2, F(2, 3))):
        model = build_crowds(params)
        for label in model.chain.states:
            role, _, jondo = label.partition(" ")
            assert (model.kind(label), model.jondo_of(label)) == (role.lower(), jondo or None)
    model = build_crowds(FIG3)
    # J9 is no jondo of FIG3, and the collaborator J3 initiates nothing.
    for label in ("Mix J9", "Init J9", "Init J3", "Mix", "start", ""):
        assert model.kind(label) is None and model.jondo_of(label) is None
    assert "'Mix J9'" in path_shape_error(model, ("Start", "Init J1", "Mix J9"))
    assert "'Init J3'" in path_shape_error(model, ("Start", "Init J3", "Mix J1"))


# The report reads its solver values off two joint solves; these crowds
# compare them with the single-query solves. In the skewed one, honest J2,
# J4 and J5 never initiate.
REPORT_CROWDS = (
    make_params(3, 1, F(4, 5)),
    make_params(8, 2, F(4, 5)),
    make_params(12, 3, F(4, 5)),
    make_params(8, 2, F(2, 3), {"J1": F(1, 2), "J2": 0, "J3": F(1, 3), "J6": F(1, 6)}),
)


def assert_report_matches_single_solves(params, mode):
    report = crowds_report(params, mode=mode)
    model = build_crowds(params, mode)
    hit = solver_hit_prob(model)
    last = last_jondo_distribution(model)
    if mode == EXACT:
        assert report["hit_collaborator"]["solver"] == format_scalar(hit)
        assert report["last_jondo"]["solver"] == {
            j: format_scalar(m) for j, m in sorted(last.mass.items())
        }
        assert report["last_jondo"]["never"] == format_scalar(last.never)
        return

    def close(text, value):
        return float(text) == pytest.approx(value, rel=1e-12, abs=1e-15)

    assert close(report["hit_collaborator"]["solver"], hit)
    assert sorted(report["last_jondo"]["solver"]) == sorted(last.mass)
    assert all(close(report["last_jondo"]["solver"][j], m) for j, m in last.mass.items())
    assert close(report["last_jondo"]["never"], last.never)


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
    for params in REPORT_CROWDS:
        assert_report_matches_single_solves(params, EXACT)


def test_report_float_mode_close_to_exact():
    exact = crowds_report(FIG3)
    approx = crowds_report(FIG3, mode=FLOAT)
    for key in ("hit_collaborator", "first_equals_last"):
        a = float(F(exact[key]["solver"]))
        b = float(approx[key]["solver"])
        assert abs(a - b) <= 1e-9
    assert approx["independence_first_last_jondo"] is True
    for params in REPORT_CROWDS:
        assert_report_matches_single_solves(params, FLOAT)


@st.composite
def crowds_params(draw):
    j = draw(st.integers(2, 7))
    colls = draw(st.integers(1, j - 1))
    den = draw(st.integers(2, 1000))
    p_f = F(draw(st.integers(1, den - 1)), den)
    weights = draw(st.lists(st.integers(0, 4), min_size=j - colls, max_size=j - colls)
                   .filter(any))
    init = {f"J{i}": F(w, sum(weights)) for i, w in enumerate(weights, 1)}
    return make_params(j, colls, p_f, init)


@settings(max_examples=30, deadline=None)
@given(crowds_params())
def test_exact_report_has_zero_differences_for_any_crowd(params):
    report = crowds_report(params)
    triples = [report["hit_collaborator"], report["first_equals_last"],
               *report["joint_first_last"].values()]
    assert all(t["difference"] == "0" for t in triples)
    assert report["last_jondo"]["max_difference"] == "0"


def map_built_chain(params, mode):
    """The Crowds chain from one label-pair map entry per edge, read by ``validate_chain``.

    The builder's body before it shared rows: the reference for the row-built chain.
    """
    params = chain_module._with_mode(params, mode)
    uniform = crowds._frac(1, params.J, params)
    p_f = params.p_f

    inits = [crowds.init_label(j) for j in params.honest]
    mixes = [mix_label(j) for j in params.jondos]
    states = [crowds.START, *inits, *mixes, crowds.END]
    trans = {(crowds.END, crowds.END): 1}
    for label, weight in zip(inits, params.init.values()):  # init is keyed by honest
        if weight > 0:
            trans[(crowds.START, label)] = weight
    for i in inits:
        for j in mixes:
            trans[(i, j)] = uniform
    forward, stop = p_f * uniform, 1 - p_f
    for i in mixes:
        for j in mixes:
            trans[(i, j)] = forward
        trans[(i, crowds.END)] = stop

    return validate_chain(states, trans, mode)


@settings(max_examples=60, deadline=None)
@given(crowds_params(), st.sampled_from([EXACT, FLOAT]))
def test_row_built_chain_is_the_map_built_chain(params, mode):
    # Same states, and each row's entries in the same order with equal values
    # of the same type, so float exit masses add the same terms in the same
    # order. Every Init state holds one row object, and every Mix state another.
    model = build_crowds(params, mode)
    chain, reference = model.chain, map_built_chain(params, mode)
    assert chain.states == reference.states
    for i in range(len(chain)):
        row, expected = chain.row_by_index(i), reference.row_by_index(i)
        assert [(j, type(v), v) for j, v in row.items()] == \
            [(j, type(v), v) for j, v in expected.items()]
    for kind in ("init", "mix"):
        held = {id(chain.row_by_index(i))
                for i, s in enumerate(chain.states) if model.kind(s) == kind}
        assert len(held) == 1


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_validation_reads_each_distinct_row_once(monkeypatch, mode):
    # At J = 20 with 4 collaborators the four rows hold 16 (Start), 20
    # (Init), 21 (Mix) and 1 (End) entries: 58 reads, not one per edge.
    params = chain_module._with_mode(make_params(20, 4, F(4, 5)), mode)
    arith, reads = chain_module.arithmetic(mode), []

    def read(raw):
        reads.append(raw)
        return arith.read(raw)

    monkeypatch.setitem(chain_module._ARITHMETIC, mode, dataclasses.replace(arith, read=read))
    chain = build_crowds(params, mode).chain
    assert len(reads) == 58
    assert sum(map(len, map(chain.row_by_index, range(len(chain))))) == 16 + 20 * 16 + 21 * 20 + 1


def test_report_float_mode_forwarding_just_below_one():
    # The float-summed hit mass may exceed 1 by an ulp; conditioning on it
    # must still give the joint.
    report = crowds_report(make_params(5, 3, 1 - 10**-16), mode=FLOAT)
    hit = report["hit_collaborator"]
    assert abs(float(hit["closed_form"]) - float(hit["solver"])) <= 1e-9


# Exact reports hashed before the report's formatting, the Crowds build and
# the entry reads were memoised; no memo may move a byte. Float reports are
# left out: their bits may differ between Python and numpy versions.
GOLDEN_REPORTS = [
    (make_params(3, 1, F(4, 5), {"J1": F(2, 3), "J2": F(1, 3)}),
     "314355687e1274ae0db92173746e65a9e0763330e2c885b7a96a4aabd0d8ebd4"),
    # Re-recorded when omitted initiators (J4, J5) began to print "0" as the
    # explicit J2 does, not "0.0"; nothing else in the report moved.
    (make_params(8, 2, F(2, 3), {"J1": F(1, 2), "J2": 0, "J3": F(1, 3), "J6": F(1, 6)}),
     "a198d35103d1d2ecbaedb5dc8de0b537b75a895f8dba0ab9c418963628ceff3e"),
    (make_params(12, 3, F(4, 5), {f"J{i}": F(i, 45) for i in range(1, 10)}),
     "45dacb8b5ea1c14a9b509d896ce19c8b20b90ae684ba8a815a33ea0b30353f68"),
    # Hashed before the report arithmetic after the solves ran on integers
    # over one denominator.
    (make_params(20, 4, F(4, 5), {f"J{i}": F(i, 136) for i in range(1, 17)}),
     "fa2eb45d544bc6f40a91865a7609b8f31eee810e0944901ff5b5a51ebcf5a161"),
]


@pytest.mark.parametrize("params, digest", GOLDEN_REPORTS, ids=["J3", "J8", "J12", "J20"])
def test_exact_report_bytes_are_unchanged(params, digest):
    text = json.dumps(crowds_report(params), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_omitted_and_explicit_zero_initiators_print_alike(mode):
    half = {"J2": F(1, 2), "J3": F(1, 2)}
    omitted = crowds_report(make_params(4, 1, F(1, 2), half), mode)["params"]["init"]
    explicit = crowds_report(make_params(4, 1, F(1, 2), {"J1": 0, **half}), mode)["params"]["init"]
    assert omitted == explicit
    assert omitted["J1"] == ("0" if mode == EXACT else "0.0")


def left_to_right(values):
    """The sum of ``values`` from ``0``, one term at a time, as the report adds."""
    total = 0
    for v in values:
        total += v
    return total


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
@pytest.mark.parametrize("jondos", [20, 40])
def test_float_report_post_solve_bits_are_plain_per_cell_float_arithmetic(jondos, skewed,
                                                                          monkeypatch):
    # Float report bytes are pinned nowhere else: the bench checks them
    # within a tolerance, the golden digests cover exact reports, and the
    # solves' own bits depend on the BLAS build. So the two solved joints
    # are taken as they come, and everything the report prints after them
    # must be the plain float arithmetic of their cells, added left to right.
    honest = jondos - jondos // 5
    init = None
    if skewed:  # J1 never initiates; J2..JH in proportion to their index
        init = {"J1": 0, **{f"J{i}": F(i, honest * (honest + 1) // 2 - 1)
                            for i in range(2, honest + 1)}}
    params = make_params(jondos, jondos // 5, F(4, 5), init)
    joints = []
    initiator_joint = crowds._initiator_joint

    def keep(*args):
        joints.append(initiator_joint(*args))
        return joints[-1]

    monkeypatch.setattr(crowds, "_initiator_joint", keep)
    report = crowds_report(params, FLOAT)
    hit_joint, contact_joint = joints
    assert (len(hit_joint), len(contact_joint)) == (honest * honest, honest * jondos)
    assert all(type(v) is float for v in [*hit_joint.values(), *contact_joint.values()])

    hit = left_to_right(hit_joint.values())
    cond = {pair: v / hit for pair, v in hit_joint.items()}
    labels = build_crowds(params, FLOAT).params.honest
    assert report["hit_collaborator"]["solver"] == repr(hit)
    assert report["first_equals_last"]["solver"] == repr(left_to_right(cond[(i, i)] for i in labels))
    assert {name: t["solver"] for name, t in report["joint_first_last"].items()} == {
        f"{i}|{l}": repr(v) for (i, l), v in cond.items()}
    if skewed:
        assert report["joint_first_last"]["J1|J2"]["solver"] == "0.0"

    last = {}
    for (_, l), v in contact_joint.items():
        last[l] = last.get(l, 0) + v
    never = 1.0 - left_to_right(last.values())
    uniform = 1 / jondos
    assert repr(report["last_jondo"]) == repr({
        "expected_uniform": repr(uniform),
        "solver": {l: repr(m) for l, m in sorted(last.items())},
        "never": repr(never if never >= 0 else 0.0),
        "max_difference": repr(max(abs(m - uniform) for m in last.values())),
    })

    closed = conditional_joint(build_crowds(params, FLOAT).params)
    px, py = {}, {}
    for (i, l), p in closed.items():
        px[i] = px.get(i, 0) + p
        py[l] = py.get(l, 0) + p
    mi = 0.0
    for (i, l), p in closed.items():
        if p > 0:
            mi += p * math.log2(p / (px[i] * py[l]))
    assert repr(report["mutual_information_bits"]["exact"]) == repr(mi)


def test_triples_keep_equal_values_that_print_differently_apart():
    half = F(1, 2)
    cells = [("0.0", 0.0, 0.5), ("-0.0", -0.0, 0.5), ("solver 0.0", 0.5, 0.0),
             ("solver -0.0", 0.5, -0.0), ("int", 1, half), ("float", 1.0, half),
             ("Fraction", F(1), half), ("float again", 1.0, half)]
    triples = crowds._triples(cells)
    assert triples == {name: _triple(closed, solver) for name, closed, solver in cells}
    assert [triples[n]["closed_form"] for n in ("0.0", "-0.0")] == ["0.0", "-0.0"]
    assert [triples[n]["solver"] for n in ("solver 0.0", "solver -0.0")] == ["0.0", "-0.0"]
    assert [triples[n]["difference"] for n in ("int", "float", "Fraction")] == [
        "1/2", "0.5", "1/2"]
    assert [triples[n]["closed_form"] for n in ("int", "float", "Fraction")] == [
        "1.0", "1.0", "1"]
    # Every cell has its own dict, a repeated pair's too.
    assert len({id(t) for t in triples.values()}) == len(cells)

    # Exact J=20 cells go straight to _triple: equal values print once with
    # a zero difference, and an unequal pair is still subtracted.
    model = build_crowds(make_params(20, 4, F(4, 5)))
    closed = conditional_joint(model.params)
    solver = crowds._hit_and_conditional_joint(model)[1]
    cells = [(f"{i}|{l}", p, solver[(i, l)]) for (i, l), p in closed.items()]
    key = next(iter(closed))
    cells += [("off by one", closed[key] + F(1, 10**9), solver[key]), ("int", 1, F(1))]
    assert len(cells) == 16 * 16 + 2
    assert all(type(c) is type(s) is F for _, c, s in cells[:-1])
    triples = crowds._triples(cells)
    assert triples == {name: _triple(c, s) for name, c, s in cells}
    assert all(t["difference"] == "0" for name, t in triples.items() if name != "off by one")
    assert triples["off by one"]["difference"] == "1/1000000000"
    assert triples["int"] == {"closed_form": "1.0", "solver": "1", "difference": "0"}
    assert len({id(t) for t in triples.values()}) == len(cells)


# Near-one crowds: (J, collaborators) by p_f = 1 - 10**-k.
# Entry into End is almost sure, but numpy's LU on the expected-visits
# system, whose condition number grows like 1 / (1 - p_f), returns a law that
# does not sum to one (or has a negative mass); each is a solver failure.
@pytest.mark.parametrize("k", [9, 12, 15, 16])
@pytest.mark.parametrize("jondos, colls", [(12, 9), (20, 4), (60, 12)])
def test_float_report_near_one_is_a_solver_failure(jondos, colls, k):
    with pytest.raises(SingularSystemError):
        crowds_report(make_params(jondos, colls, 1 - F(1, 10**k)), mode=FLOAT)

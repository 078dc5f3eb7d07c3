import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactchain import EXACT, FLOAT, validate_chain, validate_reward
from exactchain.analysis import (
    INFINITY,
    _entry_masses,
    certify_ae_until,
    conditional_probability,
    entry_edge_distribution,
    expected_cost_until,
    expected_hitting_time,
    first_entry_distribution,
    reachable,
    until_prob_is_zero,
    until_probabilities,
    until_probability,
)
from exactchain.errors import (
    ConditionHasZeroProbabilityError,
    StartInTargetError,
    UnknownStateError,
)
from exactchain.zeroconf import ZeroconfParams, build_zeroconf
from _support import (
    as_mode, near_one_chain, random_chain, random_query, random_reward, truncated_until_mass,
)

SMALL = ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), r=1, E=0)


@pytest.fixture(scope="module")
def zc_chain():
    return build_zeroconf(ZeroconfParams(N=2, p=F(1, 100), q=F(16, 65024),
                                         r=F(1, 500), E=3600)).chain


@pytest.fixture(scope="module")
def zc_small():
    return build_zeroconf(SMALL)


def chain_of(spec, mode="exact"):
    states = sorted({s for edge in spec for s in edge})
    return validate_chain(states, spec, mode)


# ---------------------------------------------------------------- reachable

def test_reachable_from_absorbing_ok(zc_chain):
    phi = set(zc_chain.states) - {"Error"}
    assert reachable(zc_chain, phi, "Ok") == {"Ok"}


def test_reachable_empty_phi_is_one_step(zc_chain):
    for s in zc_chain.states:
        assert reachable(zc_chain, set(), s) == zc_chain.successors(s)


def test_reachable_full_phi_matches_transitive_closure(zc_chain):
    # Independent oracle: plain BFS over the nonzero-edge graph.
    frontier = list(zc_chain.successors("Start"))
    seen = set(frontier)
    while frontier:
        for nxt in zc_chain.successors(frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert reachable(zc_chain, set(zc_chain.states), "Start") == seen
    assert seen == set(zc_chain.states)


def test_reachable_needs_at_least_one_step():
    chain = chain_of({("a", "b"): F(1), ("b", "b"): F(1)})
    # a has no cycle back to itself, so it does not reach itself.
    assert reachable(chain, set(chain.states), "a") == {"b"}
    assert reachable(chain, set(chain.states), "b") == {"b"}


def test_reachable_unknown_state(zc_chain):
    with pytest.raises(UnknownStateError):
        reachable(zc_chain, set(), "nope")


# ---------------------------------------------------- probability-zero test

def test_until_zero_from_ok(zc_chain):
    assert until_prob_is_zero(zc_chain, set(zc_chain.states), {"Error"}, "Ok")


def test_until_zero_start_in_psi(zc_chain):
    assert not until_prob_is_zero(zc_chain, set(zc_chain.states), {"Error"}, "Error")


def test_until_zero_from_start(zc_chain):
    assert not until_prob_is_zero(zc_chain, set(zc_chain.states), {"Error"}, "Start")


def test_until_zero_start_outside_phi():
    # The prepended path can only satisfy the event via n >= 1, which
    # requires the start itself to be inside phi.
    chain = chain_of({("a", "b"): F(1), ("b", "b"): F(1)})
    assert until_prob_is_zero(chain, set(), {"b"}, "a")
    assert until_probability(chain, set(), {"b"}, "a") == 0


# ----------------------------------------------------------- AE certificate

def test_certify_ae_zeroconf_all_states(zc_chain):
    goal = {"Error", "Ok"}
    for s in zc_chain.states:
        assert certify_ae_until(zc_chain, set(zc_chain.states), goal, s)


def test_certify_ae_fails_with_escape_state():
    chain = chain_of({
        ("a", "b"): F(1, 2), ("a", "c"): F(1, 2),
        ("b", "b"): F(1), ("c", "c"): F(1),
    })
    assert not certify_ae_until(chain, set(chain.states), {"c"}, "a")
    assert until_probability(chain, set(chain.states), {"c"}, "a") == F(1, 2)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 6))
def test_certified_implies_probability_one(seed, n_states):
    # Both graph verdicts are exact: each holds iff the solver agrees,
    # from every start, starts inside psi included.
    rng = random.Random(seed)
    chain = random_chain(rng, n_states)
    phi, psi, _ = random_query(rng, chain)
    for start in chain.states:
        prob = until_probability(chain, phi, psi, start)
        assert certify_ae_until(chain, phi, psi, start) == (prob == 1)
        assert until_prob_is_zero(chain, phi, psi, start) == (prob == 0)


# --------------------------------------------------------- until probability

def test_until_probability_absorbing_states(zc_chain):
    s = set(zc_chain.states)
    assert until_probability(zc_chain, s, {"Error"}, "Error") == 1
    assert until_probability(zc_chain, s, {"Error"}, "Ok") == 0


def test_until_probability_small_zeroconf(zc_small):
    chain = zc_small.chain
    assert until_probability(chain, set(chain.states), {"Error"}, "Start") == F(1, 5)


def test_bellman_identity_exact():
    rng = random.Random(3)
    for _ in range(40):
        chain = random_chain(rng, rng.randint(2, 6))
        phi, psi, start = random_query(rng, chain)
        values = until_probabilities(chain, phi, psi)
        for s in chain.states:
            if s in psi or until_prob_is_zero(chain, phi, psi, s):
                continue
            expected = sum(
                (p * values[t] for t, p in chain.row(s).items()), F(0)
            )
            assert values[s] == expected


def test_zero_classification_matches_solver():
    rng = random.Random(4)
    for _ in range(40):
        chain = random_chain(rng, rng.randint(2, 6))
        phi, psi, _ = random_query(rng, chain)
        values = until_probabilities(chain, phi, psi)
        for s in chain.states:
            assert until_prob_is_zero(chain, phi, psi, s) == (values[s] == 0)


def test_monotone_in_phi_and_psi():
    rng = random.Random(5)
    for _ in range(40):
        chain = random_chain(rng, rng.randint(2, 6))
        phi, psi, start = random_query(rng, chain)
        base = until_probability(chain, phi, psi, start)
        extra = rng.choice(chain.states)
        assert until_probability(chain, phi | {extra}, psi, start) >= base
        assert until_probability(chain, phi, psi | {extra}, start) >= base


def test_until_agrees_with_prefix_enumeration():
    rng = random.Random(6)
    for _ in range(8):
        chain = random_chain(rng, rng.randint(2, 5))
        phi, psi, start = random_query(rng, chain)
        value = until_probability(chain, phi, psi, start)
        hit, undecided = truncated_until_mass(chain, phi, psi, start, 12)
        assert hit <= value <= hit + undecided


def test_float_mode_tracks_exact():
    rng = random.Random(8)
    for _ in range(10):
        chain = random_chain(rng, rng.randint(2, 6))
        fchain = validate_chain(
            chain.states, {(u, v): float(p) for u, v, p in chain.edges()}, FLOAT
        )
        phi, psi, start = random_query(rng, chain)
        exact = until_probability(chain, phi, psi, start)
        approx = until_probability(fchain, phi, psi, start)
        assert approx == pytest.approx(float(exact), rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 6))
def test_float_mode_solves_near_one_self_loops(seed, n_states):
    # Self-loops 1 - 10**-k round to 1.0 in float mode; the exit-mass
    # diagonal still solves, with the exact verdicts and values.
    rng = random.Random(seed)
    exact = random_reward(rng, n_states, chain=near_one_chain(rng, n_states))
    approx = as_mode(exact, FLOAT)
    phi, psi, _ = random_query(rng, exact.chain)
    want = until_probabilities(exact.chain, phi, psi)
    got = until_probabilities(approx.chain, phi, psi)
    for s in exact.states:
        assert abs(got[s] - want[s]) <= 1e-9
        assert (expected_hitting_time(approx.chain, psi, s) == INFINITY) == (
            expected_hitting_time(exact.chain, psi, s) == INFINITY)
        assert (expected_cost_until(approx, psi, s) == INFINITY) == (
            expected_cost_until(exact, psi, s) == INFINITY)
        first = first_entry_distribution(exact.chain, psi, s)
        ffirst = first_entry_distribution(approx.chain, psi, s)
        assert ffirst.mass.keys() == first.mass.keys()
        for t, m in first.mass.items():
            assert abs(ffirst.mass[t] - m) <= 1e-9


# -------------------------------------------------------------- hitting time

def test_hitting_time_start_in_target(zc_chain):
    assert expected_hitting_time(zc_chain, {"Start"}, "Start") == 0


def test_hitting_time_single_step():
    chain = chain_of({("a", "b"): F(1), ("b", "b"): F(1)})
    assert expected_hitting_time(chain, {"b"}, "a") == 1


def test_hitting_time_geometric_loop():
    chain = chain_of({("a", "a"): F(3, 4), ("a", "b"): F(1, 4), ("b", "b"): F(1)})
    assert expected_hitting_time(chain, {"b"}, "a") == 4


def test_hitting_time_infinite_when_not_almost_sure():
    chain = chain_of({
        ("a", "b"): F(1, 2), ("a", "c"): F(1, 2),
        ("b", "b"): F(1), ("c", "c"): F(1),
    })
    assert expected_hitting_time(chain, {"b"}, "a") == INFINITY


# ------------------------------------------------------------- expected cost

def test_cost_start_in_target(zc_small):
    assert expected_cost_until(zc_small, {"Start"}, "Start") == 0


def test_cost_zero_cost_matrix(zc_small):
    bare = validate_reward(zc_small.chain, {})
    assert expected_cost_until(bare, {"Ok", "Error"}, "Start") == 0


def test_cost_small_zeroconf_value(zc_small):
    # Absorption equations solved by hand for N=1, p=q=1/2, r=1, E=0.
    assert expected_cost_until(zc_small, {"Ok", "Error"}, "Start") == F(14, 5)


def test_cost_infinite_when_not_almost_sure():
    chain = chain_of({
        ("a", "b"): F(1, 2), ("a", "c"): F(1, 2),
        ("b", "b"): F(1), ("c", "c"): F(1),
    })
    rchain = validate_reward(chain, {("a", "b"): F(1)})
    assert expected_cost_until(rchain, {"b"}, "a") == INFINITY


def test_cost_charges_first_transition():
    chain = chain_of({("a", "b"): F(1), ("b", "b"): F(1)})
    rchain = validate_reward(chain, {("a", "b"): F(7)})
    assert expected_cost_until(rchain, {"b"}, "a") == 7


# ----------------------------------------------------------- first-entry law

def test_first_entry_deterministic_chain():
    chain = chain_of({("a", "b"): F(1), ("b", "c"): F(1), ("c", "c"): F(1)})
    dist = first_entry_distribution(chain, {"c"}, "a")
    assert dist.mass == {"c": F(1)}
    assert dist.never == 0


def test_first_entry_unreachable_target():
    chain = chain_of({("a", "a"): F(1), ("z", "z"): F(1)})
    dist = first_entry_distribution(chain, {"z"}, "a")
    assert dist.mass == {}
    assert dist.never == 1


def test_first_entry_start_in_target(zc_chain):
    dist = first_entry_distribution(zc_chain, {"Start", "Ok"}, "Start")
    assert dist.mass == {"Start": F(1)}
    assert dist.never == 0


def test_first_entry_zeroconf_split(zc_small):
    chain = zc_small.chain
    dist = first_entry_distribution(chain, {"Ok", "Error"}, "Start")
    assert dist.mass == {"Error": F(1, 5), "Ok": F(4, 5)}
    assert dist.never == 0


# ------------------------------------------------------------ entry-edge law

def test_entry_edge_single_edge():
    chain = chain_of({("a", "b"): F(1), ("b", "b"): F(1)})
    dist = entry_edge_distribution(chain, {"b"}, "a")
    assert dist.mass == {("a", "b"): F(1)}
    assert dist.never == 0


def test_entry_edge_zeroconf_error(zc_small):
    chain = zc_small.chain
    dist = entry_edge_distribution(chain, {"Error"}, "Start")
    assert dist.mass == {("Probe 1", "Error"): F(1, 5)}
    assert dist.never == F(4, 5)


def test_entry_edge_start_in_target(zc_chain):
    with pytest.raises(StartInTargetError):
        entry_edge_distribution(zc_chain, {"Start"}, "Start")


def test_entry_edge_marginal_matches_first_entry():
    rng = random.Random(12)
    for _ in range(30):
        chain = random_chain(rng, rng.randint(2, 6))
        target = set(rng.sample(chain.states, rng.randint(1, 2)))
        start = rng.choice([s for s in chain.states if s not in target] or chain.states)
        if start in target:
            continue
        edge = entry_edge_distribution(chain, target, start)
        first = first_entry_distribution(chain, target, start)
        marginal = edge.entry_marginal()
        assert marginal.mass == first.mass
        assert marginal.never == first.never
        assert edge.total() + edge.never == 1
        for (pred, entry) in edge.mass:
            assert pred not in target
            assert entry in target


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), k=st.integers(1, 4))
def test_entry_masses_batched_over_starts_equal_one_solve_per_start(seed, n, k):
    rng = random.Random(seed)
    chain = random_chain(rng, n)
    target = set(rng.sample(range(n), rng.randint(1, 2)))
    outside = [s for s in range(n) if s not in target]
    starts = rng.sample(outside, min(k, len(outside)))
    # Entry state, entry edge, and a key that merges several edges per column.
    for key in (lambda u, v: v, lambda u, v: (u, v), lambda u, v: u % 2):
        batched = _entry_masses(chain, target, starts, key)
        assert list(batched) == starts
        for s in starts:
            alone = _entry_masses(chain, target, [s], key)[s]
            assert list(batched[s].items()) == list(alone.items())


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(2, 6),
    mode=st.sampled_from([EXACT, FLOAT]),
)
def test_certified_targets_have_finite_expectations(seed, n_states, mode):
    # Expectations are infinite exactly where the target is not certain,
    # from every start, targets included.
    rng = random.Random(seed)
    rchain = random_reward(rng, n_states, mode)
    chain = rchain.chain
    target = set(rng.sample(chain.states, rng.randint(1, 2)))
    for start in chain.states:
        uncertain = not certify_ae_until(chain, set(chain.states), target, start)
        assert (expected_hitting_time(chain, target, start) == INFINITY) == uncertain
        assert (expected_cost_until(rchain, target, start) == INFINITY) == uncertain


def test_first_entry_never_mass_complements_reach_probability():
    rng = random.Random(16)
    for _ in range(30):
        chain = random_chain(rng, rng.randint(2, 6))
        target = set(rng.sample(chain.states, rng.randint(1, 2)))
        start = rng.choice(chain.states)
        dist = first_entry_distribution(chain, target, start)
        reach = until_probability(chain, set(chain.states), target, start)
        assert dist.total() + dist.never == 1
        assert dist.total() == reach


def test_every_state_has_a_successor():
    # Row sums of one force a nonzero entry in every row.
    rng = random.Random(14)
    for _ in range(20):
        chain = random_chain(rng, rng.randint(1, 6))
        for s in chain.states:
            assert chain.successors(s)


def test_empty_psi_is_never_satisfied():
    rng = random.Random(15)
    chain = random_chain(rng, 4)
    for s in chain.states:
        assert until_prob_is_zero(chain, set(chain.states), set(), s)
        assert until_probability(chain, set(chain.states), set(), s) == 0
        assert not certify_ae_until(chain, set(chain.states), set(), s)
    dist = first_entry_distribution(chain, set(), "s0")
    assert dist.mass == {} and dist.never == 1


# --------------------------------------------------- conditional probability

def test_conditional_probability_basic():
    assert conditional_probability(F(1, 4), F(1, 2)) == F(1, 2)
    assert conditional_probability(F(3, 7), F(1)) == F(3, 7)


def test_conditional_probability_zero_condition():
    with pytest.raises(ConditionHasZeroProbabilityError):
        conditional_probability(F(0), F(0))


def test_conditional_probability_order_check():
    with pytest.raises(ValueError):
        conditional_probability(F(3, 4), F(1, 2))


# ------------------------------------------------------- float-mode solving

def test_float_mode_hitting_and_cost(zc_small):
    chain = zc_small.chain
    fchain = validate_chain(
        chain.states, {(u, v): float(p) for u, v, p in chain.edges()}, FLOAT
    )
    frchain = validate_reward(
        fchain, {(u, v): float(c) for u, v, c in zc_small.cost_edges()}
    )
    assert expected_hitting_time(fchain, {"Ok", "Error"}, "Start") == pytest.approx(14 / 5)
    assert expected_cost_until(frchain, {"Ok", "Error"}, "Start") == pytest.approx(14 / 5)
    assert math.isinf(expected_hitting_time(fchain, {"Error"}, "Start"))


def test_float_probability_just_below_one_is_not_one():
    # The until probability is 1 - 2e-13: a float tolerance would call it
    # one and then solve a singular system that contains the trap.
    chain = chain_of({
        ("a", "a"): 0.5, ("a", "goal"): 0.5 - 1e-13, ("a", "trap"): 1e-13,
        ("goal", "goal"): 1.0, ("trap", "trap"): 1.0,
    }, FLOAT)
    assert expected_hitting_time(chain, {"goal"}, "a") == INFINITY
    assert not certify_ae_until(chain, set(chain.states), {"goal"}, "a")

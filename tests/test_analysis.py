import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactchain import EXACT, FLOAT, analysis, linalg, validate_chain, validate_reward
from exactchain.analysis import (
    INFINITY,
    _can_reach,
    _entry_masses,
    _solve_block,
    _traverse,
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
    SingularSystemError,
    StartInTargetError,
    UnknownStateError,
)
from exactchain.chain import _sum, arithmetic
from exactchain.crowds import (
    END, build_crowds, crowds_report, first_last_jondo_joint, init_label, make_params,
)
from exactchain.zeroconf import ZeroconfParams, build_zeroconf, zeroconf_report
from _support import (
    as_mode, near_one_chain, random_chain, random_query, random_reward, recording,
    truncated_until_mass,
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


def edge_list(chain, backward=False):
    """The chain's nonzero edges as ``(u, v)`` index pairs, reversed if ``backward``."""
    return [
        (v, u) if backward else (u, v)
        for u in range(len(chain.states)) for v in chain.row_by_index(u)
    ]


def brute_closure(edges, within, sources):
    """States entered by >= 1 of ``edges`` from ``sources``, moving on only from
    states in ``within``: a fixed point over the whole edge list, with no search."""
    reached = set()
    while True:
        grown = {v for u, v in edges if u in sources or (u in reached and u in within)}
        if grown == reached:
            return reached
        reached = grown


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    near_one=st.booleans(),
    k=st.integers(0, 4),
)
def test_traverse_is_the_union_of_single_source_closures(seed, n, near_one, k):
    rng = random.Random(seed)
    chain = (near_one_chain if near_one else random_chain)(rng, n)
    within = {u for u in range(n) if rng.random() < 0.6}
    sources = rng.sample(range(n), min(k, n))
    for neighbours, backward in (
        (chain.row_by_index, False), (chain._predecessors().__getitem__, True),
    ):
        edges = edge_list(chain, backward)
        multi = _traverse(neighbours, within, sources)
        assert multi == set().union(*(_traverse(neighbours, within, [s]) for s in sources))
        assert multi == brute_closure(edges, within, set(sources))
        if backward:
            assert _can_reach(chain, within, set(sources)) == multi & within


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 10),
       mode=st.sampled_from([EXACT, FLOAT]))
def test_until_probability_is_one_kept_row_of_until_probabilities(seed, n_states, mode):
    rng = random.Random(seed)
    chain = as_mode(random_reward(rng, n_states), mode).chain
    phi, psi, _ = random_query(rng, chain)
    every = until_probabilities(chain, phi, psi)
    with recording(linalg, "solve") as calls:
        for start in chain.states:
            assert repr(until_probability(chain, phi, psi, start)) == repr(every[start])
    kept = [call["keep"] for call in calls]
    assert all(keep is not None and len(keep) == 1 for keep in kept)


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
        if s not in psi:
            edge = entry_edge_distribution(exact.chain, psi, s)
            fedge = entry_edge_distribution(approx.chain, psi, s)
            assert fedge.mass.keys() == edge.mass.keys()
            for uv, m in edge.mass.items():
                assert abs(fedge.mass[uv] - m) <= 1e-9


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


def prime_denominator_reward(n, mode):
    """A path of ``n`` states to ``Goal``, each with edges back to ``T0``, whose
    rows have distinct prime denominators, and so do their costs.

    Row ``T{i}`` moves on with probability ``a / p_i``, back to ``T0`` with
    ``b / p_i`` and to ``Goal`` with the rest, for the ``i``-th prime
    ``p_i`` past 100; its costs are over the ``i``-th prime past 10,000. The
    lcm of every row's denominators has thousands of bits.
    """
    def primes(start):
        k = start
        while True:
            k += 1
            if all(k % d for d in range(2, math.isqrt(k) + 1)):
                yield k

    rng = random.Random(n)
    states = [f"T{i}" for i in range(n)] + ["Goal"]
    trans, cost = {("Goal", "Goal"): 1}, {}
    for i, p, q in zip(range(n), primes(100), primes(10_000)):
        a, b = rng.randint(1, p // 3), rng.randint(1, p // 3)
        for to, w in ((states[i + 1], a), ("T0", b), ("Goal", p - a - b)):
            trans[(states[i], to)] = trans.get((states[i], to), 0) + F(w, p)
            cost[(states[i], to)] = F(rng.randint(1, 9), q)
    if mode == FLOAT:
        trans = {key: float(v) for key, v in trans.items()}
        cost = {key: float(v) for key, v in cost.items()}
    return validate_reward(validate_chain(states, trans, mode), cost)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_cost_right_hand_side_adds_split_numerators_as_the_plain_sum_would(mode):
    # Each row's sum_v p_uv c_uv is added on per-row split numerators; the
    # exact value and every float bit are the plain in-order sum's. Rows of
    # distinct prime denominators are the case a split over the whole block
    # would make slow.
    rchain = prime_denominator_reward(300, mode)
    chain = rchain.chain
    with recording(analysis, "_solve_block") as calls:
        value = expected_cost_until(rchain, {"Goal"}, "T0")
    (call,) = calls
    zero = chain.zero
    plain = [
        [_sum((p * rchain.cost_row_by_index(u).get(v, zero)
               for v, p in chain.row_by_index(u).items()), zero)]
        for u in call["block"]
    ]
    assert len(plain) == 300
    assert repr(call["b"]) == repr(plain)
    assert repr(value) == repr(_solve_block(chain, call["block"], plain, keep={0})[0][0])


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


def per_outcome_entry_masses(chain, target, starts, key):
    """Entry masses from the forward system, one right-hand-side column per outcome:
    ``f_s(k) = sum_{c in target, key(s,c)=k} tau(s,c) + sum_{t outside} tau(s,t) f_t(k)``."""
    outside = set(range(len(chain.states))) - target
    seen = set()
    for s in starts:
        seen |= {s} | brute_closure(edge_list(chain), outside, {s})
    can_reach = brute_closure(edge_list(chain, backward=True), outside, target)
    block = sorted(seen & outside & can_reach)
    keys = sorted({key(u, v) for u in block for v in chain.row_by_index(u) if v in target})
    col = {k: j for j, k in enumerate(keys)}
    pos = {u: r for r, u in enumerate(block)}
    a = [{r: F(1)} for r in range(len(block))]
    b = [[F(0)] * len(keys) for _ in block]
    for r, u in enumerate(block):
        for v, p in chain.row_by_index(u).items():
            if v in pos:
                a[r][pos[v]] = a[r].get(pos[v], 0) - p
            elif v in target:
                b[r][col[key(u, v)]] += p
    x = dict(zip(block, linalg.solve_exact(a, b)))
    return {
        s: {k: x[s][j] for k, j in col.items() if x[s][j] > 0} if s in x else {}
        for s in starts
    }


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
        assert repr(batched) == repr(per_outcome_entry_masses(chain, target, starts, key))
        for s in starts:
            alone = _entry_masses(chain, target, [s], key)[s]
            assert list(batched[s].items()) == list(alone.items())


def test_entry_masses_search_forward_once_for_one_start_or_many():
    # The entry-law block comes from one forward search from all starts, not
    # one per start: 1 initiator at J=3 and 11 at J=12 cost the same searches.
    def searches(n_jondos, n_colls):
        with recording(analysis, "_traverse") as calls:
            model = build_crowds(make_params(n_jondos, n_colls, F(3, 4)))
            first_last_jondo_joint(model)
        return [(call["neighbours"].__name__, len(call["sources"])) for call in calls]

    one, many = searches(3, 2), searches(12, 1)
    assert len(one) == len(many)
    assert [c for c in one if c[0] == "row_by_index"] == [("row_by_index", 1)]
    assert [c for c in many if c[0] == "row_by_index"] == [("row_by_index", 11)]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_entry_masses_direct_and_visit_orientations_agree(mode):
    # The orientation follows K outcome keys against S starts. Into the
    # collaborators' Mix states, keyed by the jondo left, K = H = 6 here.
    # Batched over S = 7 starts (every honest Init state, J2's of zero init
    # mass among them, and End, which cannot reach the target) the solve is
    # direct, one column per key; one start alone solves expected visits,
    # one column. Both give the same masses, and End gets none.
    init = {"J1": F(1, 2), "J2": 0, "J3": F(1, 4), "J4": F(1, 12), "J5": F(1, 12), "J6": F(1, 12)}
    model = build_crowds(make_params(8, 2, F(4, 5), init), mode)
    chain = model.chain
    target = chain.index_set(model.collaborator_mix_labels())
    starts = [chain.index_of(init_label(j)) for j in model.params.honest] + [chain.index_of(END)]

    def key(u, v):
        return model.jondo_of(chain.states[u])

    with recording(linalg, "solve") as calls:
        batched = _entry_masses(chain, target, starts, key)
    widths = [len(call["b"][0]) for call in calls]
    assert widths == [6]
    with recording(linalg, "solve") as calls:
        alone = {s: _entry_masses(chain, target, [s], key)[s] for s in starts}
    widths = [len(call["b"][0]) for call in calls]
    assert widths == [1] * 6  # End's block is empty: no solve
    assert list(batched) == starts
    assert batched[starts[-1]] == alone[starts[-1]] == {}
    assert len(batched[starts[1]]) == 6  # J2 never initiates, but its Init state reaches
    for s in starts:
        assert list(batched[s]) == list(alone[s])
        if mode == EXACT:
            assert repr(batched[s]) == repr(alone[s])
        else:
            assert all(math.isclose(batched[s][k], alone[s][k], rel_tol=1e-12) for k in alone[s])
    if mode == EXACT:
        assert repr(batched) == repr(per_outcome_entry_masses(chain, target, starts, key))


def fraction_entry_law(chain, target, start, key, call):
    """Entry masses of ``start`` from one recorded ``_solve_block`` call, added up in Fractions.

    The call is solved again. Solved directly, the start's row holds one
    mass per outcome column; solved for expected visits, the mass of
    outcome ``k`` is ``sum_u y(u) exit_u(k)``, added term by term.
    """
    exits = {}
    for u in call["block"]:
        for v, p in chain.row_by_index(u).items():
            if v in target:
                k = key(u, v)
                exits.setdefault(u, {})
                exits[u][k] = exits[u].get(k, F(0)) + p
    keys = sorted({k for out in exits.values() for k in out})
    x = _solve_block(**call)
    if call["transpose"]:
        mass = dict.fromkeys(keys, F(0))
        for u, out in exits.items():
            for k, p in out.items():
                mass[k] += x[u][0] * p
    else:
        mass = dict(zip(keys, x.get(start, ())))  # a start in no block has none
    return {k: m for k, m in mass.items() if m > 0}


def test_exact_entry_laws_are_the_fraction_sums_of_their_solve_rows():
    # The report arithmetic after the solve runs on integers over one
    # denominator; it must give what plain Fraction sums of the same
    # solution rows give, in both orientations.
    rng = random.Random(14)
    orientations = set()
    for _ in range(60):
        chain = random_chain(rng, rng.randint(2, 9), max_out=4)
        target = set(rng.sample(range(len(chain)), rng.randint(1, 2)))
        start = rng.choice([s for s in range(len(chain)) if s not in target] or [None])
        if start is None:
            continue
        labels = {chain.states[t] for t in target}
        for law, key, label in (
            (first_entry_distribution, lambda u, v: v, lambda k: chain.states[k]),
            (entry_edge_distribution, lambda u, v: (u, v),
             lambda k: (chain.states[k[0]], chain.states[k[1]])),
        ):
            with recording(analysis, "_solve_block") as calls:
                got = law(chain, labels, chain.states[start])
            [call] = calls
            orientations.add(call["transpose"])
            want = fraction_entry_law(chain, target, start, key, call)
            assert repr(got.mass) == repr({label(k): m for k, m in want.items()})
            assert got.never == 1 - sum(want.values(), F(0))
    assert orientations == {False, True}


def test_visit_orientation_back_substitutes_only_states_with_an_exit():
    # The first-last joint at J = 20 enters End, keyed by 20 jondos, from 16
    # initiators: the expected visits are solved over 16 Init and 20 Mix
    # states, and y(u) is read only for the Mix states, which enter End.
    model = build_crowds(make_params(20, 4, F(4, 5)))
    chain = model.chain
    target = chain.index_set({END})
    starts = [chain.index_of(init_label(j)) for j in model.params.honest]

    def key(u, v):
        return model.jondo_of(chain.states[u])

    with recording(analysis, "_solve_block") as calls:
        masses = _entry_masses(chain, target, starts, key)
    [(transpose, n, keep)] = [(c["transpose"], len(c["block"]), c["keep"]) for c in calls]
    assert transpose and n == 36 and len(keep) == 20
    assert {model.kind(chain.states[u]) for u in keep} == {"mix"}
    assert repr(masses) == repr(per_outcome_entry_masses(chain, target, starts, key))


def in_order_visit_masses(chain, target, starts, key, call):
    """``sum_u y_s(u) exit_u(k)`` per start from one recorded transposed ``_solve_block`` call.

    The call is solved again; each start's masses are added term by term
    in block order, from ``0``, and the positive ones kept in key order.
    """
    exits = {}
    for u in call["block"]:
        for v, p in chain.row_by_index(u).items():
            if v in target:
                out = exits.setdefault(u, {})
                k = key(u, v)
                out[k] = out[k] + p if k in out else p
    y = _solve_block(**call)
    masses = {}
    for j, s in enumerate(starts):
        mass = {}
        for u, out in exits.items():
            for k, p in out.items():
                mass[k] = mass.get(k, 0) + y[u][j] * p
        masses[s] = {k: mass[k] for k in sorted(mass) if mass[k] > 0}
    return masses


def test_float_visit_masses_are_the_in_order_sums_of_their_solve_rows():
    # Float masses run through the same numerator code as exact ones, over
    # 1; each must be the float sum of y_s(u) * exit_u(k), bit for bit. The
    # Crowds joint of the exact twin above has one term per mass; the
    # random chains key by entry state, so several states add to a mass.
    model = build_crowds(make_params(20, 4, F(4, 5)), FLOAT)
    chain = model.chain
    target = chain.index_set({END})
    starts = [chain.index_of(init_label(j)) for j in model.params.honest]

    def key(u, v):
        return model.jondo_of(chain.states[u])

    cases = [(chain, target, starts, key)]
    rng = random.Random(27)
    for _ in range(60):
        rchain = validate_reward(random_chain(rng, rng.randint(3, 9), max_out=4), {})
        chain = as_mode(rchain, FLOAT).chain
        target = set(rng.sample(range(len(chain)), rng.randint(2, min(3, len(chain) - 1))))
        outside = [s for s in range(len(chain)) if s not in target]
        starts = rng.sample(outside, rng.randint(1, min(2, len(outside))))
        cases.append((chain, target, starts, lambda u, v: v))
    terms = 0
    for chain, target, starts, key in cases:
        with recording(analysis, "_solve_block") as calls:
            masses = _entry_masses(chain, target, starts, key)
        [call] = calls
        if not call["transpose"]:
            continue
        assert repr(masses) == repr(in_order_visit_masses(chain, target, starts, key, call))
        keys = [key(u, v) for u in call["block"] for v in chain.row_by_index(u) if v in target]
        terms = max(terms, max(map(keys.count, keys)))
    assert terms > 1


def test_negative_float_masses_are_solver_failures(monkeypatch):
    # Entry masses and visits solve M-matrix systems with non-negative
    # right-hand sides; a float solve that returns a negative one, or masses
    # summing past one, has failed, and its law must not be printed.
    chain = validate_chain(["s", "a", "t"], {
        ("s", "a"): 0.5, ("s", "t"): 0.5, ("a", "s"): 0.5, ("a", "t"): 0.5, ("t", "t"): 1.0,
    }, FLOAT)
    assert entry_edge_distribution(chain, {"t"}, "s").never == 0.0
    solve = linalg.solve

    def negative_visit(rows, b, mode, keep=None):
        x = solve(rows, b, mode, keep)
        x[-1] = [-v for v in x[-1]]
        return x

    monkeypatch.setattr(linalg, "solve", negative_visit)
    with pytest.raises(SingularSystemError, match="negative entry mass"):
        entry_edge_distribution(chain, {"t"}, "s")  # two entry edges, one start: visits
    # Rounding may carry a float sum of masses past one; beyond ROW_SUM_TOL
    # the solve failed.
    assert analysis._residual([0.5, 0.5 + 1e-12], 1.0) == 0.0
    with pytest.raises(SingularSystemError, match="over 1"):
        analysis._residual([0.5, 0.5 + 1e-6], 1.0)


def test_nan_float_masses_are_solver_failures(monkeypatch):
    # NaN is neither above zero nor below -tol. From s, a third of the mass
    # falls into the trap, so entry is not almost sure and the sum check does
    # not run: a NaN mass left out would go into never as if it were real.
    chain = validate_chain(["s", "a", "t", "u", "trap"], {
        ("s", "a"): 0.5, ("s", "t"): 0.25, ("s", "trap"): 0.25,
        ("a", "s"): 0.5, ("a", "t"): 0.25, ("a", "u"): 0.25,
        ("t", "t"): 1.0, ("u", "u"): 1.0, ("trap", "trap"): 1.0,
    }, FLOAT)
    law = entry_edge_distribution(chain, {"t", "u"}, "s")
    assert set(law.mass) == {("s", "t"), ("a", "t"), ("a", "u")}
    assert law.never == pytest.approx(1 / 3)
    solve = linalg.solve

    def nan_last(rows, b, mode, keep=None):
        x = solve(rows, b, mode, keep)
        x[-1] = [math.nan for _ in x[-1]]
        return x

    monkeypatch.setattr(linalg, "solve", nan_last)
    for query in (first_entry_distribution, entry_edge_distribution):
        with pytest.raises(SingularSystemError, match="NaN entry mass"):
            query(chain, {"t", "u"}, "s")


def test_float_entry_masses_must_sum_to_one_only_where_entry_is_almost_sure(monkeypatch):
    # From s every path enters t, so a float law must sum to one. From a,
    # which leaves its near-one self-loop for t or the trap c, never is half
    # the mass, and the law is returned.
    sure = validate_chain(["s", "a", "t"], {
        ("s", "a"): 0.5, ("s", "t"): 0.5, ("a", "s"): 0.5, ("a", "t"): 0.5, ("t", "t"): 1.0,
    }, FLOAT)
    spec = {("a", "a"): 1 - F(1, 10**12), ("a", "t"): F(1, 2 * 10**12),
            ("a", "c"): F(1, 2 * 10**12), ("t", "t"): F(1), ("c", "c"): F(1)}
    exact = chain_of(spec)
    avoidable = chain_of({edge: float(p) for edge, p in spec.items()}, FLOAT)
    assert first_entry_distribution(exact, {"t"}, "a") == analysis.Distribution(
        {"t": F(1, 2)}, F(1, 2))
    law = first_entry_distribution(avoidable, {"t"}, "a")
    assert law.mass["t"] == pytest.approx(0.5, rel=1e-12)
    assert law.never == pytest.approx(0.5, rel=1e-12)
    solve = linalg.solve

    def short(rows, b, mode, keep=None):
        return [[v * (1 - 1e-6) for v in row] for row in solve(rows, b, mode, keep)]

    monkeypatch.setattr(linalg, "solve", short)
    for target in ({"t"}, {"s", "t"}):  # absorption probabilities, then visits
        start = "a" if "s" in target else "s"
        with pytest.raises(SingularSystemError, match="not 1, where entry is almost sure"):
            first_entry_distribution(sure, target, start)
    assert first_entry_distribution(avoidable, {"t"}, "a").never > 0.5


def test_exact_entry_masses_must_sum_to_one_where_entry_is_almost_sure(monkeypatch):
    # The float check, with no tolerance: a correct exact solve always meets
    # it, so only a wrong law fails, and one that need not sum to one passes.
    sure = chain_of({("s", "a"): F(1, 2), ("s", "t"): F(1, 2), ("a", "s"): F(1, 2),
                     ("a", "t"): F(1, 2), ("t", "t"): F(1)})
    avoidable = chain_of({("a", "t"): F(1, 2), ("a", "c"): F(1, 2), ("t", "t"): F(1),
                          ("c", "c"): F(1)})
    solve = linalg.solve
    scale = 1 - F(1, 10**40)

    def short(rows, b, mode, keep=None):
        return [[v * scale for v in row] for row in solve(rows, b, mode, keep)]

    monkeypatch.setattr(linalg, "solve", short)
    for target in ({"t"}, {"s", "t"}):  # absorption probabilities, then visits
        start = "a" if "s" in target else "s"
        with pytest.raises(SingularSystemError, match="not 1, where entry is almost sure"):
            first_entry_distribution(sure, target, start)
    assert first_entry_distribution(avoidable, {"t"}, "a").mass == {"t": scale / 2}


def dense_exit_mass_system(chain, block, transpose):
    """``I - Q`` over ``block``, or its transpose, as a dense numpy matrix whose
    diagonal holds each row's exit mass ``sum_{v != u} tau(u, v)``."""
    pos = {u: r for r, u in enumerate(block)}
    a = np.zeros((len(block), len(block)))
    for r, u in enumerate(block):
        exit_mass = 0  # added left to right: builtin sum compensates from Python 3.12
        for v, p in chain.row_by_index(u).items():
            if v != u:
                exit_mass += p
                if v in pos:
                    a[(pos[v], r) if transpose else (r, pos[v])] = -p
        a[r, r] = exit_mass
    return a


@pytest.mark.parametrize("report", [
    lambda: crowds_report(make_params(20, 4, F(4, 5))),
    lambda: zeroconf_report(ZeroconfParams(100, F(1, 100), F(16, 65024), F(1, 500), 3600)),
], ids=["crowds-J20", "zeroconf-N100"])
def test_exact_blocks_hold_one_negated_object_per_distinct_chain_value(report):
    # The builders share value objects: Crowds' J**2 edges hold three, and
    # ZeroConf's probe rows two. A solve negates each distinct one once, and
    # the pivot of every row with no self-loop is the arithmetic's one.
    one = arithmetic(EXACT).one
    systems = []
    solve = linalg.solve

    def copying(rows, b, mode, keep=None):
        systems.append([dict(row) for row in rows])  # solve writes b into the rows
        return solve(rows, b, mode, keep)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "solve", copying)
        report()
    assert len(systems) >= 2
    for rows in systems:
        off = [x for i, row in enumerate(rows) for j, x in row.items() if j != i]
        assert len({id(x) for x in off}) == len(set(off)) <= 3
        pivots = [row[i] for i, row in enumerate(rows) if row[i] == 1]
        assert pivots and all(x is one for x in pivots)


@pytest.mark.parametrize("transpose", [False, True], ids=["forward", "transpose"])
def test_float_block_solve_is_numpy_on_the_dense_exit_mass_system(transpose):
    # A self-loop of 1 - 1e-17 reads 1.0 in floats; its exit mass is 1e-17.
    loop = validate_chain(["a", "b", "goal"], {
        ("a", "a"): 1 - 1e-17, ("a", "b"): 1e-17,
        ("b", "a"): 0.5, ("b", "goal"): 0.5, ("goal", "goal"): 1.0,
    }, FLOAT)
    assert loop.row_by_index(0)[0] == 1.0
    rng = random.Random(12)
    chains = [loop]
    for n in range(2, 14):
        chains.append(as_mode(random_reward(rng, n, chain=random_chain(rng, n)), FLOAT).chain)
        chains.append(as_mode(random_reward(rng, n, chain=near_one_chain(rng, n)), FLOAT).chain)
    for chain in chains:
        n = len(chain.states)
        target = {n - 1}
        within = set(range(n - 1))
        block = sorted(brute_closure(edge_list(chain, backward=True), within, target) & within)
        b = [[rng.random(), float(u == block[0])] for u in block]
        x = _solve_block(chain, block, b, transpose)
        expected = np.linalg.solve(dense_exit_mass_system(chain, block, transpose), np.array(b))
        assert repr(x) == repr(dict(zip(block, expected.tolist())))


def float_block_query(rng, n_states, shape):
    """A float chain of ``shape``, and the block of its states that reach its last state
    through the others.

    ``"wide"`` chains have rows of up to ``n_states`` entries, ``"random"``
    ones of up to three, and ``"near_one"`` ones near-one self-loops.
    """
    if shape == "near_one":
        chain = near_one_chain(rng, n_states)
    else:
        chain = random_chain(rng, n_states, max_out={"random": 3, "wide": n_states}[shape])
    chain = as_mode(random_reward(rng, n_states, chain=chain), FLOAT).chain
    within = set(range(n_states - 1))
    return chain, sorted(brute_closure(edge_list(chain, backward=True), within, {n_states - 1})
                         & within)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 16),
       shape=st.sampled_from(["random", "wide", "near_one"]), transpose=st.booleans(),
       keep_at=st.none() | st.sets(st.integers(0, 14)))
def test_float_block_solve_is_numpy_on_the_reference_exit_mass_system(
        seed, n_states, shape, transpose, keep_at):
    # The float system is built in numpy, and its exit masses add left to
    # right: bit for bit the reference matrix, and so numpy's solve of it.
    rng = random.Random(seed)
    chain, block = float_block_query(rng, n_states, shape)
    if not block:
        return
    reference = dense_exit_mass_system(chain, block, transpose)
    assert np.array_equal(arithmetic(FLOAT).system(chain, block, transpose), reference)
    keep = None if keep_at is None else {block[i] for i in keep_at if i < len(block)}
    b = [[rng.random(), float(u == block[0])] for u in block]
    x = _solve_block(chain, block, b, transpose, keep)
    expected = dict(zip(block, np.linalg.solve(reference, np.array(b)).tolist()))
    assert repr(x) == repr({u: expected[u] for u in (block if keep is None else sorted(keep))})


def test_float_exit_masses_add_left_to_right_where_numpy_would_add_pairwise():
    # numpy's sum adds rows of eight or more terms pairwise. Wide rows where
    # that moves the last bit still get the left-to-right exit mass.
    rng = random.Random(33)
    moved = 0
    for _ in range(20):
        chain, block = float_block_query(rng, 16, "wide")
        diagonal = arithmetic(FLOAT).system(chain, block, False).diagonal().tolist()
        for u, d in zip(block, diagonal):
            exits = [p for v, p in chain.row_by_index(u).items() if v != u]
            assert d == dense_exit_mass_system(chain, [u], False)[0, 0]
            moved += len(exits) >= 8 and d != np.sum(exits)
    assert moved > 0


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

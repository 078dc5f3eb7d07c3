import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction as F
from itertools import accumulate
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactchain import EXACT, FLOAT, simulate, validate_chain, validate_reward
from exactchain.analysis import until_prob_is_zero, until_probability
from exactchain.crowds import FIG3, build_crowds, make_params, path_shape_error
from exactchain.errors import InvalidParamsError
from exactchain.simulate import (
    _BLOCK,
    PATH_STREAM_STRIDE,
    Estimate,
    JointCounts,
    PathRng,
    SimConfig,
    estimate_cost,
    estimate_joint_first_last,
    estimate_until,
    sample_path,
)
from exactchain.zeroconf import ZeroconfParams, build_zeroconf

from _support import random_chain, random_query, random_reward

SMALL = ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), r=1, E=0)

# The walker tests patch its block down to SMALL_BLOCK, so that path counts
# straddle one or many blocks cheaply; one example each keeps the real
# _BLOCK. Short horizons censor, and seeds span the 64-bit range.
SMALL_BLOCK = 8
SAMPLES = st.sampled_from([1, 2, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1,
                           5 * SMALL_BLOCK + 3])
MAX_STEPS = st.sampled_from([1, 2, 3, 10, 100])
SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1, 2**64 - 5]), st.integers(0, 2**64 - 1))
MODES = st.sampled_from([EXACT, FLOAT])
# (states, most successors per row): narrow rows, or rows that may reach
# every state of up to 30, so the walker's search runs 1 to 5 halvings over
# rows of every length, powers of two or not.
SHAPES = st.one_of(st.tuples(st.integers(2, 6), st.just(3)),
                   st.integers(7, 30).map(lambda n: (n, n)))


def chain_of(spec):
    states = sorted({s for edge in spec for s in edge})
    return validate_chain(states, spec)


def test_rng_is_deterministic_and_stable():
    draws = [PathRng(12345).next_uint64() for _ in range(3)]
    again = [PathRng(12345).next_uint64() for _ in range(3)]
    assert draws == again
    assert draws != [PathRng(12346).next_uint64() for _ in range(3)]


def test_path_streams_are_jump_separated():
    # Stream i begins exactly PATH_STREAM_STRIDE draws into stream 0.
    base = PathRng(99, 0)
    for _ in range(PATH_STREAM_STRIDE):
        base.next_uint64()
    assert base.next_uint64() == PathRng(99, 1).next_uint64()


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=0, samples=0)
    with pytest.raises(ValueError):
        SimConfig(seed=0, samples=1, max_steps=0)


def test_sim_config_rejects_seeds_outside_64_bits():
    # PathRng reads a seed modulo 2**64, so a seed outside the range would
    # draw the paths of another while its report echoed its own.
    assert SimConfig(seed=2**64 - 1, samples=1).seed == 2**64 - 1
    for bad in (-1, 2**64):
        message = rf"seed must be in 0\.\.{2**64 - 1}, got {bad}$"
        with pytest.raises(InvalidParamsError, match=message):
            SimConfig(seed=bad, samples=1)


def test_sim_config_keeps_path_streams_disjoint():
    # A path of max_steps states draws max_steps - 1 times; a longer one
    # would draw from the next path's stream.
    assert SimConfig(seed=0, samples=1, max_steps=PATH_STREAM_STRIDE + 1)
    for bad in (dict(samples=0), dict(max_steps=0), dict(max_steps=PATH_STREAM_STRIDE + 2)):
        with pytest.raises(InvalidParamsError):
            SimConfig(**{"seed": 0, "samples": 1, **bad})


def test_sample_path_keeps_path_streams_disjoint():
    chain = chain_of({("a", "b"): F(1, 2), ("a", "a"): F(1, 2), ("b", "a"): F(1)})
    # The longest path that stays inside its own stream is accepted ...
    edge = sample_path(chain, "a", PathRng(3, 0), stop=lambda s: True,
                       max_steps=PATH_STREAM_STRIDE + 1)
    assert edge.states == ("a",)
    # ... one more state would replay path 1's first draw, and a path of
    # fewer than one state has no room for its start.
    assert sample_path(chain, "a", PathRng(3, 0), max_steps=1).states == ("a",)
    for bad in (PATH_STREAM_STRIDE + 2, PATH_STREAM_STRIDE + 40, 0, -5):
        message = rf"max_steps must be in 1\.\.{PATH_STREAM_STRIDE + 1}, got {bad}$"
        with pytest.raises(InvalidParamsError, match=message):
            sample_path(chain, "a", PathRng(3, 0), max_steps=bad)


def test_sample_path_deterministic_chain():
    chain = chain_of({("a", "b"): F(1), ("b", "c"): F(1), ("c", "c"): F(1)})
    path = sample_path(chain, "a", PathRng(0), max_steps=3)
    assert path.states == ("a", "b", "c")


def test_sample_path_absorbing_horizon():
    chain = chain_of({("a", "a"): F(1)})
    path = sample_path(chain, "a", PathRng(0), max_steps=5)
    assert path.states == ("a",) * 5


def test_sample_path_stop_predicate():
    chain = chain_of({("a", "b"): F(1), ("b", "c"): F(1), ("c", "c"): F(1)})
    path = sample_path(chain, "a", PathRng(0), stop=lambda s: s == "b", max_steps=10)
    assert path.states == ("a", "b")
    immediate = sample_path(chain, "a", PathRng(0), stop=lambda s: s == "a")
    assert immediate.states == ("a",)


def test_sampled_steps_are_positive_probability_edges():
    rchain = build_zeroconf(SMALL)
    for i in range(300):
        path = sample_path(rchain.chain, "Start", PathRng(17, i), max_steps=40)
        for u, v in zip(path.states, path.states[1:]):
            assert rchain.chain.prob(u, v) > 0
        assert path.seed == 17 and path.path_index == i


def test_estimate_until_start_in_psi():
    chain = chain_of({("a", "a"): F(1)})
    est = estimate_until(chain, {"a"}, {"a"}, "a", SimConfig(seed=0, samples=100))
    assert est == Estimate(1.0, 0.0, 100, 0)


def test_estimate_until_empty_phi_miss():
    chain = chain_of({("a", "b"): F(1), ("b", "b"): F(1)})
    est = estimate_until(chain, set(), {"b"}, "a", SimConfig(seed=0, samples=50))
    assert est.mean == 0.0 and est.censored == 0


def test_estimate_until_with_every_path_censored():
    # With room for the start alone, no path is decided.
    chain = chain_of({("a", "b"): F(1), ("b", "b"): F(1)})
    # No decided path gives no estimate, not a mean of 0.
    est = estimate_until(chain, {"a"}, {"b"}, "a", SimConfig(seed=0, samples=10, max_steps=1))
    assert est == Estimate(None, None, 10, 10)


def test_estimate_until_matches_exact_value():
    rchain = build_zeroconf(SMALL)
    chain = rchain.chain
    exact = float(until_probability(chain, set(chain.states), {"Error"}, "Start"))
    est = estimate_until(chain, set(chain.states), {"Error"}, "Start",
                         SimConfig(seed=2, samples=60_000))
    assert est.censored == 0
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_estimate_until_decides_via_graph_not_horizon():
    # Paths absorbed outside the goal must decide negatively, not censor.
    rchain = build_zeroconf(SMALL)
    chain = rchain.chain
    est = estimate_until(chain, set(chain.states), {"Error"}, "Start",
                         SimConfig(seed=5, samples=2_000, max_steps=10_000))
    assert est.censored == 0


def test_estimate_cost_trivials():
    chain = chain_of({("a", "b"): F(1), ("b", "b"): F(1)})
    rchain = validate_reward(chain, {("a", "b"): F(1)})
    inside = estimate_cost(rchain, {"a"}, "a", SimConfig(seed=0, samples=20))
    assert inside.mean == 0.0 and inside.std_error == 0.0
    onestep = estimate_cost(rchain, {"b"}, "a", SimConfig(seed=0, samples=20))
    assert onestep.mean == 1.0 and onestep.std_error == 0.0


def test_estimate_cost_matches_exact_value():
    rchain = build_zeroconf(SMALL)
    est = estimate_cost(rchain, {"Ok", "Error"}, "Start",
                        SimConfig(seed=3, samples=60_000))
    assert abs(est.mean - 14 / 5) <= 3 * est.std_error
    assert est.censored == 0


def test_estimate_cost_adds_path_costs_left_to_right():
    # Costs 1e16 and 1: left to right, a 1 added after a 1e16 rounds away,
    # while a pairwise or compensated sum keeps some of them.
    chain = chain_of({("a", "big"): F(1, 16), ("a", "one"): F(15, 16),
                      ("big", "big"): F(1), ("one", "one"): F(1)})
    rchain = validate_reward(chain, {("a", "big"): F(10**16), ("a", "one"): F(1)})
    cfg = SimConfig(seed=1, samples=64)
    ends = [sample_path(chain, "a", PathRng(cfg.seed, k), max_steps=2).states[-1]
            for k in range(cfg.samples)]
    costs = [1e16 if end == "big" else 1.0 for end in ends]
    total = 0.0
    for c in costs:
        total += c
    assert total not in (float(np.sum(costs)), math.fsum(costs))
    est = estimate_cost(rchain, {"big", "one"}, "a", cfg)
    assert est.mean == total / cfg.samples and est.censored == 0


def test_estimates_are_deterministic():
    rchain = build_zeroconf(SMALL)
    chain = rchain.chain
    cfg = SimConfig(seed=11, samples=5_000)
    a = estimate_until(chain, set(chain.states), {"Error"}, "Start", cfg)
    b = estimate_until(chain, set(chain.states), {"Error"}, "Start", cfg)
    assert a == b
    c = estimate_until(chain, set(chain.states), {"Error"}, "Start",
                       SimConfig(seed=12, samples=5_000))
    assert a != c


def _reference_paths(chain, start, cfg, stop):
    return [
        sample_path(chain, start, PathRng(cfg.seed, k), stop=stop.__contains__,
                    max_steps=cfg.max_steps).states
        for k in range(cfg.samples)
    ]


@settings(max_examples=40, deadline=None)
@given(chain_seed=st.integers(0, 2**32 - 1), shape=SHAPES, mode=MODES,
       seed=SEEDS, samples=SAMPLES, max_steps=MAX_STEPS, start_in_psi=st.booleans(),
       block=st.just(SMALL_BLOCK))
@example(chain_seed=1, shape=(4, 3), mode=EXACT, seed=2**64 - 1, samples=1,
         max_steps=1, start_in_psi=False, block=SMALL_BLOCK)
@example(chain_seed=2, shape=(5, 3), mode=FLOAT, seed=2**64 - 5, samples=SMALL_BLOCK - 1,
         max_steps=2, start_in_psi=False, block=SMALL_BLOCK)
@example(chain_seed=3, shape=(6, 3), mode=EXACT, seed=2**64 - 5, samples=SMALL_BLOCK,
         max_steps=3, start_in_psi=True, block=SMALL_BLOCK)
@example(chain_seed=4, shape=(3, 3), mode=FLOAT, seed=2**64 - 1, samples=_BLOCK + 1,
         max_steps=10, start_in_psi=False, block=_BLOCK)
@example(chain_seed=5, shape=(30, 30), mode=FLOAT, seed=7, samples=5 * SMALL_BLOCK + 3,
         max_steps=100, start_in_psi=False, block=SMALL_BLOCK)
@example(chain_seed=6, shape=(23, 23), mode=EXACT, seed=2**64 - 5, samples=SMALL_BLOCK + 1,
         max_steps=10, start_in_psi=False, block=SMALL_BLOCK)
def test_estimator_walk_matches_sample_path(chain_seed, shape, mode, seed, samples,
                                            max_steps, start_in_psi, block):
    # The block walker behind the estimators must replay exactly the draws
    # and successors that sample_path takes for each (seed, path index), and
    # the estimators must add them up in path-index order across blocks.
    rng = random.Random(chain_seed)
    n_states, max_out = shape
    rchain = random_reward(rng, n_states, mode, random_chain(rng, n_states, max_out))
    chain = rchain.chain
    phi, psi, start = random_query(rng, chain)
    if start_in_psi:
        start = min(psi)
    cfg = SimConfig(seed, samples, max_steps)

    # A path is decided on entering psi, or a state with zero probability left.
    dead = {s for s in chain.states if until_prob_is_zero(chain, phi, psi, s)}
    ends = [p[-1] for p in _reference_paths(chain, start, cfg, psi | dead)]
    decided = sum(e in psi or e in dead for e in ends)
    if decided:
        p = sum(e in psi for e in ends) / decided
        want = Estimate(p, (p * (1.0 - p) / decided) ** 0.5, samples, samples - decided)
    else:
        want = Estimate(None, None, samples, samples)
    with patch.object(simulate, "_BLOCK", block):
        got = estimate_until(chain, phi, psi, start, cfg)
    assert got == want

    everything = set(chain.states)
    dead = {s for s in chain.states if until_prob_is_zero(chain, everything, psi, s)}
    costs = []
    for path in _reference_paths(chain, start, cfg, psi | dead):
        if path[-1] in psi:
            acc = 0.0
            for u, v in zip(path, path[1:]):
                acc += float(rchain.cost(u, v))
            costs.append(acc)
    n = len(costs)
    if n:
        total = total_sq = 0.0
        for c in costs:
            total += c
            total_sq += c * c
        mean = total / n
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
        want = Estimate(mean, (var / n) ** 0.5, samples, samples - n)
    else:
        want = Estimate(None, None, samples, samples)
    with patch.object(simulate, "_BLOCK", block):
        got = estimate_cost(rchain, psi, start, cfg)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(chain_seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 40), mode=MODES)
@example(chain_seed=0, n_states=40, mode=FLOAT)
def test_step_index_matches_row_bisect(chain_seed, n_states, mode):
    # Pins the chain's successor table itself, which both samplers read: each
    # row's own sorted successors and running float sums, the last set to 1.0.
    rng = random.Random(chain_seed)
    chain = random_reward(rng, n_states, mode, random_chain(rng, n_states, n_states)).chain
    ptr, table_succ, table_cum = chain._cdf_table()
    assert chain._cdf_table() is chain._cdf_table()
    for i in range(n_states):
        row = chain.row_by_index(i)
        succ = sorted(row)
        cum, acc = [], 0.0
        for j in succ:
            acc += float(row[j])
            cum.append(acc)
        cum[-1] = 1.0
        draws = {0.0, 1 - 2**-53}
        for c in cum:
            draws |= {c, math.nextafter(c, 0), math.nextafter(c, 1)}
        for u in sorted(d for d in draws if 0 <= d < 1):
            got = table_succ[bisect_right(table_cum, u, ptr[i], ptr[i + 1])]
            assert got == succ[bisect_right(cum, u)], (i, u)


def near_uniform_rows(max_width):
    """Rows of masses within 10 % of each other, up to ``max_width`` wide."""
    weights = st.lists(st.integers(100, 110), min_size=1, max_size=max_width)
    return weights.map(lambda w: [x / sum(w) for x in w])


def skewed_rows(max_width):
    """Rows with a 0.97 head and the rest spread over up to ``max_width - 1`` masses."""
    weights = st.lists(st.integers(1, 100), min_size=1, max_size=max_width - 1)
    return weights.map(lambda t: [0.97] + [0.03 * x / sum(t) for x in t])


def with_tiny_masses(row_and_places):
    """Put masses of 1e-300, or of 0.0 as an exact mass that underflows, into a row."""
    row, places = row_and_places
    for k in places:
        row.insert(k % (len(row) + 1), 1e-300 if k % 2 else 0.0)
    return row


# Tables of successor rows by kind. Near-uniform rows 5 or more wide take
# the guide; skewed rows of up to 32 do not, since the head's boundary and
# every later one fall into the row's last bucket; tiny masses put
# boundaries a hair apart, or at the very start of a row. A running sum
# may round above 1 before the row's last entry, which is set to 1.0.
ROWS = {
    "near-uniform": near_uniform_rows(64),
    "skewed": skewed_rows(32),
    "tiny": st.tuples(st.one_of(near_uniform_rows(61), skewed_rows(61)),
                      st.lists(st.integers(0, 64), min_size=1, max_size=3)).map(with_tiny_masses),
}
TABLES = st.one_of(*(st.tuples(st.just(kind), st.lists(row, min_size=1, max_size=4))
                     for kind, row in ROWS.items()))


@settings(max_examples=60, deadline=None)
@given(table=TABLES)
@example(table=("near-uniform", [[1 / 64] * 64, [1.0]]))
@example(table=("skewed", [[0.97] + [0.03 / 31] * 31]))
@example(table=("tiny", [[1e-300, 0.5, 1e-300, 0.5, 1e-300], [1e-300, 1e-300, 1.0]]))
@example(table=("tiny", [[0.25, 0.7500000000000002, 1e-300, 1e-300], [0.9, 0.1, 1e-300, 1e-300],
                         [0.5, 0.5000000000000002], [0.2] * 5]))
def test_successor_search_matches_row_bisect(table):
    # The walker's search on integer draws k finds, for every row, the
    # flat position bisect_right gives for u = k * 2**-53 on the float row,
    # hence the same successor. Draws sit at and next to every running sum
    # and every bucket edge b / K, and at both ends of [0, 1).
    kind, rows = table
    ptr, cum = [0], []
    for row in rows:
        cum += accumulate(row)
        cum[-1] = 1.0
        ptr.append(len(cum))
    search = simulate._Successors(ptr, cum)
    if kind == "near-uniform" and max(map(len, rows)) >= 5:
        assert search.base is not None
    if kind == "skewed":
        assert search.base is None
    for i in range(len(rows)):
        sums = cum[ptr[i] : ptr[i + 1]]
        size = 1 << (len(sums) - 1).bit_length()
        points = {0.0, 1 - 2**-53}
        for c in sums + [b / size for b in range(size + 1)]:
            points |= {c, math.nextafter(c, 0), math.nextafter(c, 1)}
        draws = sorted({k for u in points for k in (math.floor(u * 2**53), math.ceil(u * 2**53))
                        if 0 <= k < 2**53})
        got = search(np.full(len(draws), i), np.array(draws, dtype=np.uint64))
        assert got.tolist() == [ptr[i] + bisect_right(sums, k * 2**-53) for k in draws], i


def test_walker_tables_hold_one_entry_per_edge():
    # One 1000-successor row that no path from "a" visits must not widen
    # the walker's tables for every other row.
    trans = {(f"s{i}", "goal"): F(1) for i in range(1000)}
    trans.update({("hub", f"s{i}"): F(1, 1000) for i in range(1000)})
    trans.update({("a", "a"): F(1, 2), ("a", "goal"): F(1, 4), ("a", "trap"): F(1, 4),
                  ("goal", "goal"): F(1), ("trap", "trap"): F(1)})
    chain = chain_of(trans)
    tracemalloc.start()
    try:
        estimate_until(chain, set(chain.states), {"goal"}, "a", SimConfig(1, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@settings(max_examples=20, deadline=None)
@given(n_jondos=st.integers(3, 9), coll_seed=st.integers(0, 100), skewed=st.booleans(),
       p_f=st.sampled_from([F(1, 2), F(4, 5), F(9, 10)]), mode=MODES, seed=SEEDS,
       samples=SAMPLES, max_steps=st.sampled_from([1, 2, 3, 5, 10_000]),
       block=st.just(SMALL_BLOCK))
@example(n_jondos=5, coll_seed=1, skewed=True, p_f=F(4, 5), mode=FLOAT, seed=2**64 - 5,
         samples=_BLOCK + 1, max_steps=3, block=_BLOCK)
# Crowds of 20 take the walker's guide table, with one halving at p_f = 4/5
# and two at 1/2; at 5 * SMALL_BLOCK + 3 paths, cells are first hit in
# later blocks, after others that earlier blocks hit.
@example(n_jondos=20, coll_seed=3, skewed=False, p_f=F(4, 5), mode=FLOAT, seed=1,
         samples=5 * SMALL_BLOCK + 3, max_steps=10_000, block=SMALL_BLOCK)
@example(n_jondos=20, coll_seed=0, skewed=True, p_f=F(1, 2), mode=EXACT, seed=2**64 - 5,
         samples=5 * SMALL_BLOCK + 3, max_steps=10_000, block=SMALL_BLOCK)
def test_joint_walk_matches_sample_path(n_jondos, coll_seed, skewed, p_f, mode, seed,
                                        samples, max_steps, block):
    n_colls = 1 + coll_seed % (n_jondos - 2)
    init = {"J1": F(3, 4), "J2": F(1, 4)} if skewed else None
    model = build_crowds(make_params(n_jondos, n_colls, p_f, init), mode)
    if n_jondos >= 20:
        ptr, _, cum = model.chain._cdf_table()
        assert simulate._Successors(ptr, cum).base is not None
    cfg = SimConfig(seed, samples, max_steps)
    coll_mix = model.collaborator_mix_labels()

    counts = {}
    hits = censored = 0
    for path in _reference_paths(model.chain, model.START, cfg, coll_mix | {model.END}):
        if path[-1] in coll_mix:
            key = (model.jondo_of(path[1]), model.jondo_of(path[-2]))
            counts[key] = counts.get(key, 0) + 1
            hits += 1
        elif path[-1] != model.END:
            censored += 1
    with patch.object(simulate, "_BLOCK", block):
        got = estimate_joint_first_last(model, cfg)
    assert got == JointCounts(counts, hits, samples, censored)
    assert list(got.counts) == list(counts)


def test_prefix_frequencies_match_cylinder_probabilities():
    rchain = build_zeroconf(SMALL)
    chain = rchain.chain
    n = 40_000
    counts = {}
    for i in range(n):
        path = sample_path(chain, "Start", PathRng(31, i), max_steps=3)
        key = path.states[1:]
        counts[key] = counts.get(key, 0) + 1
    for prefix, seen in counts.items():
        p = float(chain.path_prefix_prob("Start", list(prefix)))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(seen / n - p) <= 4 * sigma


def test_joint_first_last_counts():
    model = build_crowds(FIG3)
    cfg = SimConfig(seed=1, samples=40_000)
    counts = estimate_joint_first_last(model, cfg)
    assert counts.samples_used == cfg.samples
    assert counts.censored == 0
    assert sum(counts.counts.values()) == counts.hits
    # Hit probability 1/2; each diagonal cell 5/12, off-diagonal 1/12.
    assert abs(counts.hits / cfg.samples - 0.5) < 0.01
    for (i, l), expected in [
        (("J1", "J1"), 5 / 12), (("J2", "J2"), 5 / 12),
        (("J1", "J2"), 1 / 12), (("J2", "J1"), 1 / 12),
    ]:
        sigma = math.sqrt(expected * (1 - expected) / counts.hits)
        assert abs(counts.cell_fraction(i, l) - expected) <= 3 * sigma
    again = estimate_joint_first_last(model, cfg)
    assert again == counts


def test_joint_counts_no_hit_flagged():
    model = build_crowds(FIG3)
    # A single path that happens to reach End without meeting J3.
    for seed in range(50):
        counts = estimate_joint_first_last(model, SimConfig(seed=seed, samples=1))
        if counts.hits == 0:
            assert counts.counts == {}
            with pytest.raises(ZeroDivisionError):
                counts.cell_fraction("J1", "J1")
            break
    else:
        pytest.fail("no miss found in 50 seeds")


def test_sampled_crowds_paths_have_route_shape():
    model = build_crowds(FIG3)
    for i in range(2_000):
        path = sample_path(model.chain, "Start", PathRng(7, i), max_steps=48)
        assert path_shape_error(model, path.states) is None

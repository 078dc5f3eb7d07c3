"""Shared test helpers: seeded random chains and query sets."""

import random
from fractions import Fraction

from exactchain import EXACT, FLOAT, validate_chain, validate_reward


def random_chain(rng: random.Random, n_states: int, max_out: int = 3):
    """A random exact-mode chain with small-denominator rows."""
    states = [f"s{i}" for i in range(n_states)]
    trans = {}
    for s in states:
        out = rng.randint(1, min(max_out, n_states))
        targets = rng.sample(states, out)
        weights = [rng.randint(1, 9) for _ in targets]
        total = sum(weights)
        for t, w in zip(targets, weights):
            trans[(s, t)] = trans.get((s, t), Fraction(0)) + Fraction(w, total)
    return validate_chain(states, trans)


def near_one_chain(rng: random.Random, n_states: int):
    """A random exact-mode chain where most states keep a self-loop ``1 - 10**-k``, k <= 17.

    The rest of each row, ``10**-k`` or all of it, is split over up to three
    random successors; in float mode such a self-loop rounds to ``1.0``.
    """
    states = [f"s{i}" for i in range(n_states)]
    trans = {}
    for s in states:
        leave = Fraction(1)
        if rng.random() < 0.7:
            leave = Fraction(1, 10 ** rng.randint(1, 17))
            trans[(s, s)] = 1 - leave
        targets = rng.sample(states, rng.randint(1, min(3, n_states)))
        weights = [rng.randint(1, 9) for _ in targets]
        for t, w in zip(targets, weights):
            trans[(s, t)] = trans.get((s, t), 0) + leave * Fraction(w, sum(weights))
    return validate_chain(states, trans)


def random_reward(rng: random.Random, n_states: int, mode: str = EXACT, chain=None):
    """A random reward chain: small costs on most edges of ``chain``, else of a :func:`random_chain`."""
    if chain is None:
        chain = random_chain(rng, n_states)
    cost = {
        (u, v): Fraction(rng.randint(0, 9), rng.randint(1, 9))
        for u, v, _ in chain.edges()
        if rng.random() < 0.8
    }
    return as_mode(validate_reward(chain, cost), mode)


def as_mode(rchain, mode: str):
    """The same reward chain with its numbers in ``mode``'s arithmetic."""
    if mode == EXACT:
        return rchain
    chain = validate_chain(
        rchain.states, {(u, v): float(p) for u, v, p in rchain.chain.edges()}, FLOAT
    )
    return validate_reward(chain, {(u, v): float(c) for u, v, c in rchain.cost_edges()})


def random_query(rng: random.Random, chain):
    """Random (phi, psi, start) over the chain's states."""
    states = list(chain.states)
    psi = set(rng.sample(states, rng.randint(1, 2)))
    phi = {s for s in states if rng.random() < 0.7}
    start = rng.choice(states)
    return phi, psi, start


def truncated_until_mass(chain, phi, psi, start, depth):
    """Exhaustive prefix enumeration of the until event, pruned when decided.

    Walks every positive-probability prefix of ``start . omega`` up to
    ``depth`` transitions, accumulating the probability of prefixes that
    decide the event positively and the mass still undecided at the depth
    cut-off. The true until probability lies in
    ``[hit_mass, hit_mass + undecided_mass]``.
    """
    phi = set(phi)
    psi = set(psi)

    def walk(label, prob, steps_left):
        if label in psi:
            return prob, prob * 0
        if label not in phi:
            return prob * 0, prob * 0
        if steps_left == 0:
            return prob * 0, prob
        hit = prob * 0
        undecided = prob * 0
        for nxt, p in chain.row(label).items():
            h, u = walk(nxt, prob * p, steps_left - 1)
            hit += h
            undecided += u
        return hit, undecided

    return walk(start, chain.one, depth)

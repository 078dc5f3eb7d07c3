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


def random_reward(rng: random.Random, n_states: int, mode: str = EXACT):
    """A random reward chain: a :func:`random_chain` with small costs on most edges."""
    chain = random_chain(rng, n_states)
    cost = {
        (u, v): Fraction(rng.randint(0, 9), rng.randint(1, 9))
        for u, v, _ in chain.edges()
        if rng.random() < 0.8
    }
    if mode == FLOAT:
        chain = validate_chain(
            chain.states, {(u, v): float(p) for u, v, p in chain.edges()}, FLOAT
        )
        cost = {edge: float(c) for edge, c in cost.items()}
    return validate_reward(chain, cost)


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

"""Shared test helpers: seeded random chains, query sets and call recording."""

import contextlib
import inspect
import random
from fractions import Fraction

import pytest

from exactchain import EXACT, FLOAT, validate_chain, validate_reward


@contextlib.contextmanager
def recording(owner, name):
    """Record the calls to ``owner.name`` while the block runs, and still make them.

    Yields the list of calls, each a dict of the function's arguments by
    parameter name, defaults filled in. The forwarder takes ``*args,
    **kwargs``, so it does not restate the function's parameter list.
    """
    function = getattr(owner, name)
    signature = inspect.signature(function)
    calls = []

    def forward(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return function(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, forward)
        yield calls


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


def prime_chain(rng: random.Random, n_states: int):
    """A random exact-mode chain whose rows lie over distinct primes.

    Row ``i`` splits its mass over up to three random successors in
    multiples of ``1/p_i``, ``p_i`` the ``i``-th prime past 100, so no two
    rows' denominators share a factor and their lcm grows as fast as it can.
    """
    states = [f"s{i}" for i in range(n_states)]
    primes = []
    candidate = 100
    while len(primes) < n_states:
        candidate += 1
        if all(candidate % q for q in range(2, int(candidate ** 0.5) + 1)):
            primes.append(candidate)
    trans = {}
    for s, p in zip(states, primes):
        targets = rng.sample(states, rng.randint(1, min(3, n_states)))
        cuts = [0, *sorted(rng.sample(range(1, p), len(targets) - 1)), p]
        for t, lo, hi in zip(targets, cuts, cuts[1:]):
            trans[(s, t)] = Fraction(hi - lo, p)
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

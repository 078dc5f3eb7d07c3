"""Qualitative and quantitative analysis of finite Markov (reward) chains.

Qualitative verdicts (probability zero, probability one) are exact graph
criteria in both arithmetic modes, read from one split of all states into
those of probability zero and probability one (``_prob01``, two backward
searches); no float tolerance decides them. The quantitative answers
(until probabilities, expected hitting times, expected accumulated
costs, first-entry laws) each solve one absorbing system
``(I - Q) x = b`` over a block of states that the graph criteria pick so
that the system is nonsingular.

Two conventions hold throughout and are easy to trip over:

* **Prepended start.** Every path query is about the path ``start . omega``,
  i.e. the start state itself is inspected at index 0. A start inside the
  goal set satisfies "until" immediately; a start outside both sets can
  never satisfy it.
* **Reachability takes at least one transition.** ``reachable`` collects the
  endpoints of paths with one or more edges whose *intermediate* states lie
  in the restriction set; a state reaches itself only through a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .chain import EXACT, MarkovChain, RewardChain
from .errors import ConditionHasZeroProbabilityError, StartInTargetError

INFINITY = math.inf


@dataclass(frozen=True)
class Distribution:
    """Law of the first state of a target set hit by a path.

    ``mass`` holds the strictly positive entries; ``never`` is the residual
    mass of paths that avoid the target forever. Masses plus ``never`` sum
    to one (exactly in exact mode).
    """

    mass: dict
    never: object

    def total(self):
        return sum(self.mass.values(), type(self.never)(0))


@dataclass(frozen=True)
class EdgeDistribution(Distribution):
    """Law of the (predecessor, entry-state) pair at first entry of a target.

    Keys are ``(predecessor_label, entry_label)`` with the predecessor
    outside the target set and the entry state inside it.
    """

    def entry_marginal(self) -> Distribution:
        """Sum out the predecessor, recovering the first-entry law."""
        out = {}
        for (_, entry), p in self.mass.items():
            out[entry] = out.get(entry, 0) + p
        return Distribution(out, self.never)


def _reachable_idx(chain: MarkovChain, within: set[int], start: int) -> set[int]:
    """Indices reachable from ``start`` by >= 1 edges with intermediates in ``within``."""
    seen: set[int] = set()
    frontier = list(chain.row_by_index(start))
    seen.update(frontier)
    while frontier:
        u = frontier.pop()
        if u in within:
            for v in chain.row_by_index(u):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return seen


def _can_reach_idx(chain: MarkovChain, within: set[int], targets: set[int]) -> set[int]:
    """States in ``within`` with an edge-path to ``targets`` through ``within``.

    Backward closure over the nonzero-edge graph; the returned set excludes
    the targets themselves.
    """
    preds = chain._predecessors()
    reached: set[int] = set()
    frontier = list(targets)
    while frontier:
        t = frontier.pop()
        for u in preds[t]:
            if u in within and u not in reached:
                reached.add(u)
                frontier.append(u)
    return reached


def _prob01(chain: MarkovChain, within: set[int], targets: set[int]):
    """The states of probability zero and one of reaching ``targets`` through ``within``.

    Covers every state: ``zero`` holds the states outside the targets with
    no path to them through ``within``; ``one`` holds the rest except the
    states with a path through ``within`` into ``zero``. On a finite chain
    these are exactly the states from which the targets are reached through
    ``within`` with probability zero and one (Baier & Katoen, *Principles
    of Model Checking*, 10.1), whatever the arithmetic mode.
    """
    every = set(range(len(chain.states)))
    zero = every - targets - _can_reach_idx(chain, within, targets)
    return zero, every - zero - _can_reach_idx(chain, within, zero)


def _solve_block(
    chain: MarkovChain, block, width=1, exit_col=None, cost_row=None, base=None
) -> dict:
    """Solve ``(I - Q) x = b`` with ``Q`` the transitions inside ``block``.

    ``block`` is a sorted index list and ``b`` has ``width`` columns. One
    pass over each block row builds both rows of the system. Row ``u`` of
    ``b`` starts at ``base`` (zero by default) in every column, and then:

    * an edge ``u -> v`` leaving the block adds its probability to column
      ``exit_col(u, v)``, unless that is None;
    * with ``cost_row``, every edge adds ``p * cost_row(u)[v]`` to column 0.

    Returns the solution row of each block state. The caller picks a block
    from every state of which the path eventually leaves it with positive
    probability, which makes the system nonsingular.
    Float mode sets each diagonal entry to the row's exit mass instead of
    ``1 - p_uu``, so a self-loop of ``1 - 1e-17`` cannot round the pivot to
    zero (Grassmann, Taksar & Heyman 1985); exact rows make the two equal.
    """
    if not block:
        return {}
    pos = {u: r for r, u in enumerate(block)}
    zero, one = chain.zero, chain.one
    exit_mass = chain.mode != EXACT
    if base is None:
        base = zero
    a, b = [], []
    for u in block:
        a_row = [zero] * len(block)
        a_row[pos[u]] = one
        b_row = [base] * width
        costs = cost_row(u) if cost_row is not None else None
        for v, p in chain.row_by_index(u).items():
            r = pos.get(v)
            if r is not None:
                a_row[r] -= p
            elif exit_col is not None:
                c = exit_col(u, v)
                if c is not None:
                    b_row[c] += p
            if costs is not None:
                b_row[0] += p * costs.get(v, zero)
        if exit_mass:
            a_row[pos[u]] = sum(p for v, p in chain.row_by_index(u).items() if v != u)
        a.append(a_row)
        b.append(b_row)
    x = linalg.solve(a, b, chain.mode)
    return dict(zip(block, x))


def reachable(chain: MarkovChain, phi, start: str) -> set[str]:
    """States reachable from ``start`` via intermediate states in ``phi``.

    A reachable state is the endpoint of some positive-probability path
    with at least one transition whose states strictly between the
    endpoints all lie in ``phi``; neither ``start`` nor the endpoint needs
    to be in ``phi``.
    """
    phi_idx = chain.index_set(phi)
    s = chain.index_of(start)
    return {chain.states[i] for i in _reachable_idx(chain, phi_idx, s)}


def until_prob_is_zero(chain: MarkovChain, phi, psi, start: str) -> bool:
    """True iff the until event has probability zero from ``start``.

    With the prepended-start convention the event is certain when the start
    is already in ``psi`` and impossible when the start lies outside
    ``phi | psi``; otherwise it is null exactly when no ``psi`` state is
    graph-reachable through ``phi - psi``.
    """
    phi_idx = chain.index_set(phi)
    psi_idx = chain.index_set(psi)
    s = chain.index_of(start)
    return s in _prob01(chain, phi_idx - psi_idx, psi_idx)[0]


def certify_ae_until(chain: MarkovChain, phi, psi, start: str) -> bool:
    """Decide whether the until event holds almost surely from ``start``.

    A start in ``psi`` satisfies the event at once and a start outside
    ``phi`` never does. Otherwise the event is certain exactly when every
    state the path can occupy before ``psi`` lies in ``phi`` and can still
    reach ``psi`` through ``phi - psi``. The criterion is exact on finite
    chains: ``True`` if and only if the until probability is one, in both
    arithmetic modes, since it never looks at a float.
    """
    phi_idx = chain.index_set(phi)
    psi_idx = chain.index_set(psi)
    s = chain.index_of(start)
    return s in _prob01(chain, phi_idx - psi_idx, psi_idx)[1]


def until_probabilities(chain: MarkovChain, phi, psi) -> dict:
    """Probability of the until event from every state, as a label-keyed dict.

    States in ``psi`` get 1; states that cannot reach ``psi`` through
    ``phi - psi`` get an exact 0; the rest solve the linear fixed-point
    system ``x_s = sum_t tau(s,t) x_t`` by Gaussian elimination, which is
    nonsingular on exactly those states.
    """
    phi_idx = chain.index_set(phi)
    psi_idx = chain.index_set(psi)
    zero = chain.zero
    block = sorted(_can_reach_idx(chain, phi_idx - psi_idx, psi_idx))
    x = _solve_block(chain, block, exit_col=lambda u, v: 0 if v in psi_idx else None)
    return {
        label: chain.one if i in psi_idx else x[i][0] if i in x else zero
        for i, label in enumerate(chain.states)
    }


def until_probability(chain: MarkovChain, phi, psi, start: str):
    """Probability that ``start . omega`` stays in ``phi`` until hitting ``psi``."""
    chain.index_of(start)
    return until_probabilities(chain, phi, psi)[start]


def _expected_until(chain: MarkovChain, phi, start: str, cost_row=None):
    """Expected cost of the transitions taken before entering ``phi``.

    ``cost_row(u)`` maps the successors of ``u`` to transition costs; without
    it every transition costs one (the hitting time). Returns ``math.inf``
    when ``phi`` is not reached almost surely, and zero for a start already
    in ``phi``.
    """
    phi_idx = chain.index_set(phi)
    s = chain.index_of(start)
    if s in phi_idx:
        return chain.zero
    outside = set(range(len(chain.states))) - phi_idx
    if s not in _prob01(chain, outside, phi_idx)[1]:
        return INFINITY
    block = sorted(({s} | _reachable_idx(chain, outside, s)) - phi_idx)
    if cost_row is None:
        return _solve_block(chain, block, base=chain.one)[s][0]
    return _solve_block(chain, block, cost_row=cost_row)[s][0]


def expected_hitting_time(chain: MarkovChain, phi, start: str):
    """Expected number of steps of ``start . omega`` before first entering ``phi``.

    Returns ``math.inf`` when the target is not reached almost surely;
    otherwise solves ``h_s = 1 + sum_t tau(s,t) h_t`` over the transient
    states reachable from the start.
    """
    return _expected_until(chain, phi, start)


def expected_cost_until(rchain: RewardChain, phi, start: str):
    """Expected cost accumulated by ``start . omega`` before first entering ``phi``.

    Transition costs are charged from the first step out of the start
    onward; a start already in ``phi`` accumulates nothing. Returns
    ``math.inf`` when ``phi`` is not reached almost surely.
    """
    return _expected_until(rchain.chain, phi, start, rchain.cost_row_by_index)


def _entry_masses(chain: MarkovChain, t_idx: set[int], starts, key) -> dict:
    """Mass of each first-entry outcome ``key(u, c)`` of the target, per start.

    ``u`` is the last state outside the target and ``c`` the entry state;
    ``starts`` lie outside the target. Solves, with one right-hand-side
    column per outcome,
    ``f_s(k) = sum_{c in target, key(s,c)=k} tau(s,c) + sum_{t outside} tau(s,t) f_t(k)``
    once over the union of the starts' blocks: the states that can occupy
    a path before entry and can still reach the target. Every other state
    has zero entry mass. Returns ``{start: {outcome: mass}}`` with the
    strictly positive masses.
    """
    outside = set(range(len(chain.states))) - t_idx
    seen = set()
    for s in starts:
        seen |= {s} | _reachable_idx(chain, outside, s)
    block = sorted(seen & _can_reach_idx(chain, outside, t_idx))
    keys = sorted({key(u, v) for u in block for v in chain.row_by_index(u) if v in t_idx})
    col = {k: j for j, k in enumerate(keys)}
    x = _solve_block(
        chain, block, len(col), lambda u, v: col[key(u, v)] if v in t_idx else None
    )
    return {
        s: {k: x[s][j] for k, j in col.items() if x[s][j] > 0} if s in x else {}
        for s in starts
    }


def first_entry_distribution(chain: MarkovChain, target, start: str) -> Distribution:
    """Law of the first ``target`` state visited by ``start . omega``.

    A start inside the target is its own entry state with mass one. The
    ``never`` component carries the probability of avoiding the target
    forever.
    """
    t_idx = chain.index_set(target)
    s = chain.index_of(start)
    if s in t_idx:
        return Distribution({start: chain.one}, chain.zero)
    mass = {
        chain.states[v]: m
        for v, m in _entry_masses(chain, t_idx, [s], lambda u, v: v)[s].items()
    }
    return Distribution(mass, _residual(mass.values(), chain.one, chain.mode))


def entry_edge_distribution(chain: MarkovChain, target, start: str) -> EdgeDistribution:
    """Law of the (predecessor, entry) pair at first entry into ``target``.

    Entering through an edge requires at least one step, so the start must
    lie outside the target (:class:`StartInTargetError` otherwise).
    """
    t_idx = chain.index_set(target)
    s = chain.index_of(start)
    if s in t_idx:
        raise StartInTargetError(f"start {start!r} lies in the target set")

    mass = {
        (chain.states[u], chain.states[v]): m
        for (u, v), m in _entry_masses(chain, t_idx, [s], lambda u, v: (u, v))[s].items()
    }
    return EdgeDistribution(mass, _residual(mass.values(), chain.one, chain.mode))


def _residual(masses, one, mode):
    never = one - sum(masses, one - one)
    if mode != EXACT and never < 0:
        never = 0.0
    return never


def conditional_probability(p_joint, p_cond):
    """``p_joint / p_cond`` with the usual guards.

    Requires ``0 <= p_joint <= p_cond <= 1``; a zero condition raises
    :class:`ConditionHasZeroProbabilityError`.
    """
    if not (0 <= p_joint <= p_cond <= 1):
        raise ValueError(
            f"need 0 <= joint <= condition <= 1, got joint={p_joint}, condition={p_cond}"
        )
    if p_cond == 0:
        raise ConditionHasZeroProbabilityError("conditioning event has probability 0")
    if isinstance(p_joint, float) or isinstance(p_cond, float):
        return p_joint / p_cond
    return Fraction(p_joint) / Fraction(p_cond)


__all__ = [
    "Distribution",
    "EdgeDistribution",
    "INFINITY",
    "certify_ae_until",
    "conditional_probability",
    "entry_edge_distribution",
    "expected_cost_until",
    "expected_hitting_time",
    "first_entry_distribution",
    "reachable",
    "until_prob_is_zero",
    "until_probabilities",
    "until_probability",
]

"""Qualitative and quantitative analysis of finite Markov (reward) chains.

Qualitative verdicts (probability zero, probability one) are exact graph
criteria in both arithmetic modes; no float tolerance decides them. The
until verdicts (:func:`until_prob_is_zero`, :func:`certify_ae_until`),
the sampler's stopping states and ZeroConf's almost-sure termination read
one split of all states into those of probability zero and probability
one (``_prob01``, two backward searches), which takes the until event's
label sets and alone forms the set ``phi - psi`` the path moves on
through; a cost or termination query passes every state as ``phi``. The
other verdicts come with
the block of the query that needs them (``_entry_block``: one forward
search from all its starts, one backward search from the target):
whether an expected hitting time or cost is finite, and whether an entry
law must sum to one. The quantitative answers (until probabilities,
expected hitting times, expected accumulated costs, first-entry laws)
each solve one absorbing system ``(I - Q) x = b`` over a block of states
that the graph criteria pick so that the system is nonsingular. One multi-source traversal
(``_traverse``) answers every reachability question, forward along the
rows or backward along the predecessor lists. Sums of values, such as a
right-hand side or a law's total, add left to right (``chain._sum``).

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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain as iter_chain, repeat
from operator import mul

from .chain import MarkovChain, RewardChain, _sum, _sums_to_one, _total, arithmetic_of
from .errors import ConditionHasZeroProbabilityError, SingularSystemError, StartInTargetError
from .errors import _full_str

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
        return _sum(self.mass.values(), type(self.never)(0))


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


def _traverse(neighbours, within: set[int], sources) -> set[int]:
    """States entered by >= 1 edges from ``sources``, moving on only from states in ``within``.

    ``neighbours(u)`` lists the states one edge away from ``u``: the rows
    (``chain.row_by_index``) search forward, the predecessor lists
    backward. Every source is expanded, inside ``within`` or not; a source
    is in the result only if an edge enters it.
    """
    seen: set[int] = set()
    frontier = list(sources)
    while frontier:
        for v in neighbours(frontier.pop()):
            if v not in seen:
                seen.add(v)
                if v in within:
                    frontier.append(v)
    return seen


def _can_reach(chain: MarkovChain, within: set[int], targets: set[int]) -> set[int]:
    """States in ``within`` with an edge-path to ``targets`` through ``within``."""
    return _traverse(chain._predecessors().__getitem__, within, targets) & within


def _prob01(chain: MarkovChain, phi, psi):
    """``(psi_idx, zero, one)``: the split of the until event ``phi U psi``.

    ``phi`` and ``psi`` are label sets and ``psi_idx`` holds ``psi``'s
    indices. The path may move on only through ``within = phi - psi``.
    Covers every state: ``zero`` holds the states outside ``psi`` with no
    path to it through ``within``; ``one`` holds the rest except the
    states with a path through ``within`` into ``zero``. On a finite chain
    these are exactly the states from which the event has probability zero
    and one, with the prepended-start convention (Baier & Katoen,
    *Principles of Model Checking*, 10.1), whatever the arithmetic mode.
    """
    phi_idx, psi_idx = chain.index_set(phi), chain.index_set(psi)
    within = phi_idx - psi_idx
    every = set(range(len(chain.states)))
    zero = every - psi_idx - _can_reach(chain, within, psi_idx)
    return psi_idx, zero, every - zero - _can_reach(chain, within, zero)


def _entry_block(chain: MarkovChain, t_idx: set[int], starts) -> tuple[list[int], bool]:
    """``(block, sure)`` for paths from ``starts``, which lie outside ``t_idx``, until entry.

    One forward search from all the starts finds the states a path can
    occupy before it enters the target, and one backward search from the
    target the states that can still reach it; ``block`` holds the states
    found by both, sorted. ``sure`` is whether every state met before entry
    can still reach the target, which on a finite chain holds exactly when
    the target is entered with probability one from every start (Baier &
    Katoen, *Principles of Model Checking*, 10.1). Then the block holds
    every state met before entry.
    """
    outside = set(range(len(chain.states))) - t_idx
    seen = set(starts) | _traverse(chain.row_by_index, outside, starts)
    inside = seen & _can_reach(chain, outside, t_idx)
    return sorted(inside), seen - t_idx <= inside


def _solve_block(chain: MarkovChain, block, b, transpose=False, keep=None) -> dict:
    """Solve ``(I - Q) x = b``, or its transpose, with ``Q`` the transitions inside ``block``.

    ``block`` is a sorted index list and ``b`` holds one row per block
    state, in block order. Returns the solution row of each state in
    ``keep``, a set of block states, which is the whole block by default.
    The chain's arithmetic builds the matrix (``Arithmetic.system``) in the
    form :func:`linalg.solve` takes in its mode: exact rows as dicts of
    their nonzeros with pivot ``1 - q_ii``, each distinct value object
    negated once; a float block as one dense numpy matrix, built in a few
    array operations, whose diagonal is each row's exit mass (Grassmann,
    Taksar & Heyman 1985), so a self-loop of ``1 - 1e-17`` cannot round the
    pivot to zero. Exact rows make the two diagonals equal. The caller
    picks a block from every state of which the path eventually leaves it
    with positive probability, which makes ``I - Q`` a nonsingular
    M-matrix, and so is its transpose: exact sparse elimination then never
    meets a zero diagonal pivot, in any order.
    """
    if not block:
        return {}
    from . import linalg  # here, so that a sampling run loads no elimination kernel

    a = chain.arith.system(chain, block, transpose)
    kept = block if keep is None else sorted(keep)
    at = None if keep is None else {bisect_left(block, u) for u in keep}
    return dict(zip(kept, linalg.solve(a, b, chain.mode, keep=at)))


def reachable(chain: MarkovChain, phi, start: str) -> set[str]:
    """States reachable from ``start`` via intermediate states in ``phi``.

    A reachable state is the endpoint of some positive-probability path
    with at least one transition whose states strictly between the
    endpoints all lie in ``phi``; neither ``start`` nor the endpoint needs
    to be in ``phi``.
    """
    phi_idx = chain.index_set(phi)
    s = chain.index_of(start)
    return {chain.states[i] for i in _traverse(chain.row_by_index, phi_idx, [s])}


def until_prob_is_zero(chain: MarkovChain, phi, psi, start: str) -> bool:
    """True iff the until event has probability zero from ``start``.

    With the prepended-start convention the event is certain when the start
    is already in ``psi`` and impossible when the start lies outside
    ``phi | psi``; otherwise it is null exactly when no ``psi`` state is
    graph-reachable through ``phi - psi``.
    """
    zero = _prob01(chain, phi, psi)[1]
    return chain.index_of(start) in zero


def certify_ae_until(chain: MarkovChain, phi, psi, start: str) -> bool:
    """Decide whether the until event holds almost surely from ``start``.

    A start in ``psi`` satisfies the event at once and a start outside
    ``phi`` never does. Otherwise the event is certain exactly when every
    state the path can occupy before ``psi`` lies in ``phi`` and can still
    reach ``psi`` through ``phi - psi``. The criterion is exact on finite
    chains: ``True`` if and only if the until probability is one, in both
    arithmetic modes, since it never looks at a float.
    """
    one = _prob01(chain, phi, psi)[2]
    return chain.index_of(start) in one


def _until_system(chain: MarkovChain, phi, psi):
    """``psi``'s indices, the until block and its right-hand side.

    The block holds the states that can reach ``psi`` through
    ``phi - psi``, sorted; the one column of ``b`` is each one's mass of
    edges into ``psi``.
    """
    phi_idx = chain.index_set(phi)
    psi_idx = chain.index_set(psi)
    block = sorted(_can_reach(chain, phi_idx - psi_idx, psi_idx))
    b = [
        [_sum((p for v, p in chain.row_by_index(u).items() if v in psi_idx), chain.zero)]
        for u in block
    ]
    return psi_idx, block, b


def until_probabilities(chain: MarkovChain, phi, psi) -> dict:
    """Probability of the until event from every state, as a label-keyed dict.

    States in ``psi`` get 1; states that cannot reach ``psi`` through
    ``phi - psi`` get an exact 0; the rest solve the linear fixed-point
    system ``x_s = sum_t tau(s,t) x_t`` (:func:`linalg.solve`), which is
    nonsingular on exactly those states.
    """
    psi_idx, block, b = _until_system(chain, phi, psi)
    x = _solve_block(chain, block, b)
    zero = chain.zero
    return {
        label: chain.one if i in psi_idx else x[i][0] if i in x else zero
        for i, label in enumerate(chain.states)
    }


def until_probability(chain: MarkovChain, phi, psi, start: str):
    """Probability that ``start . omega`` stays in ``phi`` until hitting ``psi``.

    Equal to ``until_probabilities(chain, phi, psi)[start]``, from the same
    system; the solve back-substitutes the start's unknown alone.
    """
    s = chain.index_of(start)
    psi_idx, block, b = _until_system(chain, phi, psi)
    if s in psi_idx:
        return chain.one
    if s not in block:
        return chain.zero
    return _solve_block(chain, block, b, keep={s})[s][0]


def _expected_until(chain: MarkovChain, phi, start: str, cost_row=None):
    """Expected cost of the transitions taken before entering ``phi``.

    ``cost_row(u)`` maps the successors of ``u`` to transition costs; without
    it every transition costs one (the hitting time). Returns ``math.inf``
    when ``phi`` is not reached almost surely, as :func:`_entry_block`
    decides, and zero for a start already in ``phi``. Otherwise the block
    holds every state met before ``phi``.

    A row's right-hand side is ``sum_v p_uv c_uv``, added on its split
    numerators (``Arithmetic.split``): the probabilities over one
    denominator and the costs over another, one ``frac`` a row, so no
    exact product or sum builds a ``Fraction``. Float rows add the same
    products in the same order as a plain loop. The split is per row:
    one over the whole block would carry the lcm of every row's
    denominators, which on rows of distinct prime denominators is slower
    than ``Fraction`` arithmetic.
    """
    phi_idx = chain.index_set(phi)
    s = chain.index_of(start)
    if s in phi_idx:
        return chain.zero
    block, sure = _entry_block(chain, phi_idx, [s])
    if not sure:
        return INFINITY
    if cost_row is None:
        b = [[chain.one] for _ in block]
    else:
        split, frac = chain.arith.split, chain.arith.frac
        zeros = repeat(chain.zero)
        b = []
        for out, costs in zip(map(chain.row_by_index, block), map(cost_row, block)):
            pn, pd = split(out.values())
            cn, cd = split(map(costs.get, out, zeros))
            b.append([frac(_sum(map(mul, pn, cn), 0), pd * cd)])
    return _solve_block(chain, block, b, keep={s})[s][0]


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
    ``starts`` lie outside the target. ``exit_u(k)`` is the probability of
    ``u``'s edges into the target with key ``k``, added in row order. One
    solve covers the
    union of the starts' blocks (:func:`_entry_block`): the states that can
    occupy a path before entry and can still reach the target. Every other
    state, a start among them, has zero entry mass. The solve takes
    whichever orientation has fewer right-hand-side columns, ``K`` outcome
    keys or ``S`` starts:

    * ``K <= S``: the absorption probabilities ``(I - Q) X = exits``, one
      column per outcome, of which only the start rows are
      back-substituted (and so a tie goes this way);
    * ``K > S``: the expected visits ``y_s(u)`` to each ``u`` before entry
      (Kemeny & Snell's fundamental matrix, 1960), from
      ``(I - Q)^T y_s = e_s`` with one column per start; outcome ``k``
      from ``s`` then has mass ``sum_u y_s(u) exit_u(k)``, so only the
      rows of states with an edge into the target are back-substituted.
      The sums run on numerators (:func:`_visit_masses`): the exits over
      one denominator and the kept visit rows over another. Exact
      numerators are integers over an lcm; float ones are the floats
      themselves, over ``1``.

    Returns ``{start: {outcome: mass}}`` with the strictly positive masses,
    outcomes in sorted order (:func:`_positive`). Where the block search
    (:func:`_entry_block`) shows that the target is entered almost surely,
    each start's masses are added (:func:`_total`), and a sum that is not
    one (``chain._sums_to_one``: exactly, or within the float ``tol``)
    raises :class:`SingularSystemError`. Exact masses of a correct solve
    sum to exactly one, so in exact mode the check is an identity that only
    a wrong law fails.
    """
    block, sure = _entry_block(chain, t_idx, starts)
    zero, one, arith = chain.zero, chain.one, chain.arith
    inside = t_idx.__contains__
    exits = {}
    for u in block:
        row, out = chain.row_by_index(u), {}
        for v in filter(inside, row):  # the row's edges into the target, in row order
            k = key(u, v)
            out[k] = out[k] + row[v] if k in out else row[v]
        exits[u] = out
    keys = sorted({k for out in exits.values() for k in out})
    if len(keys) <= len(starts):
        col = {k: c for c, k in enumerate(keys)}
        b = [[zero] * len(keys) for _ in block]
        for b_row, out in zip(b, exits.values()):
            for k, p in out.items():
                b_row[col[k]] = p
        x = _solve_block(chain, block, b, keep=set(starts).intersection(block))
        masses = {s: _positive(zip(keys, x[s]), arith) if s in x else {} for s in starts}
    else:
        b = [[one if u == s else zero for s in starts] for u in block]
        y = _solve_block(chain, block, b, transpose=True,
                         keep={u for u, out in exits.items() if out})
        rows, den = _visit_masses(exits, y, keys, len(starts), arith)
        masses = {s: _positive(zip(keys, row), arith, den) for s, row in zip(starts, rows)}
    if sure:
        for s, out in masses.items():
            total = _total(out.values(), arith)
            if not _sums_to_one(total):
                raise SingularSystemError(
                    f"entry masses sum to {_full_str(total)}, not 1, where entry is almost sure"
                )
    return masses


def _visit_masses(exits, y, keys, n, arith) -> tuple:
    """``sum_u y_s(u) exit_u(k)`` for each of ``n`` starts, as numerators over one denominator.

    Returns ``(rows, den)``, one row of numerators per start in ``keys``
    order. The exits go over one denominator and the kept visit rows, split
    once, over another (``arith.split``), so a mass is a sum of products of
    numerators, added in the order of ``exits``: in exact arithmetic an
    integer sum; in float arithmetic the float sum itself, over ``1``.
    """
    edges = [(u, k) for u, out in exits.items() for k in out]
    e_nums, e_den = arith.split([p for out in exits.values() for p in out.values()])
    y_nums, y_den = arith.split(list(iter_chain.from_iterable(y.values())))
    y_rows = dict(zip(y, (y_nums[i:i + n] for i in range(0, len(y_nums), n))))
    mass = {k: [0] * n for k in keys}  # mass[k][j]: outcome k from start j
    for (u, k), e in zip(edges, e_nums):
        mass[k] = [m + y_u * e for m, y_u in zip(mass[k], y_rows[u])]
    return list(zip(*mass.values())), y_den * e_den


def _positive(masses, arith, den=None) -> dict:
    """The ``(outcome, mass)`` pairs of positive mass, as a dict.

    The masses solve an M-matrix system with a non-negative right-hand
    side, so none is negative; a float solve that returns one below
    ``-tol``, the arithmetic's tolerance, or a NaN, which fails both
    comparisons, has lost its accuracy, and raises
    :class:`SingularSystemError` rather than drop it. Only masses already
    bound to be dropped are compared, so exact mode pays nothing. With
    ``den``, the pairs hold numerators over it (:func:`_visit_masses`),
    which carry their masses' signs (float ones are over ``1``), and only a
    positive one is divided: no exact zero becomes a ``Fraction``.
    """
    positive = {}
    for k, m in masses:
        if m > 0:
            positive[k] = m if den is None else arith.frac(m, den)
        elif m < -arith.tol:
            m = m if den is None else arith.frac(m, den)
            raise SingularSystemError(f"the solve returned a negative entry mass {_full_str(m)}")
        elif m != m:
            raise SingularSystemError("the solve returned a NaN entry mass")
    return positive


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
    return Distribution(mass, _residual(mass.values(), chain.one))


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
    return EdgeDistribution(mass, _residual(mass.values(), chain.one))


def _residual(masses, one):
    """The mass of never entering: ``one`` less the entry masses, which sum to at most one.

    A float sum may pass one by rounding, and that excess reads as 0; an
    excess over the arithmetic's ``tol`` means the solve failed. Exact
    masses never pass one.
    """
    arith = arithmetic_of(one)
    never = one - _total(masses, arith)
    if never < -arith.tol:
        raise SingularSystemError(f"entry masses sum to {_full_str(one - never)}, over 1")
    return never if never >= 0 else arith.zero


def conditional_probability(p_joint, p_cond):
    """``p_joint / p_cond`` with the usual guards.

    Requires ``0 <= p_joint <= p_cond <= 1``; a zero condition raises
    :class:`ConditionHasZeroProbabilityError`.
    """
    if not (0 <= p_joint <= p_cond <= 1):
        raise ValueError(
            f"need 0 <= joint <= condition <= 1, "
            f"got joint={_full_str(p_joint)}, condition={_full_str(p_cond)}"
        )
    if p_cond == 0:
        raise ConditionHasZeroProbabilityError("conditioning event has probability 0")
    return arithmetic_of(p_joint + p_cond).frac(p_joint, p_cond)


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

"""Parametric model of route establishment in the Crowds protocol.

A crowd of ``J`` jondos relays web requests to hide who initiated them;
``J - H`` of the jondos collaborate to deanonymize the initiator. The
initiator (drawn from ``init``, always honest) forwards to a uniformly
random jondo; each relay then flips a coin: with probability ``p_f`` it
forwards to another uniform jondo, otherwise it contacts the server and
route building ends.

The chain has one ``Init j`` state per honest jondo and one ``Mix j``
state per jondo, between a single ``Start`` and an absorbing ``End``.
Closed forms cover the probability that a collaborator joins the route,
the joint law of (initiator, last honest jondo before a collaborator),
the probable-innocence criterion, and the mutual-information bound on
what collaborators learn; each is cross-checkable against the exact
solver on the built chain. :func:`crowds_report` reads all its solver
values off two entry-law solves; :func:`solver_hit_prob` and
:func:`last_jondo_distribution` each solve one query, as independent
references. :func:`solver_joint_first_last` is not one: it returns the
report's own solver joint, which only its comparison with the closed form
:func:`conditional_joint` checks independently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import repeat
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING

from . import analysis, info
from .chain import (
    EXACT, MarkovChain, _coerce_param, _sum, _sums_to_one, _total, _triple, _with_mode,
    arithmetic_of, format_scalar, validate_chain,
)
from .errors import InvalidParamsError, NotHonestJondoError, _full_str

if TYPE_CHECKING:  # sampling is imported only when a report asks for it
    from .simulate import SimConfig

START = "Start"
END = "End"


def init_label(jondo: str) -> str:
    return f"Init {jondo}"


def mix_label(jondo: str) -> str:
    return f"Mix {jondo}"


@dataclass(frozen=True)
class CrowdsParams:
    """Crowd membership, collaborator subset, forwarding probability, initiator law.

    ``init`` defaults to uniform over the honest jondos; collaborators
    never initiate.
    """

    jondos: tuple[str, ...]
    colls: frozenset[str]
    p_f: object
    init: object = None

    def __post_init__(self):
        jondos = tuple(self.jondos)
        object.__setattr__(self, "jondos", jondos)
        object.__setattr__(self, "colls", frozenset(self.colls))
        if not jondos:
            raise InvalidParamsError("need at least one jondo")
        if len(set(jondos)) != len(jondos):
            raise InvalidParamsError("jondo labels must be unique")
        if not self.colls:
            raise InvalidParamsError("need at least one collaborator")
        if not self.colls < set(jondos):
            raise InvalidParamsError(
                "collaborators must be a proper subset of the jondos"
            )
        object.__setattr__(self, "p_f", _coerce_param(self.p_f, "p_f"))
        if not 0 < self.p_f < 1:
            raise InvalidParamsError(f"need 0 < p_f < 1, got p_f={_full_str(self.p_f)}")

        honest = self.honest
        if self.init is None:
            share = Fraction(1, len(honest))
            init = {j: share for j in honest}
        else:
            init = {j: _coerce_param(v, f"init[{j}]") for j, v in dict(self.init).items()}
        if not set(init) <= set(jondos):
            raise InvalidParamsError("init assigns mass to unknown jondos")
        for j, v in init.items():
            if v < 0:
                raise InvalidParamsError(f"init[{j}] is negative")
            if v > 0 and j in self.colls:
                raise InvalidParamsError(f"collaborator {j!r} cannot initiate")
        total = _sum(init.values(), 0)
        if not _sums_to_one(total):
            raise InvalidParamsError(f"init sums to {_full_str(total)}, expected 1")
        init = {j: init.get(j, Fraction(0)) for j in honest}
        object.__setattr__(self, "init", MappingProxyType(init))

    def __hash__(self):
        # The generated hash would hash the init mappingproxy, which has none;
        # equal mappings have equal item sets.
        return hash((self.jondos, self.colls, self.p_f, frozenset(self.init.items())))

    @cached_property
    def honest(self) -> tuple[str, ...]:
        # Kept in the instance __dict__, outside the fields: ==, hash and
        # repr do not see it.
        return tuple(j for j in self.jondos if j not in self.colls)

    @property
    def J(self) -> int:
        return len(self.jondos)

    @property
    def H(self) -> int:
        return self.J - len(self.colls)


def make_params(n_jondos: int, n_colls: int, p_f, init=None) -> CrowdsParams:
    """Auto-label a crowd ``J1 .. Jn``; the last ``n_colls`` collaborate."""
    if n_jondos < 1 or n_colls < 1 or n_colls >= n_jondos:
        raise InvalidParamsError(
            f"need 1 <= collaborators < jondos, got {n_colls} of {n_jondos}"
        )
    jondos = tuple(f"J{i}" for i in range(1, n_jondos + 1))
    return CrowdsParams(jondos, frozenset(jondos[n_jondos - n_colls:]), p_f, init)


#: The three-jondo crowd with one collaborator and a fair forwarding coin.
FIG3 = make_params(3, 1, Fraction(1, 2))


class CrowdsModel:
    """A built Crowds chain plus the label bookkeeping around it."""

    START = START
    END = END

    def __init__(self, params: CrowdsParams, chain: MarkovChain):
        self.params = params
        self.chain = chain
        # label -> (role, jondo) for every state; no code parses a label.
        self._roles = {
            START: ("start", None),
            **{init_label(j): ("init", j) for j in params.honest},
            **{mix_label(j): ("mix", j) for j in params.jondos},
            END: ("end", None),
        }

    def jondo_of(self, label: str):
        """Jondo of an ``Init``/``Mix`` state; None for any other label."""
        return self._roles.get(label, (None, None))[1]

    def kind(self, label: str) -> str | None:
        """``"start"``, ``"init"``, ``"mix"`` or ``"end"``; None for a label that is no state."""
        return self._roles.get(label, (None, None))[0]

    def collaborator_mix_labels(self) -> set[str]:
        return {mix_label(c) for c in self.params.colls}


def build_crowds(params: CrowdsParams, mode: str = EXACT) -> CrowdsModel:
    """Build and validate the route-establishment chain."""
    params = _with_mode(params, mode)
    uniform = _frac(1, params.J, params)
    p_f = params.p_f

    inits = [init_label(j) for j in params.honest]
    mixes = [mix_label(j) for j in params.jondos]
    states = [START, *inits, *mixes, END]
    trans = {(END, END): 1}
    for label, weight in zip(inits, params.init.values()):  # init is keyed by honest
        if weight > 0:
            trans[(START, label)] = weight
    for i in inits:
        for j in mixes:
            trans[(i, j)] = uniform
    forward, stop = p_f * uniform, 1 - p_f
    for i in mixes:
        for j in mixes:
            trans[(i, j)] = forward
        trans[(i, END)] = stop

    return CrowdsModel(params, validate_chain(states, trans, mode))


def _frac(num: int, den: int, params: CrowdsParams):
    """``num / den`` in the params' arithmetic mode."""
    return arithmetic_of(params.p_f).frac(num, den)


def prob_hit_colls(params: CrowdsParams):
    """Closed-form probability that a collaborator joins the mixing phase."""
    honest_share = _frac(params.H, params.J, params)
    return (1 - honest_share) / (1 - honest_share * params.p_f)


def joint_first_last(params: CrowdsParams, i: str, l: str):
    """Closed-form conditional law of (initiator, last honest jondo).

    This is the probability, given that some collaborator joined the
    route, that honest jondo ``i`` initiated it and honest jondo ``l``
    was the one who contacted the first collaborator.
    """
    for j in (i, l):
        if j not in params.init:  # keyed by exactly the honest jondos
            raise NotHonestJondoError(j)
    forward_share, direct = _joint_terms(params)
    return params.init[i] * (forward_share + (direct if i == l else 0))


def _joint_terms(params: CrowdsParams):
    """``p_f / J`` and ``1 - (H/J) p_f``, the two terms of :func:`joint_first_last`."""
    return params.p_f / params.J, 1 - _frac(params.H, params.J, params) * params.p_f


def conditional_joint(params: CrowdsParams) -> dict:
    """The full (initiator, last honest) conditional joint as a dict."""
    forward_share, direct = _joint_terms(params)
    same = forward_share + direct
    joint = {}
    for i in params.honest:
        weight = params.init[i]
        off, on = weight * forward_share, weight * same
        for l in params.honest:
            joint[(i, l)] = on if i == l else off
    return joint


def prob_first_eq_last(params: CrowdsParams):
    """Closed-form probability that the initiator itself contacted the collaborator."""
    return 1 - _frac(params.H - 1, params.J, params) * params.p_f


@dataclass(frozen=True)
class ProbableInnocence:
    """Verdict of the probable-innocence criterion.

    ``holds`` certifies that, seen from the collaborators, the initiator
    is no more likely than not to be the jondo that contacted them
    (conditional probability at most 1/2). The forwarding probability
    must reach ``threshold`` = J / (2 (H - 1)); with a single honest
    jondo the threshold is infinite and the criterion can never hold.
    """

    holds: bool
    threshold: object


def probable_innocence(params: CrowdsParams) -> ProbableInnocence:
    if params.H <= 1:
        return ProbableInnocence(False, math.inf)
    threshold = _frac(params.J, 2 * (params.H - 1), params)
    return ProbableInnocence(params.p_f >= threshold, threshold)


def mi_bound(params: CrowdsParams) -> float:
    """Upper bound, in bits, on the collaborators' information gain."""
    return float(prob_first_eq_last(params)) * math.log2(params.H)


def mi_exact(params: CrowdsParams) -> float:
    """Mutual information, in bits, between initiator and observed contact.

    Computed on the conditional joint given that a collaborator was hit;
    the closed-form joint keeps this exact until the final logarithms.
    """
    return info.mutual_information(conditional_joint(params))


def last_jondo_distribution(model: CrowdsModel) -> analysis.Distribution:
    """Exact law of the jondo that contacts the server, from the solver.

    Reads the (predecessor, ``End``) entry law off the chain and maps the
    predecessor Mix states to their jondos. By the symmetry of the mixing
    rows this is uniform ``1/J``.
    """
    edge = analysis.entry_edge_distribution(model.chain, {END}, START)
    mass = {}
    for (pred, _), m in edge.mass.items():
        j = model.jondo_of(pred)
        mass[j] = mass.get(j, model.chain.zero) + m
    return analysis.Distribution(mass, edge.never)


def solver_hit_prob(model: CrowdsModel):
    """Collaborator-hit probability recomputed by the generic solver."""
    chain = model.chain
    return analysis.until_probability(
        chain, chain.states, model.collaborator_mix_labels(), START
    )


def _initiator_joint(model: CrowdsModel, target, lasts) -> dict:
    """Unconditional joint of (initiator, jondo of the state entering ``target``).

    Weights each honest initiator's entry law into ``target``, keyed by the
    jondo of the state it enters from, by its initiation probability; keys
    run over ``honest x lasts``. One solve covers every initiator with
    positive weight: one right-hand-side column per jondo left when those
    are no more than the initiators, else one per initiator
    (:func:`analysis._entry_masses`), keyed by a list lookup. The joint is
    built in one pass: each cell holds one product, or the zero of the
    chain's arithmetic; no cell is a sum. Where the cells are totalled
    (``chain._total`` and ``info``), exact ones are added as integers over
    one denominator.
    """
    params = model.params
    chain = model.chain
    zero = chain.zero
    starts = {
        i: chain.index_of(init_label(i)) for i in params.honest if params.init[i] > 0
    }
    jondos = list(map(model.jondo_of, chain.states))
    masses = analysis._entry_masses(
        chain, chain.index_set(target), list(starts.values()), lambda u, v: jondos[u]
    )
    joint = {}
    for i in params.honest:
        law = masses[starts[i]] if i in starts else {}
        weight = params.init[i]
        for l in lasts:
            m = law.get(l)
            joint[(i, l)] = zero if m is None else weight * m
    return joint


def _hit_and_conditional_joint(model: CrowdsModel) -> tuple:
    """``(hit, joint)``: the collaborator-hit probability and the (initiator, last honest) joint given a hit.

    The joint with the hit event comes from the entry laws into the
    collaborator Mix states (:func:`_initiator_joint`). Over one
    denominator (``Arithmetic.split``), its numerators' sum is the hit
    probability, and each numerator over that sum is a cell of the
    conditional joint: in exact arithmetic one integer pair per cell, not a
    ``Fraction`` division by ``hit``.
    """
    arith = model.chain.arith
    numerator = _initiator_joint(model, model.collaborator_mix_labels(), model.params.honest)
    nums, den = arith.split(numerator.values())
    total = _sum(nums, 0)  # > 0: some jondo is a collaborator
    return arith.frac(total, den), dict(zip(numerator, map(arith.frac, nums, repeat(total))))


def solver_joint_first_last(model: CrowdsModel) -> dict:
    """The (initiator, last honest) conditional joint from the solver.

    For each initiator the entry-edge law into the collaborator Mix states
    gives the joint with the hit event; conditioning on the total hit
    probability reproduces the closed form exactly in exact mode.
    """
    return _hit_and_conditional_joint(model)[1]


def first_last_jondo_joint(model: CrowdsModel) -> dict:
    """Exact unconditional joint of (initiator, server-contacting jondo).

    Unlike the collaborator-conditioned joint this one factorizes into its
    marginals: which jondo ends up contacting the server carries no
    information about who initiated the route.
    """
    return _initiator_joint(model, {END}, model.params.jondos)


def is_product_joint(joint: dict) -> bool:
    """Check that a joint equals the product of its marginals.

    Exact comparison on rational masses, in integers over one denominator;
    float masses compare with a 1e-12 absolute tolerance, a thousandth of
    the row-sum tolerance (``info._marginals_and_product``).
    """
    return info._marginals_and_product(joint)[2]


def _triples(cells) -> dict:
    """``{name: _triple(closed, solver)}`` for ``(name, closed, solver)`` cells.

    The H^2 cells of a joint hold few distinct values, so each distinct
    pair with a float in it is formatted once and each cell gets its own
    copy. The memo keys on type and value, which keeps apart values that
    compare equal but print differently (``1``, ``1.0`` and
    ``Fraction(1)``); a pair with a zero skips it, since ``0.0 == -0.0``.
    Every other cell goes straight to :func:`_triple`: an exact cell's
    equal values are compared there before anything is formatted, which
    costs less than hashing two ``Fraction``s for the memo.
    """
    formatted = {}
    triples = {}
    for name, closed, solver in cells:
        floats = type(closed) is float or type(solver) is float
        if not (floats and closed and solver):
            triples[name] = _triple(closed, solver)
            continue
        key = (type(closed), closed, type(solver), solver)
        triple = formatted.get(key)
        if triple is None:
            triple = formatted[key] = _triple(closed, solver)
        triples[name] = dict(triple)
    return triples


def path_shape_error(model: CrowdsModel, states) -> str | None:
    """Check a sampled path against the route shape; None when it conforms.

    A conforming path is ``Start``, one ``Init`` state of an honest jondo,
    a run of ``Mix`` states, and once ``End`` appears, ``End`` forever
    (the tail may be cut off by the sampling horizon). A label that is no
    state of the model breaks the shape.
    """
    if not states or states[0] != START:
        return f"path must begin at {START}, got {states[:1]}"
    if len(states) == 1:
        return None
    if model.kind(states[1]) != "init":  # the chain has Init states for honest jondos only
        return f"second state must be an honest Init state, got {states[1]!r}"
    ended = False
    for label in states[2:]:
        kind = model.kind(label)
        if ended and kind != "end":
            return f"{label!r} follows End"
        if kind == "end":
            ended = True
        elif kind != "mix":
            return f"unexpected {label!r} in the mixing phase"
    return None


def crowds_report(
    params: CrowdsParams, mode: str = EXACT, sim: SimConfig | None = None
) -> dict:
    """Closed forms, solver cross-checks, anonymity verdicts, optional MC block.

    Solver values come from two entry-law solves. The joint of (initiator,
    last honest jondo) at the first collaborator gives the hit probability
    as its total and the conditional joint as its share of that total;
    :func:`first_last_jondo_joint` gives the last-jondo law as its second
    marginal, and the independence verdict.
    """
    model = build_crowds(params, mode)
    params, chain = model.params, model.chain

    hit_closed = prob_hit_colls(params)
    hit_solver, joint_solver = _hit_and_conditional_joint(model)
    joint_closed = conditional_joint(params)
    diag_closed = prob_first_eq_last(params)
    diag_solver = _total([joint_solver[(i, i)] for i in params.honest], chain.arith)
    contact_joint = first_last_jondo_joint(model)
    _, last_mass, independent = info._marginals_and_product(contact_joint)
    uniform = _frac(1, params.J, params)
    innocence = probable_innocence(params)

    report = {
        "model": "crowds",
        "mode": mode,
        "params": {
            "jondos": list(params.jondos),
            "colls": sorted(params.colls),
            "p_f": format_scalar(params.p_f),
            "init": {j: format_scalar(v) for j, v in params.init.items()},
        },
        "J": params.J,
        "H": params.H,
        "hit_collaborator": _triple(hit_closed, hit_solver),
        "first_equals_last": _triple(diag_closed, diag_solver),
        "joint_first_last": _triples(
            (f"{i}|{l}", joint_closed[(i, l)], joint_solver[(i, l)])
            for i in params.honest
            for l in params.honest
        ),
        "probable_innocence": {
            "holds": innocence.holds,
            "threshold": format_scalar(innocence.threshold),
        },
        "mutual_information_bits": {
            "exact": info.mutual_information(joint_closed),
            "bound": mi_bound(params),
        },
        "last_jondo": {
            "expected_uniform": format_scalar(uniform),
            "solver": {j: format_scalar(m) for j, m in sorted(last_mass.items())},
            "never": format_scalar(analysis._residual(last_mass.values(), chain.one)),
            "max_difference": format_scalar(
                max((abs(m - uniform) for m in last_mass.values()), default=0)
            ),
        },
        "independence_first_last_jondo": independent,
        "ae_route_terminates": analysis.certify_ae_until(
            chain, chain.states, {END}, START
        ),
    }

    if sim is not None:
        from .simulate import estimate_joint_first_last

        counts = estimate_joint_first_last(model, sim)
        cells = {}
        for i in params.honest:
            for l in params.honest:
                observed = counts.counts.get((i, l), 0)
                cells[f"{i}|{l}"] = {
                    "count": observed,
                    "fraction": observed / counts.hits if counts.hits else None,
                    "exact": float(joint_closed[(i, l)]),
                }
        report["simulation"] = {
            **asdict(sim),
            "collaborator_hits": counts.hits,
            "censored": counts.censored,
            "hit_fraction": counts.hits / (sim.samples - counts.censored)
            if sim.samples > counts.censored
            else None,
            "joint_first_last": cells,
        }
    return report

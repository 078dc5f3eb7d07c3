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
solver on the built chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import analysis, info
from .chain import (
    EXACT, MarkovChain, _coerce_param, _sums_to_one, _triple, _with_mode, format_scalar,
    validate_chain,
)
from .errors import InvalidParamsError, NotHonestJondoError
from .simulate import SimConfig, estimate_joint_first_last

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
            raise InvalidParamsError(f"need 0 < p_f < 1, got p_f={self.p_f}")

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
        total = sum(init.values())
        if not _sums_to_one(total):
            raise InvalidParamsError(f"init sums to {total}, expected 1")
        init = {j: init.get(j, 0) for j in honest}
        object.__setattr__(self, "init", MappingProxyType(init))

    @property
    def honest(self) -> tuple[str, ...]:
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

    def jondo_of(self, label: str):
        """Jondo referenced by an ``Init``/``Mix`` state; None otherwise."""
        for prefix in ("Init ", "Mix "):
            if label.startswith(prefix):
                return label[len(prefix):]
        return None

    def kind(self, label: str) -> str:
        if label == START:
            return "start"
        if label == END:
            return "end"
        return "init" if label.startswith("Init ") else "mix"

    def collaborator_mix_labels(self) -> set[str]:
        return {mix_label(c) for c in self.params.colls}


def build_crowds(params: CrowdsParams, mode: str = EXACT) -> CrowdsModel:
    """Build and validate the route-establishment chain."""
    params = _with_mode(params, mode)
    one = Fraction(1) if mode == EXACT else 1.0
    uniform = one / params.J
    p_f = params.p_f

    states = (
        [START]
        + [init_label(j) for j in params.honest]
        + [mix_label(j) for j in params.jondos]
        + [END]
    )
    trans = {(END, END): one}
    for j, weight in params.init.items():
        if weight > 0:
            trans[(START, init_label(j))] = weight
    for i in params.honest:
        for j in params.jondos:
            trans[(init_label(i), mix_label(j))] = uniform
    for i in params.jondos:
        for j in params.jondos:
            trans[(mix_label(i), mix_label(j))] = p_f * uniform
        trans[(mix_label(i), END)] = one - p_f

    return CrowdsModel(params, validate_chain(states, trans, mode))


def _frac(num: int, den: int, params: CrowdsParams):
    """``num / den`` in the params' arithmetic mode."""
    if isinstance(params.p_f, float):
        return num / den
    return Fraction(num, den)


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
        if j not in params.honest:
            raise NotHonestJondoError(j)
    forward_share = params.p_f / params.J
    direct = 1 - _frac(params.H, params.J, params) * params.p_f
    return params.init[i] * (forward_share + (direct if i == l else 0))


def conditional_joint(params: CrowdsParams) -> dict:
    """The full (initiator, last honest) conditional joint as a dict."""
    return {
        (i, l): joint_first_last(params, i, l)
        for i in params.honest
        for l in params.honest
    }


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
    threshold = Fraction(params.J, 2 * (params.H - 1))
    if isinstance(params.p_f, float):
        threshold = float(threshold)
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
    positive weight, with one right-hand-side column per entering jondo.
    """
    params = model.params
    chain = model.chain
    starts = {
        chain.index_of(init_label(i)): i for i in params.honest if params.init[i] > 0
    }
    masses = analysis._entry_masses(
        chain, chain.index_set(target), list(starts),
        lambda u, v: model.jondo_of(chain.states[u]),
    )
    joint = {(i, l): chain.zero for i in params.honest for l in lasts}
    for s, i in starts.items():
        for l, m in masses[s].items():
            joint[(i, l)] += params.init[i] * m
    return joint


def solver_joint_first_last(model: CrowdsModel) -> dict:
    """The (initiator, last honest) conditional joint from the solver.

    For each initiator the entry-edge law into the collaborator Mix states
    gives the joint with the hit event; conditioning on the total hit
    probability reproduces the closed form exactly in exact mode.
    """
    numerator = _initiator_joint(
        model, model.collaborator_mix_labels(), model.params.honest
    )
    hit = sum(numerator.values(), model.chain.zero)  # > 0: some jondo is a collaborator
    return {pair: v / hit for pair, v in numerator.items()}


def first_last_jondo_joint(model: CrowdsModel) -> dict:
    """Exact unconditional joint of (initiator, server-contacting jondo).

    Unlike the collaborator-conditioned joint this one factorizes into its
    marginals: which jondo ends up contacting the server carries no
    information about who initiated the route.
    """
    return _initiator_joint(model, {END}, model.params.jondos)


def is_product_joint(joint: dict) -> bool:
    """Check that a joint equals the product of its marginals.

    Exact comparison on rational masses; float masses compare with a 1e-12
    absolute tolerance.
    """
    px: dict = {}
    py: dict = {}
    total = 0
    for (x, y), v in joint.items():
        px[x] = px.get(x, 0) + v
        py[y] = py.get(y, 0) + v
        total += v
    if any(isinstance(v, float) for v in joint.values()):
        return all(
            abs(v * total - px[x] * py[y]) <= 1e-12 for (x, y), v in joint.items()
        )
    return all(v * total == px[x] * py[y] for (x, y), v in joint.items())


def path_shape_error(model: CrowdsModel, states) -> str | None:
    """Check a sampled path against the route shape; None when it conforms.

    A conforming path is ``Start``, one ``Init`` state of an honest jondo,
    a run of ``Mix`` states, and once ``End`` appears, ``End`` forever
    (the tail may be cut off by the sampling horizon).
    """
    if not states or states[0] != START:
        return f"path must begin at {START}, got {states[:1]}"
    if len(states) == 1:
        return None
    if model.kind(states[1]) != "init" or model.jondo_of(states[1]) in model.params.colls:
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
    """Closed forms, solver cross-checks, anonymity verdicts, optional MC block."""
    params = _with_mode(params, mode)
    model = build_crowds(params, mode)
    chain = model.chain

    hit_closed = prob_hit_colls(params)
    hit_solver = solver_hit_prob(model)
    joint_closed = conditional_joint(params)
    joint_solver = solver_joint_first_last(model)
    diag_closed = prob_first_eq_last(params)
    diag_solver = sum(
        (joint_solver[(i, i)] for i in params.honest), chain.zero
    )
    last_law = last_jondo_distribution(model)
    uniform = Fraction(1, params.J) if mode == EXACT else 1.0 / params.J
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
        "joint_first_last": {
            f"{i}|{l}": _triple(joint_closed[(i, l)], joint_solver[(i, l)])
            for i in params.honest
            for l in params.honest
        },
        "probable_innocence": {
            "holds": innocence.holds,
            "threshold": format_scalar(innocence.threshold),
        },
        "mutual_information_bits": {
            "exact": mi_exact(params),
            "bound": mi_bound(params),
        },
        "last_jondo": {
            "expected_uniform": format_scalar(uniform),
            "solver": {j: format_scalar(m) for j, m in sorted(last_law.mass.items())},
            "never": format_scalar(last_law.never),
            "max_difference": format_scalar(
                max((abs(m - uniform) for m in last_law.mass.values()), default=0)
            ),
        },
        "independence_first_last_jondo": is_product_joint(first_last_jondo_joint(model)),
        "ae_route_terminates": analysis.certify_ae_until(
            chain, chain.states, {END}, START
        ),
    }

    if sim is not None:
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
            "seed": sim.seed,
            "samples": sim.samples,
            "max_steps": sim.max_steps,
            "collaborator_hits": counts.hits,
            "censored": counts.censored,
            "hit_fraction": counts.hits / (sim.samples - counts.censored)
            if sim.samples > counts.censored
            else None,
            "joint_first_last": cells,
        }
    return report

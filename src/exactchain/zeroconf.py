"""Parametric model of ZeroConf link-local address allocation.

A host picks a random IPv4 link-local address (65024 candidates) and sends
``N + 1`` ARP probes to detect a collision. With probability ``q`` the
address is already taken; each probe or its response is lost with
probability ``p``. Losing all probes on a taken address ends in ``Error``
(a double allocation, repaired at cost ``E``); a response sends the host
back to picking a new address. Each probe round costs ``r`` seconds.

The module builds the finite Markov reward chain of this process and
evaluates its closed-form error probability and expected running cost,
both cross-checkable against the generic exact solver. The builder shares
one value object per distinct probability among the probe rows, and the
per-probe error probabilities have one body for both modes, on the
numerators of ``p`` and of the error probability (``Arithmetic.split``).
They come as unreduced split pairs ``(num, den)``: the report compares an
exact pair with the solver's value by cross-multiplying, and reduces a
pair to one value only where it prints it as differing from the solver's.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import analysis
from .chain import (
    EXACT, RewardChain, _coerce_param, _triple, _with_mode, arithmetic_of, format_scalar,
    validate_chain, validate_reward,
)
from .errors import InvalidParamsError, _full_str

if TYPE_CHECKING:  # sampling is imported only when a report asks for it
    from .simulate import SimConfig

START = "Start"
OK = "Ok"
ERROR = "Error"

#: Link-local pool size: addresses 169.254.1.0 through 169.254.254.255.
ADDRESS_POOL = 65024


def probe_label(n: int) -> str:
    return f"Probe {n}"


def hosts_to_q(hosts: int) -> Fraction:
    """Collision probability when ``hosts`` addresses are already taken."""
    return Fraction(hosts, ADDRESS_POOL)


@dataclass(frozen=True)
class ZeroconfParams:
    """Protocol parameters: probes are numbered ``0 .. N`` (``N + 1`` total).

    ``p`` is the probe/response loss probability, ``q`` the probability of
    picking a taken address, ``r`` the duration of one probe round in
    seconds, ``E`` the penalty for a double allocation in seconds.
    """

    N: int
    p: object
    q: object
    r: object
    E: object

    def __post_init__(self):
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 0:
            raise InvalidParamsError(f"N must be a natural number, got {self.N!r}")
        for name in ("p", "q", "r", "E"):
            object.__setattr__(self, name, _coerce_param(getattr(self, name), name))
        if not 0 < self.p < 1:
            raise InvalidParamsError(f"need 0 < p < 1, got p={_full_str(self.p)}")
        if not 0 < self.q < 1:
            raise InvalidParamsError(f"need 0 < q < 1, got q={_full_str(self.q)}")
        if self.r < 0:
            raise InvalidParamsError(f"need r >= 0, got r={_full_str(self.r)}")
        if self.E < 0:
            raise InvalidParamsError(f"need E >= 0, got E={_full_str(self.E)}")


#: 16 hosts on the network, 3 probe rounds, 1% packet loss, 2 ms round
#: trips, one hour repair penalty.
PAPER_TYPICAL = ZeroconfParams(
    N=2, p=Fraction(1, 100), q=hosts_to_q(16), r=Fraction(1, 500), E=3600
)

#: Commonly quoted error-probability bound for the typical parameters;
#: exact evaluation shows it does not hold (see the report's bound audit).
CLAIMED_ERROR_BOUND = Fraction(1, 10**13)


def state_labels(params: ZeroconfParams) -> list[str]:
    """All states, enumerated as the three named states plus each probe."""
    return [START, OK, ERROR] + [probe_label(n) for n in range(params.N + 1)]


def build_zeroconf(params: ZeroconfParams, mode: str = EXACT) -> RewardChain:
    """Build the validated allocation chain with its cost matrix."""
    return _build(_with_mode(params, mode), mode)


def _build(params: ZeroconfParams, mode: str) -> RewardChain:
    """:func:`build_zeroconf` of a record whose numbers are in ``mode``'s arithmetic already."""
    n, p, q, r, e = params.N, params.p, params.q, params.r, params.E
    states = state_labels(params)
    probes = states[3:]  # Probe 0 .. Probe N

    trans = {
        (START, probes[0]): q,
        (START, OK): 1 - q,
        (OK, OK): 1,
        (ERROR, ERROR): 1,
    }
    cost = {
        (START, probes[0]): r,
        (START, OK): r * (n + 1),
    }
    answered = 1 - p  # one object for every probe row, so a solve negates it once
    for probe, nxt in zip(probes, [*probes[1:], ERROR]):
        trans[(probe, nxt)] = p
        trans[(probe, START)] = answered
        cost[(probe, nxt)] = r
    cost[(probes[-1], ERROR)] = e

    chain = validate_chain(states, trans, mode)
    return validate_reward(chain, cost)


def p_err_closed(params: ZeroconfParams):
    """Closed-form probability of ending in ``Error`` from ``Start``."""
    p, q = params.p, params.q
    pn1 = p ** (params.N + 1)
    return (q * pn1) / (1 - q * (1 - pn1))


def p_err_probe_closed(params: ZeroconfParams, n: int):
    """Closed-form error probability from ``Probe n``.

    An error needs the remaining ``N - n + 1`` probes to be lost in a row,
    or a response followed by an erroneous restart. ``n`` is any integer
    that ``operator.index`` takes, a bool excepted; anything else, like an
    index outside ``0..N``, raises ``ValueError``.
    """
    try:
        k = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        k = None
    if k is None or not 0 <= k <= params.N:
        raise ValueError(f"probe index must lie in 0..{params.N}, got {n!r}")
    p_err = p_err_closed(params)
    return arithmetic_of(p_err).frac(*next(_p_err_probes(params, p_err, [k])))


def _p_err_probes(params: ZeroconfParams, p_err, probes):
    """The split pair ``(num, den)`` of :func:`p_err_probe_closed` for each of ``probes``.

    ``p_err`` is ``p_err_closed(params)``. The form is
    ``tail + (1 - tail) * p_err`` with ``tail = p**k`` and
    ``k = N - n + 1``, written on split numerators: with ``([a], b)`` the
    split of ``p``, ``([e], d)`` that of ``p_err`` and ``t = a**k``, it is
    ``(t*d + (bk - t)*e, bk*d)`` with ``bk = b**k``, and the value is its
    ``frac``. Exact pairs are unreduced integers, which the report
    cross-multiplies with the solver's value. Float pairs are a float over
    the int ``1``, and every operation with that ``1`` is exact, so the
    float form rounds where the plain one does, in the same order, and its
    bits are the same.
    """
    arith = arithmetic_of(p_err)
    ([a], b), ([e], d) = arith.split([params.p]), arith.split([p_err])
    last = params.N + 1
    for n in probes:
        t, bk = a ** (last - n), b ** (last - n)
        yield t * d + (bk - t) * e, bk * d


def _probe_triple(num, den, solver, frac):
    """``_triple(frac(num, den), solver)``, with an exact match found on integers.

    A plain ``Fraction`` solver value equal to ``num / den`` (``den > 0``)
    is found by cross-multiplying, so the closed form is not reduced only
    to print the solver's value; ``_triple`` then prints that value once
    with a difference of ``"0"``. Any other pair is reduced and subtracted.
    """
    if type(solver) is Fraction and num * solver.denominator == solver.numerator * den:
        return _triple(solver, solver)
    return _triple(frac(num, den), solver)


def expected_cost_closed(params: ZeroconfParams):
    """Closed-form expected running cost until ``Ok`` or ``Error``.

    Solving the absorption equations of the chain gives

        (q*(r + p^(N+1)*E + r*p*(1 - p^N)/(1 - p)) + (1-q)*r*(N+1))
        / (1 - q*(1 - p^(N+1)))

    which the exact solver validates term for term.
    """
    n, p, q, r, e = params.N, params.p, params.q, params.r, params.E
    pn1 = p ** (n + 1)
    restart_rounds = q * (r + pn1 * e + r * p * (1 - p**n) / (1 - p))
    direct = (1 - q) * r * (n + 1)
    return (restart_rounds + direct) / (1 - q * (1 - pn1))


def zeroconf_report(
    params: ZeroconfParams, mode: str = EXACT, sim: SimConfig | None = None
) -> dict:
    """Closed forms, solver values, their differences, certification verdicts.

    In exact mode every ``difference`` field is exactly ``0``. The bound
    audit compares the exact error probability against the commonly quoted
    ``1/10**13`` and flags the comparison instead of failing. With ``sim``
    given, seeded Monte Carlo estimates are attached.
    """
    params = _with_mode(params, mode)
    rchain = _build(params, mode)
    chain = rchain.chain
    states = chain.states
    probes = states[3:]  # Probe 0 .. Probe N, as state_labels lists them
    goal = {OK, ERROR}

    p_err = analysis.until_probabilities(chain, states, {ERROR})
    cost_solver = analysis.expected_cost_until(rchain, goal, START)
    p_err_value = p_err_closed(params)
    frac = arithmetic_of(p_err_value).frac
    goal_idx = chain.index_set(goal)
    ae = analysis._prob01(chain, set(range(len(states))) - goal_idx, goal_idx)[1]

    report = {
        "model": "zeroconf",
        "mode": mode,
        "params": {
            "N": params.N,
            "p": format_scalar(params.p),
            "q": format_scalar(params.q),
            "r": format_scalar(params.r),
            "E": format_scalar(params.E),
        },
        "states": list(states),
        "p_err_start": _triple(p_err_value, p_err[START]),
        "p_err_probe": {
            probe: _probe_triple(num, den, p_err[probe], frac)
            for probe, (num, den) in zip(probes, _p_err_probes(params, p_err_value, range(len(probes))))
        },
        "expected_cost": _triple(expected_cost_closed(params), cost_solver),
        "ae_termination": {s: i in ae for i, s in enumerate(states)},
        "bound_audit": {
            "claimed_error_bound": format_scalar(CLAIMED_ERROR_BOUND),
            "exact_p_err": format_scalar(p_err_value),
            "p_err_float": float(p_err_value),
            "within_claimed_bound": bool(p_err_value <= CLAIMED_ERROR_BOUND),
        },
    }

    if sim is not None:
        from .simulate import estimate_cost, estimate_until

        est_err = estimate_until(chain, states, {ERROR}, START, sim)
        est_cost = estimate_cost(rchain, goal, START, sim)
        report["simulation"] = {
            **asdict(sim),
            "p_err_start": {
                "provenance": "simulation",
                "mean": est_err.mean,
                "std_error": est_err.std_error,
                "censored": est_err.censored,
                "exact": float(p_err[START]),
            },
            "expected_cost": {
                "provenance": "simulation",
                "mean": est_cost.mean,
                "std_error": est_cost.std_error,
                "censored": est_cost.censored,
                "exact": float(cost_solver),
            },
        }
    return report

"""Seeded Monte Carlo path sampling; the statistical oracle for exact results.

Randomness comes from a self-contained splitmix64 generator (64-bit
additive state walk plus a shift/multiply output mix), so identical seeds
give identical samples on every platform. Per-path streams are derived by
the generator's O(1) jump: path ``i`` starts ``i * 2**20`` steps into the
seed's state sequence and therefore owns a disjoint block of ``2**20``
draws (a path draws at most ``max_steps - 1`` times, and :class:`SimConfig`
and :func:`sample_path` reject ``max_steps > 2**20 + 1``).

Sampling always runs in 64-bit floats, also for exact-mode chains: each
chain converts its rows once, on first use, into one flat per-edge table
that it keeps, and successors are drawn by inverse CDF over the
index-sorted row. :class:`PathRng` and :func:`sample_path` are the scalar
reference; the estimators walk paths in blocks that replay exactly their
per-path streams and successors. Exactness lives in the analysis module;
the simulator only corroborates it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .chain import FLOAT, MarkovChain, RewardChain, _coerce
from .errors import InvalidParamsError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT = 2.0 ** -53

#: Draws reserved per path; streams for consecutive path indices are
#: disjoint as long as one path consumes at most this many draws.
PATH_STREAM_STRIDE = 1 << 20

DEFAULT_MAX_STEPS = 10_000

#: Paths the estimators walk together; bounds the walker's working arrays.
_BLOCK = 4096


def _jump(seed: int, steps: int) -> int:
    """State of the splitmix64 walk ``steps`` draws after ``seed``."""
    return (seed + steps * _GAMMA) & _MASK64


class PathRng:
    """Splitmix64 stream for one sampled path, derived from (seed, path index)."""

    __slots__ = ("seed", "path_index", "_state")

    def __init__(self, seed: int, path_index: int = 0):
        self.seed = seed & _MASK64
        self.path_index = path_index
        self._state = _jump(self.seed, path_index * PATH_STREAM_STRIDE)

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform draw in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * _UNIT


@dataclass(frozen=True)
class SimConfig:
    seed: int
    samples: int
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidParamsError(f"samples must be >= 1, got {self.samples}")
        if not 1 <= self.max_steps <= PATH_STREAM_STRIDE + 1:
            # A longer path would draw into the next path's stream.
            raise InvalidParamsError(
                f"max_steps must be in 1..{PATH_STREAM_STRIDE + 1}, got {self.max_steps}"
            )


@dataclass(frozen=True)
class Estimate:
    """Point estimate over the decided samples; censored paths are excluded.

    ``censored`` counts paths that hit the step horizon undecided. They are
    reported, never silently dropped.
    """

    mean: float
    std_error: float
    samples_used: int
    censored: int


@dataclass(frozen=True)
class PathSample:
    """One realized finite path plus the stream that produced it."""

    states: tuple[str, ...]
    seed: int
    path_index: int


@dataclass(frozen=True)
class JointCounts:
    """Empirical (initiator, last honest predecessor) counts on collaborator hits.

    ``hits`` is the number of decided paths in which a collaborator joined
    the mixing phase; ``counts`` is empty (and the estimate unusable) when
    no sampled path hit a collaborator.
    """

    counts: dict = field(default_factory=dict)
    hits: int = 0
    samples_used: int = 0
    censored: int = 0

    def cell_fraction(self, first: str, last: str) -> float:
        if self.hits == 0:
            raise ZeroDivisionError("no collaborator-hitting samples")
        return self.counts.get((first, last), 0) / self.hits


def sample_path(
    chain: MarkovChain,
    start: str,
    rng: PathRng,
    stop=None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> PathSample:
    """Sample one path of at most ``max_steps`` states, beginning at ``start``.

    ``stop`` is an optional predicate on state labels checked at every
    state including the start; sampling ends at the first state satisfying
    it, otherwise at the horizon. One uniform draw is consumed per
    transition taken, so ``max_steps`` above ``PATH_STREAM_STRIDE + 1``
    raises :class:`InvalidParamsError`: the path would draw from the next
    path's stream.
    """
    if max_steps > PATH_STREAM_STRIDE + 1:
        raise InvalidParamsError(
            f"max_steps must be at most {PATH_STREAM_STRIDE + 1}, got {max_steps}"
        )
    ptr, succ, cum = chain._cdf_table()
    states = chain.states
    i = chain.index_of(start)
    seq = [states[i]]
    while len(seq) < max_steps and not (stop is not None and stop(states[i])):
        i = succ[bisect_right(cum, rng.next_unit(), ptr[i], ptr[i + 1])]
        seq.append(states[i])
    return PathSample(tuple(seq), rng.seed, rng.path_index)


def _walks(chain: MarkovChain, start: str, cfg: SimConfig, stop, cost=None):
    """Walk paths ``0 .. cfg.samples - 1`` from ``start``, ``_BLOCK`` at a time.

    Path ``k`` replays ``sample_path`` on ``PathRng(cfg.seed, k)`` with the
    index set ``stop`` and ``cfg.max_steps``, on the same flat table: the
    successor is ``bisect_right`` of ``u`` in its row, found by log2(width)
    halvings (``width``: the widest row rounded up to a power of two) whose
    probes past the row's end read its last entry, 1.0 > u, like ``+inf``.

    Yields per block, in path order: end states, states entered by the
    first step and left by the last (the start if no step was taken), and
    transition costs under the reward chain ``cost`` summed in step order.
    A cost that overflows a float raises :class:`InvalidParamsError`; a sum
    that overflows is left at ``inf``.
    """
    ptr, succ, cum = chain._cdf_table()
    n = len(chain.states)
    price = []
    for i in range(n if cost is not None else 0):
        costs = cost.cost_row_by_index(i)
        for j in succ[ptr[i] : ptr[i + 1]]:
            price.append(_coerce(costs.get(j, 0), FLOAT))
            if price[-1] is None:
                edge = f"{chain.states[i]!r} -> {chain.states[j]!r}"
                raise InvalidParamsError(f"cost {edge} overflows a float")
    price = np.array(price)
    ptr, cum, succ = np.array(ptr), np.array(cum), np.array(succ, dtype=np.intp)
    width = 1 << (max(np.diff(ptr).tolist()) - 1).bit_length()
    stopped = np.zeros(n, dtype=bool)
    stopped[list(stop)] = True
    s0 = chain.index_of(start)

    for lo in range(0, cfg.samples, _BLOCK):
        paths = np.arange(lo, min(lo + _BLOCK, cfg.samples), dtype=np.uint64)
        rng = _jump(cfg.seed & _MASK64, paths * PATH_STREAM_STRIDE)
        end = np.full(paths.size, s0, dtype=np.intp)
        first, last, acc = end.copy(), end.copy(), np.zeros(paths.size)
        live = np.arange(paths.size)
        for steps in range(1, cfg.max_steps):
            live = live[~stopped[end[live]]]
            if not live.size:
                break
            z = rng[live] + _GAMMA
            rng[live] = z
            z = (z ^ (z >> 30)) * _MIX1
            z = (z ^ (z >> 27)) * _MIX2
            u = ((z ^ (z >> 31)) >> 11) * _UNIT
            i = end[live]
            pos, row_last, half = ptr[i], ptr[i + 1] - 1, width
            while half := half >> 1:
                pos += half * (cum[np.minimum(pos + half - 1, row_last)] <= u)
            end[live] = succ[pos]
            last[live] = i
            if steps == 1:
                first[live] = end[live]
            if cost is not None:
                with np.errstate(over="ignore"):  # estimate_cost rejects an inf total
                    acc[live] += price[pos]
        yield end, first, last, acc


def estimate_until(chain: MarkovChain, phi, psi, start: str, cfg: SimConfig) -> Estimate:
    """Monte Carlo estimate of the until probability from ``start``.

    Each path is walked with the prepended-start convention: a state in
    ``psi`` decides it as a hit, a state from which the event can no
    longer happen (outside ``phi``, or with no remaining route to ``psi``)
    decides it as a miss. Paths undecided after ``max_steps`` states are
    censored and excluded from the point estimate.
    """
    phi_idx = chain.index_set(phi)
    psi_idx = chain.index_set(psi)
    stop = psi_idx | analysis._prob01(chain, phi_idx - psi_idx, psi_idx)[0]
    hits = decided = 0
    for end, _, _, _ in _walks(chain, start, cfg, stop):
        hits += int(np.isin(end, list(psi_idx)).sum())
        decided += int(np.isin(end, list(stop)).sum())

    censored = cfg.samples - decided
    if decided == 0:
        return Estimate(0.0, 0.0, cfg.samples, censored)
    p = hits / decided
    return Estimate(p, (p * (1.0 - p) / decided) ** 0.5, cfg.samples, censored)


def estimate_cost(rchain: RewardChain, phi, start: str, cfg: SimConfig) -> Estimate:
    """Monte Carlo estimate of the expected cost accumulated until ``phi``.

    Non-hitting paths carry an infinite cost by definition, so they never
    enter the mean: ``censored`` counts the paths that hit the horizon
    undecided together with those that provably cannot reach ``phi``
    anymore. A mean or standard error that overflows a float raises
    :class:`InvalidParamsError`.
    """
    chain = rchain.chain
    phi_idx = chain.index_set(phi)
    outside = set(range(len(chain.states))) - phi_idx
    stop = phi_idx | analysis._prob01(chain, outside, phi_idx)[0]

    total = total_sq = 0.0
    decided = 0
    for end, _, _, acc in _walks(chain, start, cfg, stop, rchain):
        # Path-index order, as a path-by-path reference sum would add them.
        for c in acc[np.isin(end, list(phi_idx))].tolist():
            decided += 1
            total += c
            total_sq += c * c

    censored = cfg.samples - decided
    if decided == 0:
        return Estimate(0.0, 0.0, cfg.samples, censored)
    mean = total / decided
    # NaN first: max keeps it, so an overflowed sum of squares is not read as 0.
    var = max((total_sq - decided * mean * mean) / (decided - 1), 0.0) if decided > 1 else 0.0
    std_error = (var / decided) ** 0.5
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise InvalidParamsError("the sampled mean cost or its standard error overflows a float")
    return Estimate(mean, std_error, cfg.samples, censored)


def estimate_joint_first_last(model, cfg: SimConfig) -> JointCounts:
    """Empirical joint counts of (initiator, last honest predecessor).

    ``model`` is a built Crowds model. Each path runs until a collaborator
    enters the mixing phase (a hit, recording the initiating jondo and the
    honest jondo that contacted the collaborator), the route completes
    without one (a miss), or the horizon censors it. The initiator is the
    jondo of the state entered by the first step (an ``Init`` state), the
    contact that of the state left by the last step.
    """
    chain = model.chain
    end_idx = chain.index_of(model.END)
    coll_mix = chain.index_set(model.collaborator_mix_labels())
    jondo = [model.jondo_of(label) for label in chain.states]

    counts: dict = {}
    censored = cfg.samples
    for end, first, last, _ in _walks(chain, model.START, cfg, coll_mix | {end_idx}):
        hit = np.isin(end, list(coll_mix))
        censored -= int(hit.sum()) + int((end == end_idx).sum())
        for f, l in zip(first[hit].tolist(), last[hit].tolist()):
            key = (jondo[f], jondo[l])
            counts[key] = counts.get(key, 0) + 1

    return JointCounts(counts, sum(counts.values()), cfg.samples, censored)

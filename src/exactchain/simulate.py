"""Seeded Monte Carlo path sampling; the statistical oracle for exact results.

Randomness comes from a self-contained splitmix64 generator (64-bit
additive state walk plus a shift/multiply output mix), so identical seeds
give identical samples on every platform. Per-path streams are derived by
the generator's O(1) jump: path ``i`` starts ``i * 2**20`` steps into the
seed's state sequence and therefore owns a disjoint block of ``2**20``
draws (paths never draw more than ``max_steps`` times).

Sampling always runs in 64-bit floats, also for exact-mode chains: rows
are converted once and successors are drawn by inverse CDF over the
index-sorted sparse row. Exactness lives in the analysis module; the
simulator only corroborates it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from . import analysis
from .chain import MarkovChain, RewardChain

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT = 2.0 ** -53

#: Draws reserved per path; streams for consecutive path indices are
#: disjoint as long as one path consumes fewer draws than this.
PATH_STREAM_STRIDE = 1 << 20

DEFAULT_MAX_STEPS = 10_000


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
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


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


class ChainSampler:
    """Float row tables of one chain, reusable across many sampled paths."""

    def __init__(self, chain: MarkovChain):
        self.chain = chain
        self.cum = []
        self.succ = []
        for i in range(len(chain.states)):
            row = chain.row_by_index(i)
            succ = tuple(sorted(row))
            acc = 0.0
            cum = []
            for j in succ:
                acc += float(row[j])
                cum.append(acc)
            cum[-1] = 1.0  # guard against float row sums just below 1
            self.cum.append(tuple(cum))
            self.succ.append(succ)

    def step_index(self, i: int, u: float) -> int:
        return self.succ[i][bisect_right(self.cum[i], u)]


def sample_path(
    chain: MarkovChain,
    start: str,
    rng: PathRng,
    stop=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    sampler: ChainSampler | None = None,
) -> PathSample:
    """Sample one path of at most ``max_steps`` states, beginning at ``start``.

    ``stop`` is an optional predicate on state labels checked at every
    state including the start; sampling ends at the first state satisfying
    it, otherwise at the horizon. One uniform draw is consumed per
    transition taken.
    """
    if sampler is None:
        sampler = ChainSampler(chain)
    states = chain.states
    i = chain.index_of(start)
    seq = [states[i]]
    while len(seq) < max_steps and not (stop is not None and stop(states[i])):
        i = sampler.step_index(i, rng.next_unit())
        seq.append(states[i])
    return PathSample(tuple(seq), rng.seed, rng.path_index)


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
    s0 = chain.index_of(start)
    dead = set(range(len(chain.states))) - psi_idx
    dead -= analysis._can_reach_idx(chain, phi_idx - psi_idx, psi_idx)
    sampler = ChainSampler(chain)
    cum, succ = sampler.cum, sampler.succ
    seed = cfg.seed & _MASK64
    horizon = cfg.max_steps

    hits = 0
    censored = 0
    for path in range(cfg.samples):
        state = (seed + path * PATH_STREAM_STRIDE * _GAMMA) & _MASK64
        i = s0
        steps = 1
        while True:
            if i in psi_idx:
                hits += 1
                break
            if i in dead:
                break
            if steps >= horizon:
                censored += 1
                break
            state = (state + _GAMMA) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            u = ((z ^ (z >> 31)) >> 11) * _UNIT
            i = succ[i][bisect_right(cum[i], u)]
            steps += 1

    decided = cfg.samples - censored
    if decided == 0:
        return Estimate(0.0, 0.0, cfg.samples, censored)
    p = hits / decided
    return Estimate(p, (p * (1.0 - p) / decided) ** 0.5, cfg.samples, censored)


def estimate_cost(rchain: RewardChain, phi, start: str, cfg: SimConfig) -> Estimate:
    """Monte Carlo estimate of the expected cost accumulated until ``phi``.

    Non-hitting paths carry an infinite cost by definition, so they never
    enter the mean: ``censored`` counts the paths that hit the horizon
    undecided together with those that provably cannot reach ``phi``
    anymore.
    """
    chain = rchain.chain
    phi_idx = chain.index_set(phi)
    s0 = chain.index_of(start)
    outside = set(range(len(chain.states))) - phi_idx
    dead = outside - analysis._can_reach_idx(chain, outside, phi_idx)
    sampler = ChainSampler(chain)
    cum, succ = sampler.cum, sampler.succ
    cost = [
        {j: float(c) for j, c in rchain.cost_row_by_index(i).items()}
        for i in range(len(chain.states))
    ]
    seed = cfg.seed & _MASK64
    horizon = cfg.max_steps

    total = 0.0
    total_sq = 0.0
    decided = 0
    for path in range(cfg.samples):
        state = (seed + path * PATH_STREAM_STRIDE * _GAMMA) & _MASK64
        i = s0
        acc = 0.0
        steps = 1
        while True:
            if i in phi_idx:
                decided += 1
                total += acc
                total_sq += acc * acc
                break
            if i in dead or steps >= horizon:
                break
            state = (state + _GAMMA) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            u = ((z ^ (z >> 31)) >> 11) * _UNIT
            j = succ[i][bisect_right(cum[i], u)]
            acc += cost[i].get(j, 0.0)
            i = j
            steps += 1

    censored = cfg.samples - decided
    if decided == 0:
        return Estimate(0.0, 0.0, cfg.samples, censored)
    mean = total / decided
    if decided > 1:
        var = max(0.0, (total_sq - decided * mean * mean) / (decided - 1))
        stderr = (var / decided) ** 0.5
    else:
        stderr = 0.0
    return Estimate(mean, stderr, cfg.samples, censored)


def estimate_joint_first_last(model, cfg: SimConfig) -> JointCounts:
    """Empirical joint counts of (initiator, last honest predecessor).

    ``model`` is a built Crowds model. Each path runs until a collaborator
    enters the mixing phase (a hit, recording the initiating jondo and the
    honest jondo that contacted the collaborator), the route completes
    without one (a miss), or the horizon censors it.
    """
    chain = model.chain
    sampler = ChainSampler(chain)
    cum, succ = sampler.cum, sampler.succ
    s0 = chain.index_of(model.START)
    end_idx = chain.index_of(model.END)
    coll_mix = chain.index_set(model.collaborator_mix_labels())
    jondo = [model.jondo_of(label) for label in chain.states]
    seed = cfg.seed & _MASK64
    horizon = cfg.max_steps

    counts: dict = {}
    hits = 0
    censored = 0
    for path in range(cfg.samples):
        state = (seed + path * PATH_STREAM_STRIDE * _GAMMA) & _MASK64
        i = s0
        first = None
        prev_jondo = None
        steps = 1
        while True:
            if i in coll_mix:
                hits += 1
                key = (first, prev_jondo)
                counts[key] = counts.get(key, 0) + 1
                break
            if i == end_idx:
                break
            if steps >= horizon:
                censored += 1
                break
            state = (state + _GAMMA) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            u = ((z ^ (z >> 31)) >> 11) * _UNIT
            if jondo[i] is not None:
                prev_jondo = jondo[i]
            i = succ[i][bisect_right(cum[i], u)]
            if first is None and jondo[i] is not None:
                first = jondo[i]
            steps += 1

    return JointCounts(counts, hits, cfg.samples, censored)

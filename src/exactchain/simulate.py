"""Seeded Monte Carlo path sampling; the statistical oracle for exact results.

Randomness comes from a self-contained splitmix64 generator (64-bit
additive state walk plus a shift/multiply output mix), so identical seeds
give identical samples on every platform. Per-path streams are derived by
the generator's O(1) jump: path ``i`` starts ``i * 2**20`` steps into the
seed's state sequence and therefore owns a disjoint block of ``2**20``
draws (a path draws at most ``max_steps - 1`` times, and :class:`SimConfig`
and :func:`sample_path` reject ``max_steps`` outside ``1..2**20 + 1``).

Successors are drawn by inverse CDF over 64-bit floats, also for
exact-mode chains: each chain converts its rows once, on first use, into
one flat per-edge table of index-sorted successors and running sums that
it keeps. :class:`PathRng` and :func:`sample_path` are the scalar
reference: they take ``bisect_right`` of the float draw ``u`` in the row.
The estimators walk paths in blocks that replay exactly their per-path
streams and successors. They compare the draw's top 53 bits ``k`` with the
sums scaled to integers, ``ceil(cum * 2**53) <= k``, which is exactly the
float test ``cum <= u``; they start each search from a guide table of
equal buckets per row when that saves halvings (:class:`_Successors`); and
each keeps only the per-path state its estimate reads. Path costs add up
left to right in path-index order, so the estimates equal a path-by-path
count bit for bit. The block size bounds the walker's memory, not its
results. The block walker imports numpy when it first runs, so importing
this module does not load it. Exactness lives in the analysis module; the
simulator only corroborates it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from . import analysis
from .chain import FLOAT, MarkovChain, RewardChain, arithmetic
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

#: Paths the estimators walk together. It bounds the walker's working
#: arrays; each step costs a fixed overhead plus a share per path still
#: walking, so larger blocks pay fewer steps of a few stragglers.
_BLOCK = 16384


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
    """A sampling run: its seed, its number of paths and their horizon.

    The seed lies in ``0 .. 2**64 - 1``, the splitmix64 states, so that
    no two seeds draw the same paths.
    """

    seed: int
    samples: int
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise InvalidParamsError(f"seed must be in 0..{_MASK64}, got {self.seed}")
        if self.samples < 1:
            raise InvalidParamsError(f"samples must be >= 1, got {self.samples}")
        _check_max_steps(self.max_steps)


def _check_max_steps(max_steps: int) -> None:
    """Reject a horizon with room for no state, or whose path draws from the next path's stream."""
    if not 1 <= max_steps <= PATH_STREAM_STRIDE + 1:
        raise InvalidParamsError(
            f"max_steps must be in 1..{PATH_STREAM_STRIDE + 1}, got {max_steps}"
        )


@dataclass(frozen=True)
class Estimate:
    """Point estimate over the decided samples; censored paths are excluded.

    ``censored`` counts paths that hit the step horizon undecided. They are
    reported, never silently dropped. With no decided path there is no
    estimate: ``mean`` and ``std_error`` are ``None`` (JSON ``null``).
    """

    mean: float | None
    std_error: float | None
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
    path's stream. So does ``max_steps < 1``, which leaves room for no state.
    """
    _check_max_steps(max_steps)
    ptr, succ, cum = chain._cdf_table()
    states = chain.states
    i = chain.index_of(start)
    seq = [states[i]]
    while len(seq) < max_steps and not (stop is not None and stop(states[i])):
        i = succ[bisect_right(cum, rng.next_unit(), ptr[i], ptr[i + 1])]
        seq.append(states[i])
    return PathSample(tuple(seq), rng.seed, rng.path_index)


def _mask(n: int, idx):
    """Boolean array over ``n`` state indices, true on ``idx``."""
    import numpy as np

    mask = np.zeros(n, dtype=bool)
    mask[list(idx)] = True
    return mask


class _Successors:
    """Successor search over a flat table ``ptr, cum``, on 53-bit integer draws.

    A draw ``k`` (``next_uint64() >> 11``) stands for ``u = k * 2**-53``,
    and ``cum <= u`` holds exactly when ``ceil(cum * 2**53) <= k``, so the
    search compares integers and finds ``bisect_right`` of ``u`` in the
    row, as :func:`sample_path` does, without converting the draw.

    It starts from a guide table (Chen & Asau's indexed search) when that
    saves at least one halving: row ``i`` cuts ``[0, 1)`` into ``K``
    buckets, ``K`` the power of two at or above its length (fewer than two
    buckets per edge), and bucket ``b`` holds the flat positions
    ``bisect_right(cum_row, b / K)`` and ``min(bisect_right(cum_row,
    (b + 1) / K), last)``, which bracket the answer for every draw in it.
    Otherwise the bracket is the whole row. ``halvings`` is the log2 of the
    widest bracket rounded up to a power of two; a probe past a bracket's
    end reads its end, whose sum exceeds every draw in the bracket. The last
    halving probes ``pos`` itself, which is never past the end.
    """

    __slots__ = ("cum", "start", "bound", "base", "shift", "halvings")

    def __init__(self, ptr, cum):
        import numpy as np

        ptr, cum = np.array(ptr), np.array(cum)
        width, row_last = np.diff(ptr), ptr[1:] - 1
        self.cum = np.ceil(cum * 2.0**53).astype(np.uint64)
        self.start, self.bound, self.base = ptr[:-1], row_last, None
        self.halvings = (int(width.max()) - 1).bit_length()

        # Edge e of row i falls in the buckets from ceil(cum_e * K_i) on (a
        # sum that rounds above 1 counts as 1), so the count of edges keyed
        # at or below bucket g of the flat guide is bisect_right at its edge.
        log_k = np.frexp(width - 1)[1].astype(np.intp)
        size = 1 << log_k
        base = np.cumsum(size) - size
        row = np.repeat(np.arange(width.size), width)
        key = base[row] + np.minimum(np.ceil(cum * size[row]).astype(np.intp), size[row])
        edge = np.searchsorted(key, np.arange(int(size.sum()) + 1), side="right")
        lo, hi = edge[:-1], np.minimum(edge[1:], np.repeat(row_last, size))
        halvings = int((hi - lo).max()).bit_length()
        if halvings < self.halvings:
            self.start, self.bound, self.halvings = lo, hi, halvings
            self.base, self.shift = base, (53 - log_k).astype(np.uint64)

    def __call__(self, i, k):
        """Flat positions of the successors of states ``i`` for draws ``k``."""
        import numpy as np

        # Buckets as intp: numpy would add uint64 to intp in float64.
        g = i if self.base is None else self.base[i] + (k >> self.shift[i]).view(np.intp)
        pos, cum = self.start[g], self.cum
        if self.halvings > 1:
            bound = self.bound[g]
            for h in range(self.halvings - 1, 0, -1):
                pos += (1 << h) * (cum[np.minimum(pos + ((1 << h) - 1), bound)] <= k)
        if self.halvings:
            pos += cum[pos] <= k
        return pos


def _walks(chain: MarkovChain, start: str, cfg: SimConfig, stop, cost=None,
           first_last=False):
    """Walk paths ``0 .. cfg.samples - 1`` from ``start``, ``_BLOCK`` at a time.

    Path ``k`` replays ``sample_path`` on ``PathRng(cfg.seed, k)`` with the
    index set ``stop`` and ``cfg.max_steps``, on the same flat table: the
    successor is ``bisect_right`` of the draw in its row, found by
    :class:`_Successors` on the draw's top 53 bits. A path still walking at
    step ``t`` has drawn at every earlier step, so its stream state is its
    start state plus ``t`` increments.

    Yields per block, in path order: end states; if ``first_last``, the
    states entered by the first step and left by the last (the start if no
    step was taken), else ``None`` twice; and, under the reward chain
    ``cost``, transition costs summed in step order, else ``None``. Only
    the bookkeeping asked for is done at each step. The block size bounds
    the working arrays; each block's step loop runs until its slowest path
    stops. A cost that overflows a float raises :class:`InvalidParamsError`;
    a sum that overflows is left at ``inf`` (numpy warns about it unless the
    caller ignores overflow).
    """
    import numpy as np

    ptr, succ, cum = chain._cdf_table()
    n = len(chain.states)
    price, read = [], arithmetic(FLOAT).read
    for i in range(n if cost is not None else 0):
        costs = cost.cost_row_by_index(i)
        for j in succ[ptr[i] : ptr[i + 1]]:
            price.append(read(costs.get(j, 0)))
            if price[-1] is None:
                edge = f"{chain.states[i]!r} -> {chain.states[j]!r}"
                raise InvalidParamsError(f"cost {edge} overflows a float")
    price = np.array(price)
    search, succ = _Successors(ptr, cum), np.array(succ, dtype=np.intp)
    going = ~_mask(n, stop)
    s0 = chain.index_of(start)

    for lo in range(0, cfg.samples, _BLOCK):
        paths = np.arange(lo, min(lo + _BLOCK, cfg.samples), dtype=np.uint64)
        rng0 = _jump(cfg.seed & _MASK64, paths * PATH_STREAM_STRIDE)
        end = np.full(paths.size, s0, dtype=np.intp)
        first = last = acc = None
        if first_last:
            first, last = end.copy(), end.copy()
        if cost is not None:
            acc = np.zeros(paths.size)
        live, nxt = np.arange(paths.size), end
        for steps in range(1, cfg.max_steps):
            moving = going[nxt]
            live, i = live[moving], nxt[moving]
            if not live.size:
                break
            z = rng0[live] + (steps * _GAMMA & _MASK64)
            z = (z ^ (z >> 30)) * _MIX1
            z = (z ^ (z >> 27)) * _MIX2
            pos = search(i, (z ^ (z >> 31)) >> 11)
            nxt = succ[pos]
            end[live] = nxt
            if first_last:
                last[live] = i
                if steps == 1:
                    first[live] = nxt
            if cost is not None:
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
    n = len(chain.states)
    is_hit, is_decided = _mask(n, psi_idx), _mask(n, stop)
    hits = decided = 0
    for end, *_ in _walks(chain, start, cfg, stop):
        hits += int(is_hit[end].sum())
        decided += int(is_decided[end].sum())

    censored = cfg.samples - decided
    if decided == 0:
        return Estimate(None, None, cfg.samples, censored)
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
    import numpy as np

    chain = rchain.chain
    phi_idx = chain.index_set(phi)
    outside = set(range(len(chain.states))) - phi_idx
    stop = phi_idx | analysis._prob01(chain, outside, phi_idx)[0]

    is_hit = _mask(len(chain.states), phi_idx)
    total = total_sq = 0.0
    decided = 0
    # An overflowed sum stays inf and is rejected below.
    with np.errstate(over="ignore"):
        for end, _, _, acc in _walks(chain, start, cfg, stop, rchain):
            c = acc[is_hit[end]]
            decided += c.size
            # cumsum adds left to right, in path-index order, as a
            # path-by-path reference sum would; np.sum and 3.12's builtin
            # sum would not.
            total = np.cumsum(np.concatenate(([total], c)))[-1].item()
            total_sq = np.cumsum(np.concatenate(([total_sq], c * c)))[-1].item()

    censored = cfg.samples - decided
    if decided == 0:
        return Estimate(None, None, cfg.samples, censored)
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
    import numpy as np

    chain = model.chain
    end_idx = chain.index_of(model.END)
    coll_mix = chain.index_set(model.collaborator_mix_labels())
    jondo = [model.jondo_of(label) for label in chain.states]

    # Pair codes f * m + l over the distinct jondo values (None included), in
    # the narrowest unsigned type that holds them: np.unique's stable sort
    # runs as a radix sort on types of up to 16 bits.
    names = list(dict.fromkeys(jondo))
    m = len(names)
    code = np.array([names.index(j) for j in jondo], dtype=np.min_scalar_type(m * m - 1))
    stop = coll_mix | {end_idx}
    is_hit, is_decided = _mask(len(jondo), coll_mix), _mask(len(jondo), stop)

    # Per cell: its count, and the index of the first path that hit it.
    tally = np.zeros(m * m, dtype=np.int64)
    first_hit = np.full(m * m, cfg.samples)
    censored, offset = cfg.samples, 0
    for end, first, last, _ in _walks(chain, model.START, cfg, stop, first_last=True):
        hit = is_hit[end]
        censored -= int(is_decided[end].sum())
        cells, at, seen = np.unique(code[first[hit]] * m + code[last[hit]],
                                    return_index=True, return_counts=True)
        tally[cells] += seen
        first_hit[cells] = np.minimum(first_hit[cells], offset + at)
        offset += end.size

    # In order of each cell's first hit, as a path-by-path count inserts them.
    cells = np.flatnonzero(tally)
    cells = cells[np.argsort(first_hit[cells])]
    counts = {(names[c // m], names[c % m]): k
              for c, k in zip(cells.tolist(), tally[cells].tolist())}
    return JointCounts(counts, sum(counts.values()), cfg.samples, censored)

"""Validated finite Markov (reward) chains.

A chain is built once by :func:`validate_chain` / :func:`validate_reward`
and is immutable afterwards; every analysis in this package consumes these
types. Two arithmetic modes exist, fixed per chain at construction:

* ``"exact"`` (default): probabilities and costs are `fractions.Fraction`
  values, rows must sum to exactly 1.
* ``"float"``: 64-bit floats, rows must sum to 1 within ``1e-9`` absolute.

State labels are the canonical external identity; integer indices are an
internal detail of the sparse representation.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    EmptyStateSpaceError,
    InvalidParamsError,
    NegativeCostError,
    NegativeProbabilityError,
    RowSumNotOneError,
    UnknownStateError,
)

EXACT = "exact"
FLOAT = "float"

#: Absolute tolerance on float sums that must be one.
ROW_SUM_TOL = 1e-9


def parse_scalar(text, mode=EXACT):
    """Parse a numeric literal: ``"1/3"``, ``"0.01"``, ``"3600"``.

    In exact mode decimals are read as exact decimal fractions
    (``"0.01"`` becomes ``1/100``); in float mode the value is converted
    to the nearest 64-bit float.
    """
    value = Fraction(str(text))
    return value if mode == EXACT else float(value)


def format_scalar(value):
    """Serialize losslessly: Fractions as ``num/den`` strings, floats via repr."""
    if isinstance(value, Fraction):
        return str(value)
    if value == math.inf:
        return "inf"
    return repr(float(value))


def _coerce_param(value, name):
    """Read a case-study parameter: finite floats pass through, the rest become Fractions."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidParamsError(f"parameter {name} must be finite, got {value}")
        return value
    try:
        return Fraction(str(value)) if isinstance(value, str) else Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise InvalidParamsError(f"cannot parse parameter {name}={value!r}") from None


def _with_mode(params, mode):
    """Copy a case-study parameter record with its rational fields as floats."""
    if mode == EXACT:
        return params
    changes = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        try:
            if isinstance(value, Fraction):
                changes[f.name] = float(value)
            elif isinstance(value, Mapping):  # an initiator law
                changes[f.name] = {k: float(v) for k, v in value.items()}
        except OverflowError:
            raise InvalidParamsError(f"parameter {f.name} overflows a float") from None
    return dataclasses.replace(params, **changes)  # re-runs the record's validation


def _sums_to_one(total) -> bool:
    """Exactly 1 for a rational sum (no float term), within ``ROW_SUM_TOL`` for a float one."""
    if isinstance(total, float):
        return abs(total - 1.0) <= ROW_SUM_TOL
    return total == 1


def _triple(closed, solver):
    """Report entry comparing a closed form with the solver's value."""
    return {
        "closed_form": format_scalar(closed),
        "solver": format_scalar(solver),
        "difference": format_scalar(closed - solver),
    }


def _coerce(value, mode):
    """Convert an input number to the chain's arithmetic; None if unusable."""
    if mode == EXACT:
        if isinstance(value, float):
            # Silent float->Fraction conversion would smuggle binary rounding
            # into supposedly exact results.
            raise TypeError(
                f"exact mode rejects float {value!r}; pass a Fraction, an int, "
                f"or a string literal like '1/100'"
            )
        return Fraction(value)
    try:
        out = float(Fraction(str(value))) if isinstance(value, str) else float(value)
    except OverflowError:
        return None
    if not math.isfinite(out):
        return None
    return out


class MarkovChain:
    """Finite state set with a validated row-stochastic sparse matrix.

    Do not instantiate directly; use :func:`validate_chain`.
    """

    def __init__(self, states: Sequence[str], rows, mode: str):
        self._states = tuple(states)
        self._index = {s: i for i, s in enumerate(self._states)}
        # Read-only row views: chains are shared freely across analyses.
        self._rows = tuple(MappingProxyType(dict(r)) for r in rows)
        self._mode = mode
        self._preds = None
        self._cdf = None

    @property
    def states(self) -> tuple[str, ...]:
        return self._states

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def zero(self):
        return Fraction(0) if self._mode == EXACT else 0.0

    @property
    def one(self):
        return Fraction(1) if self._mode == EXACT else 1.0

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, label) -> bool:
        return label in self._index

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownStateError(label) from None

    def index_set(self, labels: Iterable[str]) -> set[int]:
        return {self.index_of(s) for s in labels}

    def row_by_index(self, i: int) -> Mapping:
        return self._rows[i]

    def _predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Index lists of each state's predecessors, built on first use."""
        if self._preds is None:
            preds = [[] for _ in self._states]
            for i, row in enumerate(self._rows):
                for j in row:
                    preds[j].append(i)
            self._preds = tuple(map(tuple, preds))
        return self._preds

    def _cdf_table(self) -> tuple[list[int], list[int], list[float]]:
        """Float successor table in flat per-edge (CSR) layout, built on first use.

        Row ``i`` is ``ptr[i]:ptr[i + 1]`` of ``succ`` (its sorted successor
        indices) and of ``cum`` (their running sums, the last forced to 1.0).
        """
        if self._cdf is None:
            ptr, succ, cum = [0], [], []
            for row in self._rows:
                order = sorted(row)
                succ += order
                cum += accumulate(float(row[j]) for j in order)
                cum[-1] = 1.0  # guard against float row sums just below 1
                ptr.append(len(succ))
            self._cdf = ptr, succ, cum
        return self._cdf

    def row(self, label: str) -> dict:
        """Nonzero outgoing probabilities of a state, keyed by successor label."""
        i = self.index_of(label)
        return {self._states[j]: p for j, p in self._rows[i].items()}

    def prob(self, frm: str, to: str):
        """Transition probability, zero when the edge is absent."""
        i = self.index_of(frm)
        j = self.index_of(to)
        return self._rows[i].get(j, self.zero)

    def successors(self, label: str) -> set[str]:
        """States reachable in exactly one positive-probability step."""
        i = self.index_of(label)
        return {self._states[j] for j in self._rows[i]}

    def edges(self) -> Iterator[tuple[str, str, object]]:
        for i, row in enumerate(self._rows):
            for j, p in row.items():
                yield self._states[i], self._states[j], p

    def path_prefix_prob(self, start: str, prefix: Sequence[str]):
        """Probability of the cylinder of paths that begin with ``prefix``.

        The path is read as ``start . prefix``: the product of the transition
        probabilities along start -> prefix[0] -> ... -> prefix[-1]. The empty
        prefix has probability 1.
        """
        prob = self.one
        current = self.index_of(start)
        for label in prefix:
            nxt = self.index_of(label)
            prob = prob * self._rows[current].get(nxt, self.zero)
            current = nxt
        return prob

    def __repr__(self) -> str:
        edges = sum(len(r) for r in self._rows)
        return f"MarkovChain({len(self._states)} states, {edges} edges, mode={self._mode!r})"


class RewardChain:
    """A Markov chain plus a non-negative sparse per-transition cost matrix.

    Costs may sit on zero-probability edges; they never contribute to any
    expectation. Use :func:`validate_reward` to construct.
    """

    def __init__(self, chain: MarkovChain, cost_rows):
        self.chain = chain
        self._cost_rows = tuple(MappingProxyType(dict(r)) for r in cost_rows)

    @property
    def states(self) -> tuple[str, ...]:
        return self.chain.states

    @property
    def mode(self) -> str:
        return self.chain.mode

    def cost(self, frm: str, to: str):
        i = self.chain.index_of(frm)
        j = self.chain.index_of(to)
        return self._cost_rows[i].get(j, self.chain.zero)

    def cost_row_by_index(self, i: int) -> Mapping:
        return self._cost_rows[i]

    def cost_edges(self) -> Iterator[tuple[str, str, object]]:
        states = self.chain.states
        for i, row in enumerate(self._cost_rows):
            for j, c in row.items():
                yield states[i], states[j], c

    def __repr__(self) -> str:
        entries = sum(len(r) for r in self._cost_rows)
        return f"RewardChain({self.chain!r}, {entries} cost entries)"


def validate_chain(states: Sequence[str], trans: Mapping, mode: str = EXACT) -> MarkovChain:
    """Check a sparse transition map and wrap it as a :class:`MarkovChain`.

    ``trans`` maps ``(from_label, to_label)`` to a probability; absent pairs
    mean zero. Exact zero entries are dropped. Validation checks and never
    repairs: a bad row raises rather than being renormalized.

    Raises
    ------
    EmptyStateSpaceError, UnknownStateError, NegativeProbabilityError,
    RowSumNotOneError
    """
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}, got {mode!r}")
    state_list = list(states)
    if not state_list:
        raise EmptyStateSpaceError("a chain needs at least one state")
    if len(set(state_list)) != len(state_list):
        dupes = sorted({s for s in state_list if state_list.count(s) > 1})
        raise ValueError(f"duplicate state labels: {dupes}")
    index = {s: i for i, s in enumerate(state_list)}

    rows = [dict() for _ in state_list]
    for (frm, to), raw in trans.items():
        if frm not in index:
            raise UnknownStateError(frm)
        if to not in index:
            raise UnknownStateError(to)
        p = _coerce(raw, mode)
        if p is None or p < 0:
            raise NegativeProbabilityError(frm, to, raw)
        if p == 0:
            continue
        rows[index[frm]][index[to]] = p

    for i, s in enumerate(state_list):
        total = sum(rows[i].values())
        if not _sums_to_one(total):
            raise RowSumNotOneError(s, total)

    return MarkovChain(state_list, rows, mode)


def validate_reward(chain: MarkovChain, cost: Mapping) -> RewardChain:
    """Attach a validated non-negative cost map to an existing chain.

    Raises
    ------
    UnknownStateError, NegativeCostError
    """
    cost_rows = [dict() for _ in chain.states]
    for (frm, to), raw in cost.items():
        i = chain.index_of(frm)
        j = chain.index_of(to)
        c = _coerce(raw, chain.mode)
        if c is None or c < 0:
            raise NegativeCostError(frm, to, raw)
        if c == 0:
            continue
        cost_rows[i][j] = c
    return RewardChain(chain, cost_rows)

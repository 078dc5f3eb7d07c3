"""Validated finite Markov (reward) chains.

A chain is built once by :func:`validate_chain` / :func:`validate_reward`
and is immutable afterwards; every analysis in this package consumes these
types. Two arithmetic modes exist, fixed per chain at construction:

* ``"exact"`` (default): probabilities and costs are `fractions.Fraction`
  values, rows must sum to exactly 1.
* ``"float"``: 64-bit floats, rows must sum to 1 within ``1e-9`` absolute.

Each mode name stands for one :class:`Arithmetic` record, and the records
are the one place that tells the modes apart: :func:`arithmetic` looks up
a mode name, :func:`arithmetic_of` the arithmetic of values that carry no
mode (case-study parameters, joints). The rest of the package asks a record
for its zero, one, fractions, reader, tolerance, system and split. The
system is the matrix of a block's absorbing equations, ``I - Q`` or its
transpose, in the form its mode's solvers read: dicts of nonzeros for the
exact kernels, one dense numpy matrix for the float one. The reader,
``read``, turns any input number into the mode's arithmetic, or ``None``
if it is unusable; a number already in it passes through as it is. The
split writes values as numerators over one denominator: exact ones as
integers over their lcm, floats as themselves over ``1``. So the work
after a solve (totals, entry laws, marginals) has one body for both modes,
and so does validation: the signs of a row are checked on its split
numerators, which the row-sum check then adds and compares with the
denominator, so no exact entry pays a ``Fraction`` comparison, a row that
sums to one builds no total, and a float row is not copied.

Every sum of mode values in the package adds left to right: a whole sum
through ``_sum``, a sum by key (marginals, entry laws by outcome) one
term at a time, and the float system's exit masses by ``numpy.cumsum``.
Builtin ``sum`` compensates floats from Python 3.12, so float results
added with it would differ in their last bits between Python versions.

State labels are the canonical external identity; integer indices are an
internal detail of the sparse representation.
"""

from __future__ import annotations

import dataclasses
import math
import re
from fractions import Fraction
from itertools import accumulate, chain as iter_chain
from operator import attrgetter, methodcaller, truediv
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    EmptyStateSpaceError,
    InvalidParamsError,
    LiteralRangeError,
    NegativeCostError,
    NegativeProbabilityError,
    RowSumNotOneError,
    UnknownStateError,
    _excerpt,
    _full_str,
)

EXACT = "exact"
FLOAT = "float"

#: Absolute tolerance on float sums that must be one.
ROW_SUM_TOL = 1e-9

#: Largest decimal exponent, in absolute value, that a numeric literal may
#: carry. ``Fraction("1e-1000000")`` builds a million-digit integer, and a
#: message spelling the value out takes seconds per conversion; past this
#: bound a literal is a parse error. ``1e5000`` is still read, so values
#: past CPython's 4,300-digit string limit reach validation.
MAX_DECIMAL_EXPONENT = 10_000

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def _read_literal(text: str) -> Fraction:
    """``Fraction(text)`` for a numeric literal, once its decimal exponent is checked.

    Every numeric literal the package reads from text comes through here:
    model and ``--init`` file values (JSON numbers and strings), numeric
    CLI flags and parameter strings. Raises :class:`LiteralRangeError` for
    an exponent beyond ``MAX_DECIMAL_EXPONENT``, before any digit is
    expanded, and lets ``Fraction``'s own ``ValueError`` or
    ``ZeroDivisionError`` through for malformed text.
    """
    match = _EXPONENT.search(text)
    if match:
        digits = match[1].lstrip("+-").replace("_", "").lstrip("0")
        bound = MAX_DECIMAL_EXPONENT
        if len(digits) > len(str(bound)) or int(digits or "0") > bound:
            raise LiteralRangeError(
                f"number {_excerpt(text)}: decimal exponent out of range"
                f" (over {bound} in magnitude)"
            )
    return Fraction(text)


def parse_scalar(text, mode=EXACT):
    """Parse a numeric literal: ``"1/3"``, ``"0.01"``, ``"3600"``.

    The literal is read by :func:`_coerce`: in exact mode decimals are
    exact decimal fractions (``"0.01"`` becomes ``1/100``); in float mode
    the value is the nearest 64-bit float. Malformed text, a zero
    denominator, in float mode a value past the float range, and a mode
    name other than ``"exact"`` or ``"float"`` raise ``ValueError``; an
    exponent out of range raises ``LiteralRangeError``.
    """
    text = str(text)
    value = arithmetic(mode).read(text)
    if value is None:
        raise ValueError(f"cannot parse number {_excerpt(text)}")
    return value


def format_scalar(value):
    """Serialize losslessly: Fractions as ``num/den`` strings, floats via repr.

    A float skips the ``isinstance`` test, an ``ABCMeta`` check.
    """
    if type(value) is not float and isinstance(value, Fraction):
        return _full_str(value)
    if value == math.inf:
        return "inf"
    return repr(float(value))


def _coerce_param(value, name):
    """Read a case-study parameter: finite floats stay floats, the rest become Fractions."""
    number = arithmetic_of(value).read(value)
    if number is None:
        raise InvalidParamsError(f"parameter {name} must be a finite number, got {_excerpt(value)}")
    return number


def _with_mode(params, mode):
    """A case-study parameter record with its rational fields in ``mode``'s arithmetic.

    A field whose values are all in it already is kept, so a record that
    needs no change (any rational record in exact mode) is returned as it is.
    """
    arith = arithmetic(mode)
    changes = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if not isinstance(value, (Fraction, Mapping)):  # a Mapping is an initiator law
            continue
        numbers = value if isinstance(value, Mapping) else {f.name: value}
        if all(arithmetic_of(v) is arith for v in numbers.values()):
            continue
        numbers = {k: arith.read(v) for k, v in numbers.items()}
        if None in numbers.values():
            raise InvalidParamsError(f"parameter {f.name} overflows a float")
        changes[f.name] = numbers if isinstance(value, Mapping) else numbers[f.name]
    # replace re-runs the record's validation
    return dataclasses.replace(params, **changes) if changes else params


def _sums_to_one(total) -> bool:
    """Exactly 1 for a rational sum (no float term), within ``ROW_SUM_TOL`` for a float one."""
    return total == 1 or abs(total - 1) <= arithmetic_of(total).tol


def _over_lcm(values) -> tuple[list, int]:
    """Exact ``values`` as integer numerators over their lcm, ``(nums, den)``.

    The exact arithmetic's ``split``. Report work adds and compares these
    integers and reduces once at the end, ``Fraction(_sum(nums, 0), den)``,
    with one gcd, where a ``Fraction`` sum takes one per term.
    """
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _sum(values, start):
    """``start`` plus ``values``, added one by one, left to right, on every Python version.

    A plain loop: ``functools.reduce(operator.add, ...)`` adds in the same
    order but pays a call per term, and float report work makes thousands
    of short sums.
    """
    for value in values:
        start += value
    return start


def _total(values, arith):
    """The sum of ``values`` in ``arith``: the ``_sum`` of their ``split`` numerators over its denominator."""
    nums, den = arith.split(values)
    return arith.frac(_sum(nums, 0), den)


def _triple(closed, solver):
    """Report entry comparing a closed form with the solver's value.

    Two equal ``Fraction``s, what every exact cross-check should give, are
    compared before anything is subtracted: the value is formatted once
    and the difference is ``"0"``, as ``closed - solver`` would print, so
    no large ``Fraction`` is subtracted and formatted only to print zero.
    Any other pair, floats and subclasses among them, is subtracted.
    """
    if type(closed) is Fraction and type(solver) is Fraction and closed == solver:
        text = format_scalar(closed)
        return {"closed_form": text, "solver": text, "difference": "0"}
    return {
        "closed_form": format_scalar(closed),
        "solver": format_scalar(solver),
        "difference": format_scalar(closed - solver),
    }


def _coerce(exact: bool, value):
    """Convert an input number to exact or float arithmetic; None if it is unusable.

    This is the one reader of input numbers, behind each :class:`Arithmetic`
    record's ``read``: chain and cost entries, model-file strings,
    case-study parameters, rational CLI flags and :func:`parse_scalar`. A
    string is read as a numeric literal by :func:`_read_literal`, whose
    exponent check raises ``LiteralRangeError``. Unusable are bools and
    other non-numbers, malformed text, a zero denominator, NaN and, in
    float mode, a value past the float range. Exact mode rejects floats
    with ``TypeError``. The readers return a value already in their
    arithmetic (a ``Fraction``, a finite ``float``) before calling this.
    """
    if exact and isinstance(value, float):
        # Silent float->Fraction conversion would smuggle binary rounding
        # into supposedly exact results.
        raise TypeError(
            f"exact mode rejects float {value!r}; pass a Fraction, an int, "
            f"or a string literal like '1/100'"
        )
    if isinstance(value, bool):
        return None
    try:
        number = _read_literal(value) if isinstance(value, str) else value
        number = Fraction(number) if exact else float(number)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        return None
    return number if exact or math.isfinite(number) else None


def _read_exact(value):
    """The exact ``read``: a ``Fraction`` as it is, anything else by :func:`_coerce`."""
    return value if type(value) is Fraction else _coerce(True, value)


def _read_float(value):
    """The float ``read``: a finite ``float`` as it is, anything else by :func:`_coerce`."""
    return value if type(value) is float and math.isfinite(value) else _coerce(False, value)


@dataclasses.dataclass(frozen=True)
class Arithmetic:
    """The numbers one mode computes with: what every mode-dependent step reads.

    ``frac(n, d)`` is ``n / d`` and ``tol`` the absolute tolerance on a
    sum that must be one. ``read`` returns a value already in this
    arithmetic as it is, after one type test, and reads any other through
    :func:`_coerce`.
    ``system(chain, block, transpose)`` is the matrix of
    ``analysis._solve_block``: ``I - Q`` over the sorted index list
    ``block``, or its transpose, as :func:`linalg.solve` takes it in this
    mode. The exact one (:func:`_exact_system`) is a dict of nonzeros per
    row with pivot ``1 - q_uu``; the float one (:func:`_float_system`) is
    an n-by-n numpy matrix whose diagonal holds each row's exit mass, which
    no self-loop rounds to zero.

    ``split(values)`` is ``(nums, den)``, numerators over one denominator
    that report work adds and compares before one ``frac(n, den)`` per
    result: exact values as integers over their lcm (:func:`_over_lcm`),
    floats as themselves over the int ``1``, so that ``frac(n, 1)`` is the
    same float. The float numerators are ``values`` itself, not a copy, so
    ``values`` must be a collection when they are read more than once. One
    body of report code serves both modes.
    """

    name: str
    zero: object
    one: object
    frac: Callable
    read: Callable
    tol: object
    system: Callable
    split: Callable


def _exact_system(chain, block, transpose) -> list:
    """``I - Q`` over ``block``, or its transpose, as one dict of nonzeros per row.

    Row ``i`` holds ``{j: -q_ij, i: 1 - q_ii}``, and the transpose puts
    ``-q_ij`` in row ``j``. Each distinct value object is negated once,
    through a memo keyed on its identity: the builders share value objects
    across rows, so a Crowds block of ``J**2`` edges over three shared
    values makes three ``Fraction`` negations, and a ``Fraction`` hash is a
    Python-level modular inverse, dearer than the negation it would save.
    The chain holds every value it is given, so no identity is reused while
    the memo lives; equal values in separate objects are each negated once.
    The pivot of a row with no self-loop is the shared ``one``.
    """
    pos = {u: r for r, u in enumerate(block)}
    memo = {}
    rows = [{} for _ in block]
    for i, u in enumerate(block):
        out = chain.row_by_index(u)
        for v, p in out.items():
            j = pos.get(v)
            if j is not None:
                minus = memo.get(id(p))
                if minus is None:
                    minus = memo[id(p)] = -p
                if transpose:
                    rows[j][i] = minus
                else:
                    rows[i][j] = minus
        rows[i][i] = 1 - out[u] if u in out else _ONE
    return rows


def _float_system(chain, block, transpose):
    """``I - Q`` over ``block``, or its transpose, as one dense n-by-n numpy matrix.

    Off the diagonal each in-block entry is ``-q_ij``. The diagonal holds
    each row's exit mass, the sum of its entries off the diagonal, inside
    the block or not, in place of ``1 - q_ii``, so a self-loop of
    ``1 - 1e-17`` cannot round the pivot to zero (Grassmann, Taksar &
    Heyman 1985); the transpose keeps the same diagonal. The exit mass adds
    the row's entries left to right in its dict order, as ``_sum`` does:
    ``numpy.cumsum`` along the rows of an n-by-(longest block row) array of
    them, zero-padded and with each self-loop zeroed, since adding a zero
    leaves a float as it is. numpy's reductions (``sum``, ``add.reduce``,
    ``reduceat``) add rows of eight or more terms pairwise, which moves the
    last bit, so none of them adds the floats.

    The chain's entries are gathered in a few array operations rather than
    one Python call each. A tiny block pays numpy's fixed cost of some tens
    of microseconds. Beside the n-by-n matrix, the work arrays hold n times
    the longest block row floats (the padded array), a few ints per block
    entry and one int per chain state.
    """
    import numpy as np

    n = len(block)
    outs = [chain.row_by_index(u) for u in block]
    sizes = np.fromiter(map(len, outs), dtype=np.intp, count=n)
    count = int(sizes.sum())
    cols = np.fromiter(iter_chain.from_iterable(outs), dtype=np.intp, count=count)
    vals = np.fromiter(iter_chain.from_iterable(map(methodcaller("values"), outs)),
                       dtype=float, count=count)
    row = np.repeat(np.arange(n), sizes)
    vals[cols == np.asarray(block)[row]] = 0.0  # a self-loop is in neither part
    padded = np.zeros((n, int(sizes.max())))  # row r's entries from column 0 on
    padded[row, np.arange(count) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = vals
    at = np.full(len(chain.states), -1)
    at[block] = np.arange(n)
    col = at[cols]
    inside = col >= 0
    i, j = row[inside], col[inside]
    a = np.zeros((n, n))
    a[(j, i) if transpose else (i, j)] = -vals[inside]
    a[np.arange(n), np.arange(n)] = np.cumsum(padded, axis=1)[:, -1]
    return a


_ONE = Fraction(1)

# Fields in order: name, zero, one, frac, read, tol, system, split.
_ARITHMETIC = {
    EXACT: Arithmetic(EXACT, Fraction(0), _ONE, Fraction, _read_exact, 0,
                      _exact_system, _over_lcm),
    FLOAT: Arithmetic(FLOAT, 0.0, 1.0, truediv, _read_float, ROW_SUM_TOL,
                      _float_system, lambda values: (values, 1)),
}


def arithmetic(mode) -> Arithmetic:
    """The record of a mode name, ``"exact"`` or ``"float"``; ``ValueError`` for any other."""
    if mode in (EXACT, FLOAT):
        return _ARITHMETIC[mode]
    raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}, got {mode!r}")


def arithmetic_of(value) -> Arithmetic:
    """The arithmetic of a value that carries no mode: float for a float, else exact."""
    return _ARITHMETIC[FLOAT if isinstance(value, float) else EXACT]


def _entry_rows(index, entries: Mapping, arith: Arithmetic, invalid) -> tuple:
    """Read a sparse ``(from, to) -> value`` map into read-only rows of nonzeros.

    Returns ``(rows, splits)``, with ``splits`` each row's ``arith.split``.
    Each value goes through ``arith.read`` once and in order; an unusable
    one raises ``invalid(frm, to, value)``, and zeros are dropped. Signs
    are checked once every value is read, on each row's split numerators,
    whose sign is the value's; a negative one raises ``invalid`` for the
    first negative entry of the map. So an unknown label or an unusable
    value anywhere in the map is reported before a negative entry. A
    caller's row-sum check reads the same splits, comparing the sum of a
    row's numerators with its denominator first.
    """
    read, split = arith.read, arith.split
    rows = [{} for _ in index]
    for (frm, to), raw in entries.items():
        try:
            row, j = rows[index[frm]], index[to]
        except KeyError:
            raise UnknownStateError(to if frm in index else frm) from None
        value = read(raw)
        if value is None:
            raise invalid(frm, to, raw)
        if value:
            row[j] = value
    splits = [split(row.values()) for row in rows]
    if min(iter_chain.from_iterable(nums for nums, _ in splits), default=0) < 0:
        for (frm, to), raw in entries.items():
            if rows[index[frm]].get(index[to], 0) < 0:
                raise invalid(frm, to, raw)
    # Read-only row views: chains are shared freely across analyses.
    return tuple(map(MappingProxyType, rows)), splits


class MarkovChain:
    """Finite state set with a validated row-stochastic sparse matrix.

    ``arith`` is the :class:`Arithmetic` record of the chain's mode. Do not
    instantiate directly; use :func:`validate_chain`.
    """

    def __init__(self, states: tuple, index: dict, rows: tuple, arith: Arithmetic):
        self._states = states
        self._index = index
        self._rows = rows
        self.arith = arith
        self._preds = None
        self._cdf = None

    # The mode's name, zero and one, read off the chain's arithmetic record.
    mode = property(attrgetter("arith.name"))
    zero = property(attrgetter("arith.zero"))
    one = property(attrgetter("arith.one"))

    @property
    def states(self) -> tuple[str, ...]:
        return self._states

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
        return f"MarkovChain({len(self._states)} states, {edges} edges, mode={self.mode!r})"


class RewardChain:
    """A Markov chain plus a non-negative sparse per-transition cost matrix.

    Costs may sit on zero-probability edges; they never contribute to any
    expectation. Use :func:`validate_reward` to construct.
    """

    def __init__(self, chain: MarkovChain, cost_rows: tuple):
        self.chain = chain
        self._cost_rows = cost_rows

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
    repairs: a bad row raises rather than being renormalized. Each row is
    split once (``Arithmetic.split``): exact entries as integer numerators
    over their lcm, float entries as themselves. The split's numerators
    carry the signs that :func:`_entry_rows` checks. A row whose numerators
    add up to its denominator sums to exactly one, with nothing reduced;
    only another row builds its total, the ``frac`` of that sum, and
    compares it with one (within ``ROW_SUM_TOL`` for floats). Unknown
    labels and unusable values anywhere in the map raise before a negative
    entry, and a negative entry before a row that does not sum to one.

    Raises
    ------
    EmptyStateSpaceError, UnknownStateError, NegativeProbabilityError,
    RowSumNotOneError
    """
    arith = arithmetic(mode)
    states = tuple(states)
    if not states:
        raise EmptyStateSpaceError("a chain needs at least one state")
    index = {s: i for i, s in enumerate(states)}
    if len(index) != len(states):
        dupes = sorted({s for s in states if states.count(s) > 1})
        raise ValueError(f"duplicate state labels: {dupes}")
    rows, splits = _entry_rows(index, trans, arith, NegativeProbabilityError)
    for s, (nums, den) in zip(states, splits):
        num = _sum(nums, 0)
        if num == den:
            continue
        total = arith.frac(num, den)
        if not _sums_to_one(total):
            raise RowSumNotOneError(s, total)
    return MarkovChain(states, index, rows, arith)


def validate_reward(chain: MarkovChain, cost: Mapping) -> RewardChain:
    """Attach a validated non-negative cost map to an existing chain.

    Signs are checked as in :func:`validate_chain`, on each row's split
    numerators, after every entry is read.

    Raises
    ------
    UnknownStateError, NegativeCostError
    """
    return RewardChain(chain, _entry_rows(chain._index, cost, chain.arith, NegativeCostError)[0])

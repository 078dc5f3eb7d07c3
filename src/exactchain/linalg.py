"""Direct linear solvers backing the chain analyses.

The systems solved here are `(I - Q) x = b` style absorption equations with
at most a few hundred unknowns, so direct elimination is enough. Every
solver takes the same inputs: the matrix, the right-hand sides as a dense
list of rows, and optionally the set ``keep`` of unknowns the caller
reads. The exact solvers take the matrix as a list of rows, each a dict of
its nonzeros; the float solver takes it as one n-by-n numpy array of
floats. Each reads its inputs into its own working form, writes nothing
back, and returns a dense list of solution rows. :func:`solve` only picks
a solver by mode and density.
Both exact solvers read the system through one reader, ``_read``: each
matrix entry, and each nonzero right-hand-side entry, becomes a reduced
``(numerator, denominator)`` pair of ints once, by ``as_integer_ratio()``,
with right-hand side ``c`` at column ``n + c`` after the unknowns. Zero
right-hand sides, most of those an entry law passes, are not read.

Sparse systems, such as ZeroConf's path of probes with back edges to its
start, go to state elimination (Daws 2004; Hahn, Hermanns & Zhang, PARAM
2011) on those rows: each step eliminates the unknown of least Markowitz
cost on its diagonal, without pivoting, so the fill-in stays near the
system's own nonzeros where dense elimination fills the whole matrix.
The pivot queue keeps one list of current costs, ``None`` for an unknown
already eliminated, and a step pushes a heap entry only for an unknown
whose cost it changed. No pivot vanishes on the nonsingular M-matrices
``I - Q`` (or their transposes) that the analyses build; a zero pivot
raises :class:`SingularSystemError`. The elimination runs on the reader's
pairs by Henrici's rule, inline, so no ``Fraction`` method runs in its
loop. Back-substitution adds each result column's few terms as integers
over the lcm of their denominators, and only the results are built as
Fractions, each with one gcd.

Every other exact system goes to fraction-free (Bareiss) Gaussian
elimination over integers: each row of the reader's pairs becomes a
dense integer row with its denominators cleared, which keeps intermediate
values from exploding the way naive rational elimination can, and wins
on dense blocks. Its divisions are exact whatever the pivot order, so it
pivots on the first nonzero entry of a column and searches no magnitudes.
A step only rescales a row that has a zero in the pivot column, by the
pivot over the previous one, and over a run of such steps the factors
telescope (Sylvester's identity). So such a row is left alone and
rescaled once, when a later step changes it or it becomes the pivot row;
the division is exact because the row it gives is Bareiss's own, whose
entries are minors of the integer matrix. A step whose pivot equals the
one a row is current to touches that row only in the pivot row's nonzero
columns. Back-substitution stays in integers too: every unknown is an
integer over the last Bareiss pivot, the determinant (Bareiss 1968), so
the only rationals built are the results. Float mode hands its dense
matrix, which the chain's arithmetic builds in numpy
(``chain._float_system``), to ``numpy.linalg.solve`` as it is; only float
work imports numpy, so exact work never loads it.

Every solve is a kept-rows solve. A caller that reads only some unknowns,
such as the one start state of a query, names them in ``keep``; without
it, every unknown is kept. Both exact solvers order the kept unknowns
last, eliminate everything else first, and back-substitute only the kept
rows, which depend on nothing eliminated before them (PARAM reads the
initial state's value off this way). Only the kept rows are returned, in
ascending order. Float mode solves in full and returns the same rows, so
its bits do not depend on ``keep``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import SingularSystemError

#: Exact systems go to sparse elimination when ``a`` has at most this many
#: nonzeros per row on average. Set from timings of both solvers on
#: absorbing blocks: past it the fill grows faster in rationals than
#: Bareiss's integer work.
SPARSE_ROW_NNZ = 4


def _read(rows, b, n):
    """The exact system as one dict per row of reduced ``(numerator, denominator)`` pairs.

    Row ``i`` holds ``rows[i]``'s entries at their columns and the nonzero
    entries of ``b[i]``, right-hand side ``c`` at column ``n + c``. Each
    entry is read once, by ``as_integer_ratio()``, so the pair is reduced
    and its denominator positive; a zero right-hand side is not read.
    """
    return [
        {j: x.as_integer_ratio() for j, x in chain(row.items(), enumerate(b_row, n)) if j < n or x}
        for row, b_row in zip(rows, b)
    ]


def solve_exact(rows, b, keep=None):
    """Solve ``a @ x = b`` exactly by Bareiss elimination; entries are Fractions or ints.

    ``rows``, ``b`` and ``keep`` are as in :func:`solve`, and so is the
    result. The kept columns go last, so the last ``len(keep)`` rows of the
    triangular system hold them alone and only those rows are
    back-substituted. Each column pivots on the first row at or below the
    diagonal with a nonzero entry, swapped up; every Bareiss division is
    exact in any pivot order, so no larger pivot is searched for.

    A row with a zero in the pivot column is left alone: the step would
    only rescale it by ``pivot / previous pivot``, and such factors
    telescope, so the row records the pivot it is current to and is
    rescaled once, by the previous pivot over that one, when a later step
    changes it (folded into that step's division) or when it becomes the
    pivot row. The rescaled row is the Bareiss row, whose entries are
    minors of the integer matrix, so the division is exact. A row current
    to the step's own pivot is updated only in the pivot row's nonzero
    columns: a zero there leaves its entry as it is. Pivot rows are always
    current, so back-substitution reads them as they are.

    Raises :class:`SingularSystemError` when a column has no nonzero entry
    left to pivot on.
    """
    n = len(rows)
    keep = range(n) if keep is None else keep
    k = len(b[0]) if b else 0
    width = n + k
    first = n - len(keep)  # the first row back-substituted
    # The kept columns go last; right-hand-side columns keep their place.
    at = {j: c for c, j in enumerate(sorted(range(n), key=lambda j: j in keep))}

    # Clear denominators row by row: the augmented matrix becomes integral,
    # which is what makes the Bareiss divisions exact.
    m = [[0] * width for _ in rows]
    for m_row, row in zip(m, _read(rows, b, n)):
        scale = lcm(*[d for _, d in row.values()])
        for j, (num, den) in row.items():
            m_row[at.get(j, j)] = num * (scale // den)

    # level[r] is the pivot row r is current to: the Bareiss row is m[r]
    # times prev / level[r], an integer row (Sylvester's identity).
    level = [1] * n
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise SingularSystemError(f"no pivot in column {col}")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            level[col], level[piv] = level[piv], level[col]
        row_c = m[col]
        lev = level[col]
        if lev != prev:
            for j in range(col, width):
                row_c[j] = row_c[j] * prev // lev
        pivval = row_c[col]
        nonzero = None
        for r in range(col + 1, n):
            row_r = m[r]
            factor = row_r[col]
            if not factor:
                continue  # a rescale only, left to the row's next update
            lev = level[r]
            level[r] = pivval
            if lev == pivval:
                # A zero in the pivot row leaves the entry as it is.
                if nonzero is None:
                    nonzero = [j for j in range(col + 1, width) if row_c[j]]
                for j in nonzero:
                    row_r[j] -= factor * row_c[j] // lev
            else:
                # The rescale by prev / lev and the step's division by prev, in one.
                for j in range(col + 1, width):
                    row_r[j] = (row_r[j] * pivval - factor * row_c[j]) // lev
            row_r[col] = 0
        prev = pivval

    # Back-substitution in integers. By Cramer's rule x_i = X_i / det with
    # X_i an integer and det the last pivot, so each division is exact.
    det = prev
    out = [[None] * k for _ in range(first, n)]
    for c in range(k):
        xs = [0] * n
        for i in range(n - 1, first - 1, -1):
            row = m[i]
            acc = det * row[n + c]
            for j in range(i + 1, n):
                acc -= row[j] * xs[j]
            xs[i] = acc // row[i]
            out[i - first][c] = Fraction(xs[i], det)
    return out


def solve_float(a, b, keep=None):
    """Solve ``a @ x = b`` in 64-bit floats by ``numpy.linalg.solve``.

    ``a`` is one n-by-n numpy array of floats, taken as it is; ``b`` and
    ``keep`` are as in :func:`solve`, and so is the result. The full system
    is solved whatever ``keep`` says, so the kept rows are bit for bit those
    of the full solution. A singular ``a`` raises
    :class:`SingularSystemError`.
    """
    import numpy as np

    try:
        x = np.linalg.solve(a, np.asarray(b, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    x = x.tolist()
    return x if keep is None else [x[i] for i in sorted(keep)]


def eliminate(rows, b, keep=None):
    """Solve the sparse system ``rows`` by state elimination.

    ``rows``, ``b`` and ``keep`` are as in :func:`solve`, and so is the
    result; entries are ints or Fractions. Each row is read (``_read``)
    into its own dict, with right-hand side ``c`` as column ``n + c`` after
    the unknowns, so ``b`` is eliminated with the matrix and its nonzeros
    count in a row's cost. The unknown eliminated next is the one of least
    Markowitz cost ``(row nonzeros - 1) * (column nonzeros - 1)``, the
    lowest index among equals, always on its diagonal; the unknowns in the
    set ``keep`` are pinned last, after every other one. Each unknown's
    current cost is kept in one list, ``None`` once it is eliminated, and
    its ``keep`` flag is read once. After a pivot only the rows it updated
    and the columns of its row can have a new cost, and an entry
    ``(pinned, cost, index)`` is pushed onto the heap only for one whose
    cost changed; a popped entry is stale when its cost differs from the
    list, as a finished unknown's ``None`` always does. So the pivot is
    always the least ``(pinned, cost, index)`` over the live unknowns, with
    no push for a cost that stayed the same. Back-substitution runs in
    reverse elimination order and skips solution entries that are zero;
    only the kept rows are back-substituted: an unknown's reduced row holds
    only unknowns eliminated after it.

    Raises :class:`SingularSystemError` when a diagonal pivot is zero,
    which never happens on a nonsingular M-matrix such as the analyses'
    ``I - Q``, or its transpose, in any order.

    The arithmetic runs on the reader's reduced ``(numerator,
    denominator)`` pairs. Elimination applies Henrici's rule (JACM 1956)
    inline, as ``Fraction`` itself does: a product cancels each numerator
    against the other factor's denominator first, and a sum divides by the
    gcd of the denominators before it multiplies, then reduces by what that
    gcd still shares with the new numerator. Both keep every pair reduced
    without a gcd over the full-size result. Back-substitution needs no
    such rule: each result column is one short sum, of the row's
    right-hand side and the unreduced products ``-a_pj x_j``, added as
    integers over the lcm of their denominators. The Fraction constructor
    reduces that sum over the pivot with the one gcd it takes in any case.
    """
    n = len(rows)
    keep = range(n) if keep is None else keep
    k = len(b[0]) if b else 0
    rows = _read(rows, b, n)
    holders = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            if j < n:
                holders[j].add(i)

    pinned = [u in keep for u in range(n)]
    costs = [(len(row) - 1) * (len(hold) - 1) for row, hold in zip(rows, holders)]
    heap = list(zip(pinned, costs, range(n)))
    heapq.heapify(heap)
    order = []
    while heap:
        _, c, p = heapq.heappop(heap)
        if c != costs[p]:
            continue  # a stale entry: p is done (cost None) or its cost changed
        row = rows[p]
        pn, pd = row.pop(p, (0, 1))
        if not pn:
            raise SingularSystemError(f"zero pivot for unknown {p}")
        costs[p] = None
        order.append((p, pn, pd))
        holders[p].discard(p)
        items = row.items()
        for r in holders[p]:
            target = rows[r]
            # target -= (t / pivot) * row, as target += m * row, m = -t / pivot
            tn, td = target.pop(p)
            g1 = gcd(tn, pn)
            g2 = gcd(td, pd)
            mn = tn // g1 * (pd // g2)
            md = td // g2 * (pn // g1)
            if md > 0:
                mn = -mn
            else:
                md = -md
            for j, (vn, vd) in items:
                g1 = gcd(mn, vd)
                g2 = gcd(vn, md)
                an = mn // g1 * (vn // g2)
                ad = md // g2 * (vd // g1)
                old = target.get(j)
                if old is None:
                    target[j] = (an, ad)
                    if j < n:
                        holders[j].add(r)
                    continue
                bn, bd = old
                g = gcd(bd, ad)
                if g == 1:
                    target[j] = (bn * ad + an * bd, bd * ad)
                    continue
                s = bd // g
                t = bn * (ad // g) + an * s
                g2 = gcd(t, g)
                if g2 == 1:
                    target[j] = (t, s * ad)
                else:
                    target[j] = (t // g2, s * (ad // g2))
        for j in row:
            if j < n:
                holders[j].discard(p)
        for u in holders[p].union(j for j in row if j < n):
            c = (len(rows[u]) - 1) * (len(holders[u]) - 1)
            if c != costs[u]:
                costs[u] = c
                heapq.heappush(heap, (pinned[u], c, u))
    # x_p = (b_p - sum_j a_pj x_j) / pivot, over the columns eliminated after p:
    # each column's terms are added over their lcm, and the Fraction takes one gcd.
    x = [None] * n
    out = [None] * n
    for p, pn, pd in reversed(order[n - len(keep):]):
        row = rows[p]
        coeffs = [(x[j], vn, vd) for j, (vn, vd) in row.items() if j < n]
        sol = []
        for c in range(k):
            terms = [row.get(n + c, (0, 1))]
            for xj, vn, vd in coeffs:
                xn, xd = xj[c]
                if xn:
                    terms.append((-vn * xn, vd * xd))
            den = lcm(*[d for _, d in terms])
            sol.append(Fraction(sum([t * (den // d) for t, d in terms]) * pd, den * pn))
        out[p] = sol
        x[p] = [(v.numerator, v.denominator) for v in sol]
    return [out[p] for p in sorted(keep)]


def solve(rows, b, mode, keep=None):
    """Solve ``a @ x = b`` in ``mode``'s arithmetic.

    ``rows`` is ``a``: in exact mode a list whose ``rows[i]`` maps column
    ``j`` to the nonzero ``a[i][j]``, in float mode one n-by-n numpy array
    of floats. ``b`` is the n-by-k right-hand-side matrix, a list of rows.
    ``keep`` is the set of unknowns whose rows are returned, in ascending
    order; ``None`` keeps every unknown, so the full n-by-k solution comes
    back. The exact solvers back-substitute the kept rows alone. Neither
    ``rows`` nor ``b`` is changed. Exact systems with at most
    ``SPARSE_ROW_NNZ`` nonzeros per row on average go to :func:`eliminate`,
    whatever the width of ``b``, the rest to :func:`solve_exact`; float
    systems to :func:`solve_float`. The analyses' systems have one column,
    or one per start state or per outcome. A mode other than ``"exact"`` or
    ``"float"`` raises ``ValueError``.
    """
    if mode == "float":
        return solve_float(rows, b, keep)
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if sum(map(len, rows)) > SPARSE_ROW_NNZ * len(rows):
        return solve_exact(rows, b, keep)
    return eliminate(rows, b, keep)

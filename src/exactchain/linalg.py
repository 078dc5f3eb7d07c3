"""Direct linear solvers backing the chain analyses.

The systems solved here are `(I - Q) x = b` style absorption equations with
at most a few hundred unknowns, so direct elimination is enough. Both exact
solvers take and return dense lists of rows; :func:`solve` picks one by the
system's shape.

Sparse systems, such as ZeroConf's path of probes with back edges to its
start, go to state elimination (Daws 2004; Hahn, Hermanns & Zhang, PARAM
2011). The rows become dicts of their nonzeros and each step eliminates
the unknown of least Markowitz cost on its diagonal, without pivoting, so
the fill-in stays near the system's own nonzeros where dense elimination
fills the whole matrix. No pivot vanishes on the nonsingular M-matrices
``I - Q`` (or their transposes) that the analyses build; on any other
system a zero pivot hands over to Bareiss. The arithmetic is ``+ - * /``
and a zero test, so the same routine works over any exact field.

Everything else goes to fraction-free (Bareiss) Gaussian elimination over
integers, after clearing denominators row by row; this keeps intermediate
values from exploding the way naive rational elimination can, and wins on
dense blocks. Back-substitution stays in integers too: every unknown is an
integer over the last Bareiss pivot, the determinant (Bareiss 1968), so
the only rationals built are the results. Float mode delegates to numpy,
which is imported on the first non-empty float solve, so exact work never
loads it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import compress, count, repeat
from math import lcm
from operator import is_not

from .errors import SingularSystemError

#: Exact systems go to sparse elimination when ``a`` has at most this many
#: nonzeros per row on average. Set from timings of both solvers on
#: absorbing blocks: past it the fill grows faster in Fractions than
#: Bareiss's integer work.
SPARSE_ROW_NNZ = 4


def solve_exact(a, b):
    """Solve ``a @ x = b`` exactly; entries are Fractions or ints.

    ``a`` is an n-by-n matrix (list of rows), ``b`` an n-by-k right-hand-side
    matrix. Returns the n-by-k solution with Fraction entries.

    Raises :class:`SingularSystemError` when no pivot can be found.
    """
    n = len(a)
    if n == 0:
        return []
    k = len(b[0]) if b else 0
    width = n + k

    # Clear denominators row by row: the augmented matrix becomes integral,
    # which is what makes the Bareiss divisions exact.
    m = []
    for i in range(n):
        row = [*a[i], *b[i]]
        scale = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])

    prev = 1
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            raise SingularSystemError(f"no pivot in column {col}")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        pivval = m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col]
            row_r = m[r]
            row_c = m[col]
            for j in range(col + 1, width):
                row_r[j] = (row_r[j] * pivval - factor * row_c[j]) // prev
            row_r[col] = 0
        prev = pivval

    # Back-substitution in integers. By Cramer's rule x_i = X_i / det with
    # X_i an integer and det the last pivot, so each division is exact.
    det = prev
    out = [[None] * k for _ in range(n)]
    for c in range(k):
        col_idx = n + c
        xs = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            acc = det * row[col_idx]
            for j in range(i + 1, n):
                acc -= row[j] * xs[j]
            xs[i] = acc // row[i]
            out[i][c] = Fraction(xs[i], det)
    return out


def solve_float(a, b):
    """Solve ``a @ x = b`` in 64-bit floats. Shapes as in :func:`solve_exact`."""
    n = len(a)
    if n == 0:
        return []
    import numpy as np

    try:
        x = np.linalg.solve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    return x.tolist()


def _sparse_rows(a, b, budget):
    """The rows of ``[a | b]`` as ``{column: Fraction}`` dicts of their nonzeros.

    Column ``j < n`` is unknown ``j`` and column ``n + c`` is right-hand side
    ``c``. Returns None once ``a`` has more than ``budget`` nonzeros. The
    zeros of a dense matrix are mostly one shared object, so the first zero
    found is skipped by identity, at C speed, and only the other entries
    are tested.
    """
    n = len(a)
    zero = None
    rows = []
    for a_row, b_row in zip(a, b):
        row = {}
        for offset, values in ((0, a_row), (n, b_row)):
            keep = list(map(is_not, values, repeat(zero)))
            for j, x in zip(compress(count(offset), keep), compress(values, keep)):
                if x:
                    row[j] = x if type(x) is Fraction else Fraction(x)
                elif zero is None:
                    zero = x
            if not offset:
                budget -= len(row)
                if budget < 0:
                    return None
        rows.append(row)
    return rows


def eliminate(rows, n, k):
    """Solve the sparse system ``rows`` by state elimination, or None.

    ``rows[i]`` maps column ``j < n`` to the coefficient of unknown ``j``
    in equation ``i`` and column ``n + c`` to right-hand side ``c``; absent
    entries are zero. The dicts are consumed. The unknown eliminated next
    is the one of least Markowitz cost ``(row nonzeros - 1) * (column
    nonzeros - 1)``, the lowest index among equals, always on its diagonal;
    back-substitution runs in reverse elimination order. Returns the
    n-by-k solution, or None when a diagonal pivot is zero.

    Only ``+ - * /`` and a zero test touch the entries, so any exact field
    works. With integer entries ``/`` is float division: load Fractions.
    """
    holders = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            if j < n:
                holders[j].add(i)

    def cost(u):
        return ((len(rows[u]) - 1) * (len(holders[u]) - 1), u)

    heap = [cost(u) for u in range(n)]
    heapq.heapify(heap)
    done = [False] * n
    order = []
    while heap:
        entry = heapq.heappop(heap)
        p = entry[1]
        if done[p] or entry != cost(p):
            continue  # a stale entry: p's cost changed after it was pushed
        row = rows[p]
        piv = row.pop(p, 0)
        if not piv:
            return None
        done[p] = True
        order.append((p, piv))
        holders[p].discard(p)
        for r in holders[p]:
            target = rows[r]
            f = target.pop(p) / piv
            for j, v in row.items():
                if j in target:
                    target[j] -= f * v
                else:
                    target[j] = -f * v
                    if j < n:
                        holders[j].add(r)
        for j in row:
            if j < n:
                holders[j].discard(p)
        for u in holders[p].union(j for j in row if j < n):
            heapq.heappush(heap, cost(u))
    x = [None] * n
    for p, piv in reversed(order):
        row = rows[p]
        sol = []
        for c in range(n, n + k):
            acc = row.get(c, 0)
            for j, v in row.items():
                if j < n:
                    acc -= v * x[j][c - n]
            sol.append(acc / piv)
        x[p] = sol
    return x


def solve_sparse(a, b):
    """Solve ``a @ x = b`` exactly by sparse state elimination; see :func:`eliminate`.

    Shapes and result as in :func:`solve_exact`, except that a vanishing
    diagonal pivot returns None.
    """
    n = len(a)
    return eliminate(_sparse_rows(a, b, n * n), n, len(b[0]) if b else 0)


def solve(a, b, mode):
    """Solve ``a @ x = b`` in ``mode``'s arithmetic; shapes as in :func:`solve_exact`.

    Exact systems with at most ``SPARSE_ROW_NNZ`` nonzeros per row of ``a``
    on average go to :func:`eliminate`, whatever the width of ``b``; the
    rest, and those that meet a zero pivot there, go to :func:`solve_exact`.
    The analyses' systems have one column, or one per start state.
    """
    if mode != "exact":
        return solve_float(a, b)
    n = len(a)
    if n:
        rows = _sparse_rows(a, b, SPARSE_ROW_NNZ * n)
        if rows is not None:
            x = eliminate(rows, n, len(b[0]))
            if x is not None:
                return x
    return solve_exact(a, b)

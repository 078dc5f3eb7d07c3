"""Direct linear solvers backing the chain analyses.

The systems solved here are `(I - Q) x = b` style absorption equations with
at most a few hundred unknowns, so direct elimination is enough.
:func:`solve` takes the rows of the matrix as dicts of their nonzeros, the
right-hand sides as a dense list of rows, and picks a solver by the
system's shape; every solver returns a dense list of solution rows.

Sparse systems, such as ZeroConf's path of probes with back edges to its
start, go to state elimination (Daws 2004; Hahn, Hermanns & Zhang, PARAM
2011) on those rows: each step eliminates the unknown of least Markowitz
cost on its diagonal, without pivoting, so the fill-in stays near the
system's own nonzeros where dense elimination fills the whole matrix. No
pivot vanishes on the nonsingular M-matrices ``I - Q`` (or their
transposes) that the analyses build; a zero pivot raises
:class:`SingularSystemError`. The arithmetic is ``+ - * /`` and a zero
test, so the same routine works over any exact field.

Everything else is made dense once and goes to fraction-free (Bareiss)
Gaussian elimination over integers, after clearing denominators row by
row; this keeps intermediate values from exploding the way naive rational
elimination can, and wins on dense blocks. Back-substitution stays in
integers too: every unknown is an integer over the last Bareiss pivot, the
determinant (Bareiss 1968), so the only rationals built are the results.
Float mode fills a numpy matrix from the rows and delegates to numpy,
which is imported on the first non-empty float solve, so exact work never
loads it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm

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


def solve_float(rows, b):
    """Solve ``a @ x = b`` in 64-bit floats; ``rows`` as in :func:`solve`, ``b`` dense."""
    n = len(rows)
    if n == 0:
        return []
    import numpy as np

    a = np.zeros((n, n))
    a.flat[[i * n + j for i, row in enumerate(rows) for j in row]] = [
        x for row in rows for x in row.values()
    ]
    try:
        x = np.linalg.solve(a, np.asarray(b, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    return x.tolist()


def eliminate(rows, n, k):
    """Solve the sparse system ``rows`` by state elimination.

    ``rows[i]`` maps column ``j < n`` to the coefficient of unknown ``j``
    in equation ``i`` and column ``n + c`` to right-hand side ``c``; absent
    entries are zero. The dicts are consumed. The unknown eliminated next
    is the one of least Markowitz cost ``(row nonzeros - 1) * (column
    nonzeros - 1)``, the lowest index among equals, always on its diagonal;
    back-substitution runs in reverse elimination order. Returns the
    n-by-k solution.

    Raises :class:`SingularSystemError` when a diagonal pivot is zero,
    which never happens on a nonsingular M-matrix such as the analyses'
    ``I - Q``, or its transpose, in any order.

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
            raise SingularSystemError(f"zero pivot for unknown {p}")
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


def solve(rows, b, mode):
    """Solve ``a @ x = b`` in ``mode``'s arithmetic.

    ``rows[i]`` maps column ``j`` to the nonzero ``a[i][j]``; ``b`` is the
    n-by-k right-hand-side matrix, a list of rows. Returns the n-by-k
    solution. Exact systems with at most ``SPARSE_ROW_NNZ`` nonzeros per
    row on average take ``b``'s nonzeros into their rows as columns
    ``n + c`` and go to :func:`eliminate`, whatever the width of ``b``;
    the rest are made dense once for :func:`solve_exact`. Exact solves
    consume the dicts. The analyses' systems have one column, or one per
    start state.
    """
    if mode != "exact":
        return solve_float(rows, b)
    n = len(rows)
    if sum(map(len, rows)) > SPARSE_ROW_NNZ * n:
        a = [[0] * n for _ in rows]
        for dense, row in zip(a, rows):
            for j, x in row.items():
                dense[j] = x
        return solve_exact(a, b)
    for row, b_row in zip(rows, b):
        for c, x in enumerate(b_row, n):
            if x:
                row[c] = x
    return eliminate(rows, n, len(b[0]) if b else 0)

"""Small dense linear solvers backing the chain analyses.

The systems solved here are `(I - Q) x = b` style absorption equations with
at most a few hundred unknowns, so direct elimination is enough. Exact mode
clears denominators row by row and runs fraction-free (Bareiss) Gaussian
elimination over integers, which keeps intermediate values from exploding
the way naive rational elimination can. Back-substitution stays in integers
too: every unknown is an integer over the last Bareiss pivot, the
determinant (Bareiss 1968), so the only rationals built are the results.
Float mode delegates to numpy.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import SingularSystemError


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
    try:
        x = np.linalg.solve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    return x.tolist()


def solve(a, b, mode):
    return solve_exact(a, b) if mode == "exact" else solve_float(a, b)

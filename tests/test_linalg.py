import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactchain.errors import SingularSystemError
from exactchain.linalg import solve_exact, solve_float


def matmul(a, x):
    return [
        [sum(a[i][k] * x[k][j] for k in range(len(x))) for j in range(len(x[0]))]
        for i in range(len(a))
    ]


def test_hand_solved_system():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [[F(5)], [F(10)]]
    x = solve_exact(a, b)
    assert x == [[F(1)], [F(3)]]


def test_exact_solutions_verify_on_random_systems():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 6)
        k = rng.randint(1, 3)
        a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        b = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)] for _ in range(n)]
        try:
            x = solve_exact(a, b)
        except SingularSystemError:
            continue
        assert matmul(a, x) == b


def test_pivoting_handles_leading_zero():
    a = [[F(0), F(1)], [F(1), F(0)]]
    b = [[F(4)], [F(7)]]
    assert solve_exact(a, b) == [[F(7)], [F(4)]]


def test_singular_system_raises():
    a = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(SingularSystemError):
        solve_exact(a, [[F(1)], [F(1)]])
    with pytest.raises(SingularSystemError):
        solve_float([[1.0, 2.0], [2.0, 4.0]], [[1.0], [1.0]])


def test_float_solver_matches_exact():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) + (1 if i == j else 0)
              for j in range(n)] for i in range(n)]
        b = [[F(rng.randint(-9, 9))] for _ in range(n)]
        try:
            exact = solve_exact(a, b)
        except SingularSystemError:
            continue
        approx = solve_float([[float(v) for v in row] for row in a],
                             [[float(v) for v in row] for row in b])
        for i in range(n):
            assert approx[i][0] == pytest.approx(float(exact[i][0]), rel=1e-9, abs=1e-12)


def test_empty_system():
    assert solve_exact([], []) == []


def reference_solve(a, b):
    """Gauss-Jordan elimination in Fractions; None for a singular ``a``."""
    n = len(a)
    m = [[F(x) for x in a[i]] + [F(x) for x in b[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [[m[i][n + c] / m[i][i] for c in range(len(b[0]))] for i in range(n)]


ENTRY = st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=9))


@st.composite
def systems(draw):
    """A random square system; some entries and whole RHS columns are zero."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    a = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    b = [[draw(ENTRY) for _ in range(k)] for _ in range(n)]
    for c in draw(st.sets(st.integers(0, k - 1), max_size=k - 1)):
        for row in b:
            row[c] = F(0)
    return a, b


@settings(max_examples=150, deadline=None)
@given(systems())
@example(([[F(-3, 2)]], [[F(1)]]))  # n = 1, negative determinant
@example(([[F(0), F(1)], [F(1), F(0)]], [[F(4), F(0)], [F(7), F(0)]]))  # swap, zero column
@example(([[0, 2, 1], [3, 0, 0], [1, 1, -1]], [[1], [0], [2]]))  # int entries
@example(([[F(1, 3), F(2, 3)], [F(2, 5), F(1, 7)]], [[F(0)], [F(0)]]))  # zero RHS
def test_solve_exact_matches_reference_elimination(system):
    a, b = system
    expected = reference_solve(a, b)
    if expected is None:
        with pytest.raises(SingularSystemError):
            solve_exact(a, b)
        return
    x = solve_exact(a, b)
    assert matmul(a, x) == [[F(v) for v in row] for row in b]
    assert x == expected
    assert all(type(v) is F for row in x for v in row)


def test_solve_exact_builds_only_the_results_as_fractions(monkeypatch):
    # Clearing denominators and back-substitution stay in integers: the
    # n * k result entries are the only Fractions constructed.
    rng = random.Random(3)
    n, k = 6, 2
    a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) + 10 * (i == j) for j in range(n)]
         for i in range(n)]
    b = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)] for _ in range(n)]
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    x = solve_exact(a, b)
    monkeypatch.undo()
    assert len(made) == n * k
    assert matmul(a, x) == b

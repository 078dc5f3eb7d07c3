import contextlib
import copy
import random
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactchain import analysis, crowds, linalg, zeroconf
from exactchain.errors import SingularSystemError
from exactchain.linalg import eliminate, solve_exact, solve_float
from _support import (
    near_one_chain, prime_chain, random_chain, random_query, random_reward, recording,
)


def sparse(a):
    """The rows of the dense matrix ``a`` as dicts of their nonzeros."""
    return [{j: v for j, v in enumerate(row) if v} for row in a]


def dense(rows):
    """The square matrix whose nonzeros ``rows`` holds."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


def matmul(a, x):
    return [
        [sum(a[i][k] * x[k][j] for k in range(len(x))) for j in range(len(x[0]))]
        for i in range(len(a))
    ]


def test_hand_solved_system():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [[F(5)], [F(10)]]
    x = solve_exact(sparse(a), b)
    assert x == [[F(1)], [F(3)]]


def test_exact_solutions_verify_on_random_systems():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 6)
        k = rng.randint(1, 3)
        a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        b = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)] for _ in range(n)]
        try:
            x = solve_exact(sparse(a), b)
        except SingularSystemError:
            continue
        assert matmul(a, x) == b


def test_pivoting_handles_leading_zero():
    a = [[F(0), F(1)], [F(1), F(0)]]
    b = [[F(4)], [F(7)]]
    assert solve_exact(sparse(a), b) == [[F(7)], [F(4)]]


def test_singular_system_raises():
    a = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(SingularSystemError):
        solve_exact(sparse(a), [[F(1)], [F(1)]])
    with pytest.raises(SingularSystemError):
        solve_float(np.array([[1.0, 2.0], [2.0, 4.0]]), [[1.0], [1.0]])


def test_float_solver_matches_exact():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) + (1 if i == j else 0)
              for j in range(n)] for i in range(n)]
        b = [[F(rng.randint(-9, 9))] for _ in range(n)]
        try:
            exact = solve_exact(sparse(a), b)
        except SingularSystemError:
            continue
        approx = solve_float(np.array(a, dtype=float), [[float(v) for v in row] for row in b])
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
    # Bareiss on arbitrary systems; the dispatcher, which does not pivot on
    # sparse ones, is checked on absorbing blocks below.
    a, b = system
    expected = reference_solve(a, b)
    if expected is None:
        with pytest.raises(SingularSystemError):
            solve_exact(sparse(a), b)
        return
    x = solve_exact(sparse(a), b)
    assert matmul(a, x) == [[F(v) for v in row] for row in b]
    assert x == expected
    assert all(type(v) is F for row in x for v in row)


WEIGHT = st.one_of(st.just(0), st.just(0), st.integers(1, 9))


@st.composite
def zero_heavy_systems(draw):
    """``(a, b, keep, order)`` with ``a = I - Q`` full of zeros.

    Each row of ``Q`` is a row of weights over one more, positive, exit
    weight, so every state leaves: ``a`` is strictly diagonally dominant
    and no pivot vanishes, in Bareiss or in state elimination. The zeros
    come in one of three shapes: absorbing blocks, where no row reaches an
    earlier block, so each row is zero in the columns of the blocks before
    its own; rows that hold only their diagonal; and near-duplicate rows,
    which share one row of weights over their own exit weights, like
    Crowds' Mix rows. ``order`` is the row order handed to Bareiss, so rows
    left alone are also swapped up as pivots.
    """
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["blocks", "diagonal", "duplicates"]))
    weights = [[draw(WEIGHT) for _ in range(n)] for _ in range(n)]
    if shape == "blocks":
        starts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
        block = [sum(i >= s for s in starts) for i in range(n)]
        weights = [[w * (block[j] >= block[i]) for j, w in enumerate(row)]
                   for i, row in enumerate(weights)]
    elif shape == "diagonal":
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            weights[i] = [weights[i][i] * (j == i) for j in range(n)]
    else:
        weights = [list(weights[0]) for _ in range(n)]
    a = []
    for i, row in enumerate(weights):
        total = sum(row) + draw(st.integers(1, 9))
        a.append([(i == j) - F(w, total) for j, w in enumerate(row)])
    b = [[F(draw(WEIGHT), 9) for _ in range(k)] for _ in range(n)]
    keep = draw(st.sets(st.integers(0, n - 1)))
    order = draw(st.permutations(range(n)))
    return a, b, keep, order


@settings(max_examples=200, deadline=None)
@given(zero_heavy_systems())
# Rows 3 and 4 have zeros under the first three pivots: row 4 is left
# alone for three steps before its update, and row 3 becomes the pivot row
# before any step has changed it.
@example(([[1, F(-1, 2), F(-1, 4), 0, F(-1, 8)],
           [F(-1, 3), 1, F(-1, 3), F(-1, 6), 0],
           [F(-1, 5), F(-1, 5), 1, F(-1, 5), F(-1, 5)],
           [0, 0, 0, 1, F(-1, 2)],
           [0, 0, 0, F(-1, 4), 1]],
          [[F(1, 8)], [F(1, 6)], [F(1, 5)], [F(1, 2)], [F(3, 4)]], {3, 4}, range(5)))
# Row 2 holds only its diagonal: left alone for two steps, it becomes the
# pivot row and its pivot equals the one before, so row 3, updated at
# both earlier steps, is updated only where row 2 is nonzero.
@example(([[1, F(-1, 2), 0, F(-1, 4)],
           [F(-1, 2), 1, F(-1, 4), 0],
           [0, 0, 1, 0],
           [F(-1, 3), F(-1, 3), F(-1, 3), 1]],
          [[F(1, 4)], [F(1, 4)], [1], [0]], {2, 3}, range(4)))
def test_bareiss_equals_state_elimination_on_zero_heavy_systems(system):
    # Bareiss leaves a row with a zero in the pivot column alone and
    # rescales it once, when a later step changes it or it becomes the
    # pivot row; every result must be the one state elimination gives.
    a, b, keep, order = system
    rows = sparse(a)
    full = reference_solve(a, b)
    for kept in (None, keep):
        x = solve_exact([rows[i] for i in order], [b[i] for i in order], kept)
        assert repr(x) == repr(eliminate(rows, b, kept))
        assert x == [full[i] for i in sorted(range(len(a)) if kept is None else kept)]


def test_solve_exact_builds_only_the_results_as_fractions(monkeypatch):
    # Clearing denominators and back-substitution stay in integers: the
    # n * k result entries are the only Fractions constructed.
    rng = random.Random(3)
    n, k = 6, 2
    a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) + 10 * (i == j) for j in range(n)]
         for i in range(n)]
    b = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)] for _ in range(n)]
    rows = sparse(a)
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    x = solve_exact(rows, b)
    monkeypatch.undo()
    assert len(made) == n * k
    assert matmul(a, x) == b


def test_both_exact_kernels_read_the_system_once_through_one_reader():
    # Each entry becomes a reduced int pair, right-hand side c at column
    # n + c; a zero right-hand side is not read.
    rows, b = [{0: F(2), 1: F(-2, 6)}, {1: 1}], [[F(0), F(1, 2)], [1, F(0)]]
    assert linalg._read(rows, b, 2) == [{0: (2, 1), 1: (-1, 3), 3: (1, 2)}, {1: (1, 1), 2: (1, 1)}]
    for kernel in (solve_exact, eliminate):
        with recording(linalg, "_read") as calls:
            assert kernel(rows, b) == [[F(1, 6), F(1, 4)], [F(1), F(0)]]
        assert len(calls) == 1


def test_exact_dispatch_survives_zero_pivots():
    # Bareiss pivots past a missing diagonal; state elimination, which
    # never pivots, reports it.
    x = solve_exact([{1: 1}, {0: 1}], [[4], [7]])
    assert x == [[F(7)], [F(4)]]
    assert all(type(v) is F for row in x for v in row)
    with pytest.raises(SingularSystemError):
        eliminate([{1: F(1)}, {0: F(1)}], [[F(4)], [F(7)]])
    # A pivot that cancels to zero: the system is singular.
    with pytest.raises(SingularSystemError):
        solve_exact([{0: 1, 1: -1}, {0: -1, 1: 1}], [[1], [0]])
    with pytest.raises(SingularSystemError):
        linalg.solve(sparse([[F(1), F(-1)], [F(-1), F(1)]]), [[F(1)], [F(0)]], "exact")


def test_sparse_elimination_gives_fractions_for_integer_input():
    # Integer-valued Fractions and ints in, Fractions out.
    a = [[F(2), F(-1), 0], [0, F(3), F(-1)], [F(-1), 0, F(4)]]
    b = [[1, 0], [0, 0], [2, 5]]
    x = linalg.solve(sparse(a), b, "exact")
    assert x == solve_exact(sparse(a), b)
    assert all(type(v) is F for row in x for v in row)


def captured_systems(run):
    """Call ``run()`` and return the ``(rows, b)`` of every solve in it."""
    with recording(linalg, "solve") as calls:
        run()
    return [(call["rows"], call["b"]) for call in calls]


def block_systems(chain, rchain, rng):
    """The ``(rows, b)`` of every solve behind the until, hitting-time, cost
    and entry-edge queries on ``chain``."""
    phi, psi, start = random_query(rng, chain)

    def run():
        analysis.until_probabilities(chain, phi, psi)
        analysis.expected_hitting_time(chain, psi, start)
        analysis.expected_cost_until(rchain, psi, start)
        if start not in psi:
            analysis.entry_edge_distribution(chain, psi, start)

    return captured_systems(run)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 20),
       shape=st.sampled_from(["width2", "width3", "dense", "near_one", "prime"]))
def test_sparse_elimination_equals_bareiss_on_absorbing_blocks(seed, n_states, shape):
    # Every block is I - Q for states that all leave it with positive
    # probability, a nonsingular M-matrix: no diagonal pivot vanishes. The
    # prime shape's rows lie over distinct primes, so the lcm that each
    # back-substituted column is added over grows fastest there.
    rng = random.Random(seed)
    if shape == "near_one":
        chain = near_one_chain(rng, n_states)
    elif shape == "prime":
        chain = prime_chain(rng, n_states)
    else:
        width = {"width2": 2, "width3": 3, "dense": n_states}[shape]
        chain = random_chain(rng, n_states, max_out=width)
    rchain = random_reward(rng, n_states, chain=chain)
    for rows, b in block_systems(chain, rchain, rng):
        a = dense(rows)
        expected = solve_exact(rows, b)
        assert repr(eliminate(rows, b)) == repr(expected)
        # The dispatcher, whichever solver it picks.
        x = linalg.solve(rows, b, "exact")
        assert matmul(a, x) == b
        assert x == reference_solve(a, b)
        assert all(type(v) is F for row in x for v in row)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 16),
       shape=st.sampled_from(["width2", "dense", "near_one"]), data=st.data())
def test_kept_rows_equal_the_full_solution_on_absorbing_blocks(seed, n_states, shape, data):
    # keep pins the kept unknowns last and back-substitutes them alone; the
    # rows returned are those of the full solve, on both exact paths and in
    # floats, where the full system is solved whatever keep says.
    rng = random.Random(seed)
    if shape == "near_one":
        chain = near_one_chain(rng, n_states)
    else:
        chain = random_chain(rng, n_states, max_out={"width2": 2, "dense": n_states}[shape])
    rchain = random_reward(rng, n_states, chain=chain)
    for rows, b in block_systems(chain, rchain, rng):
        keep = data.draw(st.sets(st.integers(0, len(rows) - 1)))
        full = solve_exact(rows, b)
        want = repr([full[i] for i in sorted(keep)])
        assert repr(solve_exact(rows, b, keep)) == want
        assert repr(eliminate(rows, b, keep)) == want
        assert repr(linalg.solve(rows, b, "exact", keep=keep)) == want
        float_a = np.array(dense(rows), dtype=float)
        float_b = [[float(v) for v in row] for row in b]
        full = linalg.solve(float_a, float_b, "float")
        kept = linalg.solve(float_a, float_b, "float", keep=keep)
        assert repr(kept) == repr([full[i] for i in sorted(keep)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 16),
       shape=st.sampled_from(["width2", "dense", "near_one"]), data=st.data())
def test_solve_leaves_its_inputs_unchanged(seed, n_states, shape, data):
    # Each solver reads rows and b into its own working form: on the sparse
    # and the Bareiss path and in floats, with and without keep.
    rng = random.Random(seed)
    if shape == "near_one":
        chain = near_one_chain(rng, n_states)
    else:
        chain = random_chain(rng, n_states, max_out={"width2": 2, "dense": n_states}[shape])
    rchain = random_reward(rng, n_states, chain=chain)
    for rows, b in block_systems(chain, rchain, rng):
        keep = data.draw(st.none() | st.sets(st.integers(0, len(rows) - 1)))
        float_a = np.array(dense(rows), dtype=float)
        float_b = [[float(v) for v in row] for row in b]
        for mode, system in (("exact", (rows, b)), ("float", (float_a, float_b))):
            before = copy.deepcopy(system)
            linalg.solve(*system, mode, keep=keep)
            assert all(map(np.array_equal, system, before))


def test_kept_rows_are_the_only_ones_back_substituted(monkeypatch):
    # One kept unknown of a path-shaped block: each exact solver builds only
    # that row's k Fractions, so no other row is back-substituted.
    n, k = 12, 2
    rows = [{i: F(1), (i + 1) % n: F(-1, 2)} for i in range(n)]
    b = [[F(1, 2), F(i % 3, 5)] for i in range(n)]
    full = solve_exact(rows, b)
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    sparse_x = eliminate(rows, b, {5})
    dense_x = solve_exact(rows, b, {5})
    monkeypatch.undo()
    assert sparse_x == dense_x == [full[5]]
    assert len(made) == 2 * k


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__abs__")


def test_eliminate_builds_only_the_results_as_fractions(monkeypatch):
    # Entries are read as int pairs and the kernel runs on ints: no Fraction
    # arithmetic at all, and the n * k results are the only Fractions built.
    rng = random.Random(4)
    chain = random_chain(rng, 30, max_out=2)
    systems = [(rows, b) for rows, b in block_systems(chain, random_reward(rng, 30, chain=chain), rng)
               if sum(map(len, rows)) <= linalg.SPARSE_ROW_NNZ * len(rows)]
    assert len(systems) >= 2
    for width, (rows, b) in enumerate(systems[:2], 1):
        n = len(rows)
        b = [[*row, F(i % 5, 3)][:width] for i, row in enumerate(b)]
        made = []
        used = []
        new = F.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
        for name in FRACTION_ARITHMETIC:
            def counted(*args, _name=name, _op=getattr(F, name)):
                used.append(_name)
                return _op(*args)
            monkeypatch.setattr(F, name, counted)
        x = eliminate(rows, b)
        monkeypatch.undo()
        assert used == []
        assert len(made) == n * width
        assert matmul(dense(rows), x) == b


def big_int_guard_systems():
    """``(rows, b)`` behind an exact ZeroConf report at N = 200, p = 1/100
    (about 2,700-bit solutions), and behind the queries on a near-one chain."""
    base = zeroconf.PAPER_TYPICAL
    params = zeroconf.ZeroconfParams(200, F(1, 100), base.q, base.r, base.E)
    systems = captured_systems(lambda: zeroconf.zeroconf_report(params))
    rng = random.Random(17)
    chain = near_one_chain(rng, 16)
    return systems + block_systems(chain, random_reward(rng, 16, chain=chain), rng)


def test_eliminate_equals_bareiss_on_big_integer_blocks():
    # Each system is also solved as an equivalent one: every row scaled to
    # integer entries, every other row negated (negative pivots), and the
    # right-hand side widened by a zero column and one more column.
    for rows, b in big_int_guard_systems():
        b = [[*row, 0, F(i % 7 - 3, 11)] for i, row in enumerate(b)]
        k = len(b[0])
        expected = solve_exact(rows, b)
        assert repr(eliminate(rows, b)) == repr(expected)
        scaled_rows, scaled_b = [], []
        for i, (row, b_row) in enumerate(zip(rows, b)):
            scale = (-1) ** i * lcm(*(F(v).denominator for v in [*row.values(), *b_row]))
            scaled_rows.append({j: int(v * scale) for j, v in row.items()})
            scaled_b.append([int(v * scale) for v in b_row])
        assert any(row[i] < 0 for i, row in enumerate(scaled_rows))
        x = eliminate(scaled_rows, scaled_b)
        assert repr(x) == repr(expected)
        assert all(type(v) is F and v.denominator > 0 for row in x for v in row)
        assert all(row[k - 2] == 0 for row in x)


@contextlib.contextmanager
def kernels_used():
    """Yield a list that, after the block, names the exact kernel of each
    solve in it: "sparse" for each ``eliminate`` call, then "bareiss" for
    each ``solve_exact`` call."""
    used = []
    with recording(linalg, "eliminate") as sparse, recording(linalg, "solve_exact") as bareiss:
        yield used
    used += ["sparse"] * len(sparse) + ["bareiss"] * len(bareiss)


def test_dispatch_sends_path_blocks_sparse_and_dense_blocks_to_bareiss():
    base = zeroconf.PAPER_TYPICAL
    with kernels_used() as used:
        zeroconf.zeroconf_report(zeroconf.ZeroconfParams(50, base.p, base.q, base.r, base.E))
    assert used == ["sparse", "sparse"]
    with kernels_used() as used:
        crowds.crowds_report(crowds.make_params(20, 4, F(4, 5)))
    assert used and set(used) == {"bareiss"}
    # An entry-edge law solves for expected visits, one column per start,
    # however many boundary edges there are: a path-shaped block goes sparse.
    chain = random_chain(random.Random(7), 20, max_out=2)
    with kernels_used() as used, recording(linalg, "solve") as calls:
        edge = analysis.entry_edge_distribution(chain, {"s18", "s19"}, "s0")
    widths = [len(call["b"][0]) for call in calls]
    assert len(edge.mass) > 2
    assert widths == [1]
    assert used == ["sparse"]


class PivotLog(dict):
    """A row of ``linalg._read`` that logs each pop of its own unknown's index.

    ``eliminate`` pops an unknown's diagonal from its row when it pivots on
    it, and pops only other columns from the rows it updates, so the log is
    the pivot order.
    """

    def __init__(self, entries, index, log):
        super().__init__(entries)
        self.index = index
        self.log = log

    def pop(self, key, *default):
        if key == self.index:
            self.log.append(key)
        return super().pop(key, *default)


def reference_pivot_order(rows, b, keep):
    """The pivot order of least ``(pinned, (row nnz - 1) * (column nnz - 1), index)``,
    each live unknown's cost recomputed anew at every step.

    Fill is simulated on sets of columns, right-hand side ``c`` at column
    ``n + c`` for each nonzero ``b`` entry: eliminating ``p`` puts its row's
    other columns into every live row that holds ``p``, and takes ``p`` out.
    """
    n = len(rows)
    keep = range(n) if keep is None else keep
    pattern = [set(row) | {n + c for c, x in enumerate(b_row) if x} for row, b_row in zip(rows, b)]
    live = set(range(n))
    order = []
    while live:
        def cost(u):
            holders = sum(u in pattern[i] for i in live)
            return (u in keep, (len(pattern[u]) - 1) * (holders - 1), u)

        p = min(live, key=cost)
        order.append(p)
        live.remove(p)
        for r in live:
            if p in pattern[r]:
                pattern[r] |= pattern[p]
                pattern[r].discard(p)
    return order


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 24),
       shape=st.sampled_from(["width2", "width3", "near_one"]), data=st.data())
def test_eliminate_pivots_in_the_markowitz_order_recomputed_at_every_step(
        seed, n_states, shape, data):
    # eliminate keeps one cost per unknown and pushes a heap entry only when
    # a cost changes; its pivots must still be the least costs recomputed
    # over every live unknown at each step.
    rng = random.Random(seed)
    if shape == "near_one":
        chain = near_one_chain(rng, n_states)
    else:
        chain = random_chain(rng, n_states, max_out={"width2": 2, "width3": 3}[shape])
    rchain = random_reward(rng, n_states, chain=chain)
    log = []
    read = linalg._read

    def logging_read(rows, b, n):
        return [PivotLog(row, i, log) for i, row in enumerate(read(rows, b, n))]

    for rows, b in block_systems(chain, rchain, rng):
        keep = data.draw(st.none() | st.sets(st.integers(0, len(rows) - 1)))
        log.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_read", logging_read)
            x = eliminate(rows, b, keep)
        assert log == reference_pivot_order(rows, b, keep)
        assert repr(x) == repr(solve_exact(rows, b, keep))

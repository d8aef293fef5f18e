"""Exact rational matrices: ranks, kernels, solves, dense and sparse."""

import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from conhoch import RationalMatrix
from conhoch.linalg import sparse_rank, sparse_solve


def F(a, b=1):
    return Fraction(a, b)


def test_rank_examples():
    assert RationalMatrix([[F(1), F(0)], [F(0), F(1)]]).rank() == 2
    assert RationalMatrix([[F(1), F(2)], [F(2), F(4)]]).rank() == 1
    assert RationalMatrix([[F(0), F(0)]]).rank() == 0
    assert RationalMatrix([], cols=3).rank() == 0


def test_rank_with_fractions():
    m = RationalMatrix([[F(1, 2), F(1, 3)], [F(3, 2), F(1)], [F(2), F(4, 3)]])
    assert m.rank() == 1


def test_kernel_examples():
    m = RationalMatrix([[F(1), F(2), F(3)], [F(0), F(1), F(1)]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    for row in m.entries:
        assert sum(a * b for a, b in zip(row, v)) == 0
    assert RationalMatrix([[F(1), F(0)], [F(0), F(1)]]).kernel_basis() == []


def test_solve_examples():
    m = RationalMatrix([[F(2), F(0)], [F(0), F(3)]])
    assert m.solve([F(1), F(1)]) == [F(1, 2), F(1, 3)]
    inconsistent = RationalMatrix([[F(1), F(1)], [F(1), F(1)]])
    assert inconsistent.solve([F(0), F(1)]) is None
    underdetermined = RationalMatrix([[F(1), F(1)]])
    x = underdetermined.solve([F(5)])
    assert x is not None and x[0] + x[1] == 5


def test_rank_routes_agree_randomized():
    # fraction-free elimination vs reduced echelon pivot count
    rng = random.Random(500)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = RationalMatrix([[F(rng.randint(-3, 3), rng.randint(1, 3))
                             for _ in range(cols)] for _ in range(rows)])
        _, pivots = m.rref()
        assert m.rank() == len(pivots)
        assert m.rank() + len(m.kernel_basis()) == cols


def test_solve_satisfies_system_randomized():
    rng = random.Random(501)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = RationalMatrix([[F(rng.randint(-3, 3)) for _ in range(cols)]
                            for _ in range(rows)])
        x_true = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(cols)]
        rhs = [sum(row[j] * x_true[j] for j in range(cols)) for row in m.entries]
        x = m.solve(rhs)
        assert x is not None
        for i, row in enumerate(m.entries):
            assert sum(row[j] * x[j] for j in range(cols)) == rhs[i]


def test_from_columns():
    m = RationalMatrix.from_columns([[F(1), F(2)], [F(3), F(4)]], rows=2)
    assert m.entries == [[F(1), F(3)], [F(2), F(4)]]
    assert m.column(0) == [F(1), F(2)]


# ---------------------------------------------------------------------------
# the sparse kernel against the dense reference
# ---------------------------------------------------------------------------

@st.composite
def small_matrices(draw, denominators=(1,)):
    """(rows, cols, entries) with entries in [-3, 3] over the given
    denominators; empty shapes and zero columns come up often."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    entry = st.builds(F, st.integers(-3, 3), st.sampled_from(denominators))
    entries = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return rows, cols, entries


def _sparse_columns(rows, cols, entries):
    """Columns keyed by row index; zero entries are kept in every other
    column to check that the kernel ignores them."""
    return [{i: entries[i][j] for i in range(rows) if j % 2 or entries[i][j]}
            for j in range(cols)]


@given(small_matrices())
@example((0, 3, []))
@example((2, 2, [[F(0), F(0)], [F(0), F(0)]]))
def test_sparse_rank_matches_dense(matrix):
    rows, cols, entries = matrix
    integer_columns = [{k: int(v) for k, v in col.items()}
                       for col in _sparse_columns(rows, cols, entries)]
    assert sparse_rank(integer_columns) == RationalMatrix(entries, cols=cols).rank()


@given(small_matrices(denominators=(1, 2, 3)), st.data())
@example((0, 2, []), None)
def test_sparse_solve_matches_dense(matrix, data):
    rows, cols, entries = matrix
    if data is None:
        rhs = []
    elif data.draw(st.booleans()):
        # a consistent system, so that both branches come up often
        x = data.draw(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols))
        rhs = [sum((row[j] * x[j] for j in range(cols)), F(0)) for row in entries]
    else:
        rhs = data.draw(st.lists(st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
                                 min_size=rows, max_size=rows))
    dense = RationalMatrix(entries, cols=cols).solve(rhs)
    sparse = sparse_solve(_sparse_columns(rows, cols, entries), dict(enumerate(rhs)))
    assert sparse == dense

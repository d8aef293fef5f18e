"""Exact rational matrices: ranks and solves, the sparse kernel against the
dense reference."""

import copy
import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from conhoch.dense import RationalMatrix
from conhoch.linalg import _echelon, sparse_rank, sparse_solve


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


# ---------------------------------------------------------------------------
# invariants of the in-place reduction
# ---------------------------------------------------------------------------

@given(small_matrices(denominators=(1, 2, 3)), st.data())
def test_the_kernel_leaves_its_input_unchanged(matrix, data):
    # the reduction writes in place, but only into dicts the kernel built
    rows, cols, entries = matrix
    columns = _sparse_columns(rows, cols, entries)
    rhs = dict(enumerate(data.draw(st.lists(st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
                                            min_size=rows, max_size=rows))))
    before = copy.deepcopy((columns, rhs))
    sparse_rank(columns)
    sparse_solve(columns, rhs)
    assert (columns, rhs) == before


@given(small_matrices(denominators=(1, 2, 3)))
def test_pivots_are_positive_at_their_row_and_zero_at_earlier_rows(matrix):
    pivots, _ = _echelon(_sparse_columns(*matrix), track=True)
    for i, (row, vec, _) in enumerate(pivots):
        assert vec[row] > 0
        assert 0 not in vec.values()
        assert not {earlier for earlier, _, _ in pivots[:i]} & vec.keys()


@given(small_matrices(denominators=(1, 2, 3)))
def test_each_pivot_combination_rebuilds_it(matrix):
    # sum_j combo[j] * (column j at its integer scale) is the pivot vector
    columns = _sparse_columns(*matrix)
    pivots, scales = _echelon(columns, track=True)
    for _, vec, combo in pivots:
        rebuilt = {}
        for j, c in combo.items():
            for k, x in columns[j].items():
                rebuilt[k] = rebuilt.get(k, 0) + c * scales[j] * x
        assert {k: x for k, x in rebuilt.items() if x} == vec

"""Exact rational matrices: ranks and solves, the sparse kernel against the
dense reference."""

import copy
import random
from fractions import Fraction

import pytest
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
def small_matrices(draw):
    """(rows, cols, entries) with integral Fraction entries in [-3, 3];
    empty shapes and zero columns come up often."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    entry = st.builds(F, st.integers(-3, 3))
    entries = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return rows, cols, entries


def _sparse_columns(rows, cols, entries):
    """The kernel's integer columns, keyed by row index; zero entries are
    kept in every other column to check that the kernel ignores them."""
    return [{i: int(entries[i][j]) for i in range(rows) if j % 2 or entries[i][j]}
            for j in range(cols)]


def _rational_rhs(rows):
    """A right-hand side over denominators 1-3, the one input a solve scales."""
    return st.lists(st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
                    min_size=rows, max_size=rows)


@given(small_matrices())
@example((0, 3, []))
@example((2, 2, [[F(0), F(0)], [F(0), F(0)]]))
def test_sparse_rank_matches_dense(matrix):
    rows, cols, entries = matrix
    assert sparse_rank(_sparse_columns(rows, cols, entries)) == \
        RationalMatrix(entries, cols=cols).rank()


@given(small_matrices(), st.data())
@example((0, 2, []), None)
def test_sparse_solve_matches_dense(matrix, data):
    rows, cols, entries = matrix
    if data is None:
        rhs = []
    elif data.draw(st.booleans()):
        # a consistent system, so that both branches come up often
        x = data.draw(st.lists(st.builds(F, st.integers(-2, 2), st.integers(1, 3)),
                               min_size=cols, max_size=cols))
        rhs = [sum((row[j] * x[j] for j in range(cols)), F(0)) for row in entries]
    else:
        rhs = data.draw(_rational_rhs(rows))
    dense = RationalMatrix(entries, cols=cols).solve(rhs)
    sparse = sparse_solve(_sparse_columns(rows, cols, entries), dict(enumerate(rhs)))
    assert sparse == dense


@pytest.mark.parametrize("bad", [F(1, 2), F(2), 2.0], ids=["fraction", "integral-fraction", "float"])
@pytest.mark.parametrize("columns", [
    lambda bad: [{0: bad}],                  # a first column
    lambda bad: [{0: 1}, {0: bad, 1: 1}],    # met at an earlier pivot's row
    lambda bad: [{0: 1}, {1: bad}],          # left over after the reduction
], ids=["first", "at-pivot-row", "off-pivot-rows"])
def test_non_integer_column_entries_raise_type_error(bad, columns):
    with pytest.raises(TypeError):
        sparse_rank(columns(bad))
    with pytest.raises(TypeError):
        sparse_solve(columns(bad), {0: F(1)})


# ---------------------------------------------------------------------------
# invariants of the in-place reduction
# ---------------------------------------------------------------------------

@given(small_matrices(), st.data())
def test_the_kernel_leaves_its_input_unchanged(matrix, data):
    # the reduction writes in place, but only into dicts the kernel built
    rows, cols, entries = matrix
    columns = _sparse_columns(rows, cols, entries)
    rhs = dict(enumerate(data.draw(_rational_rhs(rows))))
    before = copy.deepcopy((columns, rhs))
    sparse_rank(columns)
    sparse_solve(columns, rhs)
    assert (columns, rhs) == before


@given(small_matrices())
def test_pivots_are_positive_at_their_row_and_zero_at_earlier_rows(matrix):
    pivots = _echelon(_sparse_columns(*matrix), track=True)
    for i, (row, vec, _) in enumerate(pivots):
        assert vec[row] > 0
        assert 0 not in vec.values()
        assert not {earlier for earlier, _, _ in pivots[:i]} & vec.keys()


@given(small_matrices())
def test_each_pivot_row_is_the_first_least_entry(matrix):
    # dividing by the content keeps which entries are least, and where
    for row, vec, _ in _echelon(_sparse_columns(*matrix), track=True):
        least = min(map(abs, vec.values()))
        assert row == next(k for k, x in vec.items() if abs(x) == least)


@given(small_matrices())
def test_each_pivot_combination_rebuilds_it(matrix):
    # sum_j combo[j] * column j is the pivot vector
    columns = _sparse_columns(*matrix)
    for _, vec, combo in _echelon(columns, track=True):
        rebuilt = {}
        for j, c in combo.items():
            for k, x in columns[j].items():
                rebuilt[k] = rebuilt.get(k, 0) + c * x
        assert {k: x for k, x in rebuilt.items() if x} == vec

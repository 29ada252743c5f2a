"""Exact matrix arithmetic and nullspace extraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from springer_rca import DimensionError, Params
from springer_rca.linalg import RatMat
from springer_rca.verify import Truncation, kernel_y, singular_vectors, stabilization_degree


def reference_rref(m):
    """Dense Gauss-Jordan elimination: the reference the sparse route matches.

    Returns the dense reduced rows (zero rows last) and the pivot columns.
    """
    rows = m.dense()
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, m.nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return rows, pivots


def reference_nullspace(m):
    rows, pivots = reference_rref(m)
    pivot_set = set(pivots)
    basis = []
    for fc in range(m.ncols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * m.ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def mat(rows):
    out = RatMat(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = v
    return out


def test_basic_arithmetic():
    a = mat([[1, 2], [0, 1]])
    b = mat([[0, 1], [1, 0]])
    assert (a + b).dense() == mat([[1, 3], [1, 1]]).dense()
    assert (a - a).entries == {}
    assert (a @ b).dense() == mat([[2, 1], [1, 0]]).dense()
    assert a.scaled(Fraction(1, 2))[0, 1] == 1
    assert a.matvec([1, 1]) == [3, 1]
    assert RatMat.identity(3).rank() == 3


def test_shape_checks():
    with pytest.raises(DimensionError):
        mat([[1]]) + mat([[1, 2]])
    with pytest.raises(DimensionError):
        mat([[1, 2]]) @ mat([[1, 2]])
    with pytest.raises(DimensionError):
        mat([[1, 2]]).matvec([1])
    with pytest.raises(IndexError):
        mat([[1]])[2, 0] = 1


def test_zero_entries_dropped():
    a = mat([[1]])
    a[0, 0] = 0
    assert a.entries == {}


def test_nullspace_known_kernel():
    # rank-1 matrix with an obvious kernel line
    a = mat([[1, 2], [2, 4]])
    basis = a.nullspace()
    assert basis == [[Fraction(-2), Fraction(1)]]
    assert a.rank() == 1


def test_nullspace_full_rank():
    assert mat([[1, 1], [0, 3]]).nullspace() == []


def test_nullspace_rectangular():
    a = mat([[1, 1, 1], [0, 1, 2]])
    basis = a.nullspace()
    assert len(basis) == 1
    assert all(v == 0 for v in a.matvec(basis[0]))


def test_nullspace_verified_by_multiplication():
    a = mat(
        [
            [Fraction(1, 2), 1, 0, 2],
            [0, Fraction(2, 3), 1, 1],
            [Fraction(1, 2), Fraction(5, 3), 1, 3],
        ]
    )
    basis = a.nullspace()
    assert len(basis) == 4 - a.rank()
    for vec in basis:
        assert all(v == 0 for v in a.matvec(vec))


def test_empty_shapes():
    tall = RatMat(0, 3)
    assert tall.nullspace() == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    wide = RatMat(3, 0)
    assert wide.nullspace() == []
    assert tall.rank() == 0


def test_vstack():
    a = mat([[1, 2]])
    b = mat([[3, 4], [5, 6]])
    stacked = RatMat.vstack([a, b])
    assert stacked.dense() == mat([[1, 2], [3, 4], [5, 6]]).dense()
    with pytest.raises(DimensionError):
        RatMat.vstack([a, mat([[1]])])


@st.composite
def sparse_matrices(draw):
    """Small sparse rational matrices, often rank-deficient.

    Covers empty shapes, zero rows and columns, repeated rows and rows that
    are combinations of earlier ones.
    """
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    values = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    if nrows and ncols:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        for (i, j), v in draw(st.dictionaries(cells, values, max_size=2 * ncols)).items():
            rows[i][j] = v
    for i in range(1, nrows):
        kind = draw(st.sampled_from(["keep", "keep", "repeat", "combine"]))
        if kind == "repeat":
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
        elif kind == "combine":
            a, b = draw(values), draw(values)
            j, l = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
    out = RatMat(nrows, ncols)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = v
    return out


@settings(deadline=None)
@given(sparse_matrices())
def test_sparse_rref_matches_dense_reference(m):
    ref_rows, ref_pivots = reference_rref(m)
    rows, pivots = m.rref()
    assert pivots == ref_pivots
    assert len(rows) == len(pivots)
    for row, ref_row in zip(rows, ref_rows):
        assert row == {j: v for j, v in enumerate(ref_row) if v != 0}
    assert m.rank() == len(ref_pivots)
    basis = m.nullspace()
    assert basis == reference_nullspace(m)
    for vec in basis:
        assert all(v == 0 for v in m.matvec(vec))


def _reference_kernels(blocks_at, basis):
    vectors = []
    for d in basis.degrees():
        if basis.dim(d):
            stacked = RatMat.vstack(blocks_at(d))
            vectors.extend((d, tuple(vec)) for vec in reference_nullspace(stacked))
    return vectors


@pytest.mark.parametrize("n,k,D", [(3, 4, 12), (4, 5, 14)])
def test_singular_vector_kernels_match_reference(n, k, D):
    params = Params(n, k)
    reference = Truncation(params, D)
    lowering = [reference.monopole(-1, r) for r in range(1, n + 1)]
    expected = _reference_kernels(
        lambda d: [op.block(d) for op in lowering], reference.basis
    )
    assert singular_vectors(Truncation(params, D)).vectors == expected


@pytest.mark.parametrize("n,k", [(2, 7), (3, 4)])
def test_kernel_y_kernels_match_reference(n, k):
    params = Params(n, k)
    D = stabilization_degree(params)
    reference = Truncation(params, D)
    y = reference.y
    expected = _reference_kernels(lambda d: [y.block(d)], reference.basis)
    assert kernel_y(Truncation(params, D)).vectors == expected

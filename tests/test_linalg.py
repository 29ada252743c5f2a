"""Exact matrix arithmetic and nullspace extraction."""

import gc
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from springer_rca import DimensionError, InvariantError, Params
from springer_rca.linalg import PRIME, RatMat
from springer_rca.verify import Truncation, kernel_y, singular_vectors, stabilization_degree


def dense(m):
    """The rows of ``m`` as lists of Fractions."""
    rows = [[Fraction(0)] * m.ncols for _ in range(m.nrows)]
    for (i, j), value in m.entries.items():
        rows[i][j] = value
    return rows


class FractionMat:
    """Reference arithmetic: a {(i, j): Fraction} dict of nonzero entries.

    This is the representation ``RatMat`` had before it moved to integer
    numerators over one block denominator; every operation builds and
    normalizes a Fraction per term.
    """

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        for key, value in (entries or {}).items():
            value = Fraction(value)
            if value != 0:
                self.entries[key] = value

    @classmethod
    def of(cls, m):
        return cls(m.nrows, m.ncols, dict(m.entries))

    def __getitem__(self, key):
        return self.entries.get(key, Fraction(0))

    def __add__(self, other):
        out = FractionMat(self.nrows, self.ncols, self.entries)
        for key, value in other.entries.items():
            total = out[key] + value
            if total == 0:
                out.entries.pop(key, None)
            else:
                out.entries[key] = total
        return out

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        c = Fraction(c)
        return FractionMat(
            self.nrows, self.ncols, {key: c * v for key, v in self.entries.items()}
        )

    def __matmul__(self, other):
        by_row = {}
        for (i, j), value in other.entries.items():
            by_row.setdefault(i, []).append((j, value))
        acc = {}
        for (i, l), a in self.entries.items():
            for j, b in by_row.get(l, ()):
                key = (i, j)
                acc[key] = acc.get(key, Fraction(0)) + a * b
        return FractionMat(self.nrows, other.ncols, acc)

    def matvec(self, vec):
        out = [Fraction(0)] * self.nrows
        for (i, j), value in self.entries.items():
            out[i] += value * vec[j]
        return out

    @classmethod
    def vstack(cls, mats):
        entries = {}
        offset = 0
        for m in mats:
            for (i, j), value in m.entries.items():
                entries[offset + i, j] = value
            offset += m.nrows
        return cls(offset, mats[0].ncols, entries)


def reference_rref(m):
    """Dense Gauss-Jordan elimination: the reference the sparse route matches.

    Returns the dense reduced rows (zero rows last) and the pivot columns.
    """
    rows = dense(m)
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
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    return RatMat(len(rows), len(rows[0]) if rows else 0, entries)


def eye(n):
    return mat([[int(i == j) for j in range(n)] for i in range(n)])


def test_basic_arithmetic():
    a = mat([[1, 2], [0, 1]])
    b = mat([[0, 1], [1, 0]])
    assert dense(a + b) == dense(mat([[1, 3], [1, 1]]))
    assert (a - a).entries == {}
    assert dense(a @ b) == dense(mat([[2, 1], [1, 0]]))
    assert a.scaled(Fraction(1, 2))[0, 1] == 1
    assert a.matvec([1, 1]) == [3, 1]
    assert len(eye(3).rref()[1]) == 3


INEXACT = [0.1, "1/3"]


@pytest.mark.parametrize("value", INEXACT)
def test_entries_must_be_exact(value):
    with pytest.raises(TypeError, match=type(value).__name__):
        RatMat(1, 1, {(0, 0): value})


@pytest.mark.parametrize("value", INEXACT)
def test_scalar_must_be_exact(value):
    with pytest.raises(TypeError, match=type(value).__name__):
        eye(2).scaled(value)


def test_shape_checks():
    with pytest.raises(DimensionError):
        mat([[1]]) + mat([[1, 2]])
    with pytest.raises(DimensionError):
        mat([[1, 2]]) @ mat([[1, 2]])
    with pytest.raises(DimensionError):
        mat([[1, 2]]).matvec([1])
    with pytest.raises(IndexError):
        RatMat(1, 1, {(2, 0): 1})


def test_zero_entries_dropped():
    a = mat([[1]])
    assert (a - a).entries == {}
    assert RatMat(1, 1, {(0, 0): 0}).entries == {}


def test_out_of_shape_reads_alias_no_other_cell():
    # (0, 5) is past the end of row 0 of a 3 x 5 matrix, not entry (1, 0)
    m = RatMat(3, 5, {(1, 0): Fraction(7, 2)})
    assert m[1, 0] == Fraction(7, 2)
    assert m[0, 5] == 0 and m[-1, 0] == 0 and m[3, 0] == 0
    assert (1, 0) in m.entries and (0, 5) not in m.entries
    with pytest.raises(KeyError):
        m.entries[0, 5]


def test_entries_is_a_snapshot():
    m = RatMat(3, 5, {(1, 0): Fraction(7, 2), (2, 4): Fraction(-1, 3)})
    entries = m.entries
    assert entries == {(1, 0): Fraction(7, 2), (2, 4): Fraction(-1, 3)}
    entries[1, 0] = Fraction(5)
    entries[0, 0] = Fraction(1)
    del entries[2, 4]
    assert m[1, 0] == Fraction(7, 2) and m[0, 0] == 0 and m[2, 4] == Fraction(-1, 3)
    assert m.entries == {(1, 0): Fraction(7, 2), (2, 4): Fraction(-1, 3)}
    assert (0, 5) not in m.entries and (3, 0) not in m.entries


def test_nullspace_known_kernel():
    # rank-1 matrix with an obvious kernel line
    a = mat([[1, 2], [2, 4]])
    basis = a.nullspace()
    assert basis == [[Fraction(-2), Fraction(1)]]
    assert len(a.rref()[1]) == 1


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
    assert len(basis) == 4 - len(a.rref()[1])
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
    assert len(tall.rref()[1]) == 0


def test_vstack():
    a = mat([[1, 2]])
    b = mat([[3, 4], [5, 6]])
    stacked = RatMat.vstack([a, b])
    assert dense(stacked) == dense(mat([[1, 2], [3, 4], [5, 6]]))
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
    return mat(rows) if nrows else RatMat(0, ncols)


@settings(deadline=None)
@given(sparse_matrices())
def test_sparse_rref_matches_dense_reference(m):
    ref_rows, ref_pivots = reference_rref(m)
    rows, pivots = m.rref()
    assert pivots == ref_pivots
    assert len(rows) == len(pivots)
    for row, ref_row in zip(rows, ref_rows):
        assert row == {j: v for j, v in enumerate(ref_row) if v != 0}
    assert len(m.rref()[1]) == len(ref_pivots)
    basis = m.nullspace()
    assert basis == reference_nullspace(m)
    for vec in basis:
        assert all(v == 0 for v in m.matvec(vec))


@settings(deadline=None)
@given(sparse_matrices(), st.sampled_from([2, 3, 5, 7, PRIME]))
def test_rank_mod_never_exceeds_rank(m, p):
    assert m.rank_mod(p) <= len(m.rref()[1])


def test_rank_mod_drops_at_a_prime_dividing_the_numerators():
    m = mat([[2, 4], [Fraction(1, 3), 1]])  # numerators [[6, 12], [1, 3]]
    assert (len(m.rref()[1]), m.rank_mod(PRIME), m.rank_mod(3), m.rank_mod(2)) == (2, 2, 1, 1)
    assert mat([[2]]).rank_mod(2) == 0
    assert RatMat(3, 0).rank_mod(PRIME) == RatMat(0, 3).rank_mod(PRIME) == 0


def assert_canonical(m):
    """Integer numerators over one positive denominator, in lowest terms."""
    assert isinstance(m.den, int) and m.den > 0
    assert all(isinstance(v, int) and v != 0 for v in m.num.values())
    assert gcd(m.den, *m.num.values()) == 1
    assert all(0 <= key < m.nrows * m.ncols for key in m.num)


def assert_matches(m, ref):
    assert_canonical(m)
    assert m.shape == (ref.nrows, ref.ncols)
    assert dict(m.entries) == ref.entries
    assert m == RatMat(ref.nrows, ref.ncols, ref.entries)


_values = st.fractions(min_value=-7, max_value=7, max_denominator=12)


@st.composite
def _matrices(draw, nrows, ncols):
    if not (nrows and ncols):
        return RatMat(nrows, ncols)
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    entries = draw(st.dictionaries(cells, _values, max_size=nrows * ncols))
    return RatMat(nrows, ncols, entries)


@st.composite
def arithmetic_cases(draw):
    """Two same-shape matrices, a right factor, a vector, a scalar and a stack."""
    r, c, s = (draw(st.integers(0, 6)) for _ in range(3))
    a, b = draw(_matrices(r, c)), draw(_matrices(r, c))
    right = draw(_matrices(c, s))
    extra = draw(_matrices(draw(st.integers(0, 4)), c))
    vec = draw(st.lists(_values, min_size=c, max_size=c))
    return a, b, right, extra, vec, draw(_values)


@settings(deadline=None)
@given(arithmetic_cases())
def test_arithmetic_matches_fraction_reference(case):
    a, b, right, extra, vec, c = case
    ra, rb, rright, rextra = map(FractionMat.of, (a, b, right, extra))
    for m in (a, b, right, extra):
        assert_canonical(m)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a.scaled(c), ra.scaled(c))
    assert_matches(a @ right, ra @ rright)
    assert_matches(RatMat.vstack([a, extra, b]), FractionMat.vstack([ra, rextra, rb]))
    assert (a == b) == (ra.entries == rb.entries)
    assert a == a.scaled(1) and a + b == b + a
    assert a.matvec(vec) == ra.matvec(vec)
    for i in range(a.nrows):
        for j in range(a.ncols):
            assert a[i, j] == ra[i, j]
            assert type(a[i, j]) is Fraction


def test_equal_matrices_built_two_ways():
    direct = RatMat(2, 2, {(0, 0): Fraction(1, 2)})
    half = eye(2).scaled(Fraction(1, 2))
    cleared = half - RatMat(2, 2, {(1, 1): Fraction(1, 2)})
    assert cleared == direct
    assert (cleared.num, cleared.den) == (direct.num, direct.den) == ({0: 1}, 2)
    ratios = RatMat.from_ratios(2, 2, {(0, 0): (3, 6), (1, 1): (0, 5)})
    assert ratios == direct
    assert RatMat(3, 3).den == (eye(3) - eye(3)).den == 1


def test_nonpositive_denominator_raises():
    for q in (0, -2):
        with pytest.raises(InvariantError, match="nonpositive denominator"):
            RatMat.from_ratios(2, 2, {(0, 0): (1, 3), (1, 0): (1, q)})


@pytest.mark.parametrize("size", [20, 60])
def test_block_arithmetic_builds_no_fraction_per_entry(size, monkeypatch):
    # ten entries per row (200 at size 20), with denominators up to 7
    cells = [(i, (3 * i + t) % size) for i in range(size) for t in range(10)]
    a = RatMat(size, size, {(i, j): Fraction(i + j + 1, 1 + (i + j) % 7) for i, j in cells})
    b = RatMat(size, size, {(j, i): Fraction(i - j - 1, 1 + i % 5) for i, j in cells})
    c = Fraction(3, 5)
    calls = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    results = [a @ b, a + b, a - b, a.scaled(c), RatMat.vstack([a, b]), a == b]
    monkeypatch.undo()
    assert len(a.num) >= 200 and a.den > 1 and b.den > 1
    assert len(calls) <= 1
    ra, rb = FractionMat.of(a), FractionMat.of(b)
    assert_matches(results[0], ra @ rb)
    assert_matches(results[3], ra.scaled(c))


@pytest.mark.parametrize(
    "n,k,D,names",
    [(5, 7, 30, ["x", "y"]), (2, 23, 120, ["x", "y", "e", "f", "h"])],
)
def test_stored_nonzero_memory(n, k, D, names):
    # traced bytes, not RSS: the bound must not depend on the host.  An
    # (i, j) tuple key per nonzero read 133 and 151 bytes here.
    run = Truncation(Params(n, k), D)
    run.basis
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ops = [getattr(run, name) for name in names]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nnz = sum(len(block.entries) for op in ops for block in op.blocks.values())
    assert retained / nnz <= 115


def _reference_kernels(blocks_at, basis):
    return [
        reference_nullspace(RatMat.vstack(blocks_at(d))) if basis.dim(d) else []
        for d in basis.degrees()
    ]


@pytest.mark.parametrize("n,k,D", [(3, 4, 12), (4, 5, 14)])
def test_singular_vector_kernels_match_reference(n, k, D):
    params = Params(n, k)
    reference = Truncation(params, D)
    lowering = [reference.monopole(-1, r) for r in range(1, n + 1)]
    expected = _reference_kernels(
        lambda d: [op.block(d) for op in lowering], reference.basis
    )
    assert singular_vectors(Truncation(params, D)) == expected


@pytest.mark.parametrize("n,k", [(2, 7), (3, 4)])
def test_kernel_y_kernels_match_reference(n, k):
    params = Params(n, k)
    D = stabilization_degree(params)
    reference = Truncation(params, D)
    y = reference.y
    expected = _reference_kernels(lambda d: [y.block(d)], reference.basis)
    assert kernel_y(Truncation(params, D)) == expected

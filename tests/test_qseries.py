"""q-series identities, Betti polynomials, and dimension formulas."""

from itertools import zip_longest
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from springer_rca import (
    Params,
    UnsupportedParametersError,
    compactified_jacobian_dim,
    enumerate_fixed_points,
    euler_series,
    qbinomial,
)


def is_palindromic(coeffs):
    return coeffs == coeffs[::-1]


def poly_add(p, q):
    """Sum of two coefficient lists, trailing zeros trimmed."""
    out = [a + b for a, b in zip_longest(p, q, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def pascal_qbinomial(a, b):
    """Reference [a choose b]_q by the Pascal recurrence, as a coefficient list."""
    # row[j] holds [i choose j]_q while i sweeps upward
    row = [[1]] + [[]] * b
    for i in range(1, a + 1):
        for j in range(min(i, b), 0, -1):
            # [i,j] = [i-1,j-1] + q^j [i-1,j]
            row[j] = poly_add(row[j - 1], [0] * j + row[j])
    return row[b]


def betti_2k(k, m):
    """Poincare polynomial of the degree-m component for the x^2 = t^k curve.

    ``m`` is the (nonpositive) lattice degree; the component for odd
    k = 2l+1 is projective space P^min(floor(|m|/2), l).  For even k = 2l it
    is P^floor(|m|/2) while |m| <= 2l, and for |m| > 2l a chain of
    c = |m| - 2l + 1 copies of P^l glued transversely at points, with
    b_0 = 1 and b_{2i} = c for 1 <= i <= l.  Returns the coefficient tuple.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if m > 0:
        raise ValueError("component degree m must be nonpositive")
    size = -m
    ell = k // 2
    if k % 2 == 1:
        dim = min(size // 2, ell)
        return tuple(1 if i % 2 == 0 else 0 for i in range(2 * dim + 1))
    if size <= 2 * ell:
        dim = size // 2
        return tuple(1 if i % 2 == 0 else 0 for i in range(2 * dim + 1))
    copies = size - 2 * ell + 1
    coeffs = [0] * (2 * ell + 1)
    coeffs[0] = 1
    for i in range(1, ell + 1):
        coeffs[2 * i] = copies
    return tuple(coeffs)


def chain_cell_count(k, m):
    """Number of cells of the chain component: c copies of P^l share c-1 points."""
    if k % 2 != 0:
        raise ValueError("chain components only occur for even k")
    size = -m
    ell = k // 2
    if size < 2 * ell:
        raise ValueError("chain components require |m| >= k")
    copies = size - 2 * ell + 1
    return copies * (ell + 1) - (copies - 1)


def test_qbinomial_examples():
    assert qbinomial(2, 1) == [1, 1]
    assert qbinomial(4, 1) == [1, 1, 1, 1]
    assert qbinomial(7, 0) == [1]
    assert qbinomial(0, 0) == [1]
    # [6 choose 2]_q expanded by hand from the product formula
    assert qbinomial(6, 2) == [1, 1, 2, 2, 3, 2, 2, 1, 1]


def test_qbinomial_range_check():
    with pytest.raises(ValueError):
        qbinomial(3, 4)
    with pytest.raises(ValueError):
        qbinomial(3, -1)


@pytest.mark.parametrize("a", range(1, 9))
def test_qbinomial_palindromic_nonnegative(a):
    for b in range(a + 1):
        coeffs = qbinomial(a, b)
        assert is_palindromic(coeffs)
        assert all(c >= 0 for c in coeffs)
        assert sum(coeffs) == comb(a, b)


def test_qbinomial_pascal_recurrence():
    for a in range(2, 9):
        for b in range(1, a):
            lhs = qbinomial(a, b)
            rhs = poly_add(qbinomial(a - 1, b - 1), [0] * b + qbinomial(a - 1, b))
            assert lhs == rhs


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 40).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, a))))
def test_qbinomial_matches_pascal_reference(case):
    a, b = case
    assert qbinomial(a, b) == pascal_qbinomial(a, b)


def test_euler_series_examples():
    assert euler_series(Params(2, 3), 5) == [1, 1, 2, 2, 2, 2]
    assert euler_series(Params(2, 3), 0) == [1]
    assert euler_series(Params(3, 4), 4) == [1, 1, 2, 3, 4]


def test_euler_series_rejects_non_coprime():
    with pytest.raises(UnsupportedParametersError):
        euler_series(Params(2, 6), 4)


def test_compactified_jacobian_dims():
    assert compactified_jacobian_dim(Params(2, 3)) == 2
    assert compactified_jacobian_dim(Params(4, 5)) == 14
    for n in range(1, 7):
        assert compactified_jacobian_dim(Params(n, 1)) == 1
    expected = {(2, 3): 2, (2, 5): 3, (2, 7): 4, (3, 4): 5, (3, 5): 7, (4, 5): 14}
    for (n, k), value in expected.items():
        assert compactified_jacobian_dim(Params(n, k)) == value


def test_betti_examples():
    assert betti_2k(3, -2) == (1, 0, 1)
    assert betti_2k(9, 0) == (1,)
    assert betti_2k(4, -6) == (1, 0, 3, 0, 3)


def test_betti_rejects_positive_degree():
    with pytest.raises(ValueError):
        betti_2k(3, 1)


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_betti_odd_matches_fixed_point_counts(k):
    p = Params(2, k)
    for m in range(0, -13, -1):
        total = sum(betti_2k(k, m))
        assert total == min((-m) // 2, k // 2) + 1
        assert total == len(enumerate_fixed_points(p, -m))


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_betti_even_chain_euler_characteristic(k):
    ell = k // 2
    for m in range(-k, -13, -1):
        copies = -m - k + 1
        coeffs = betti_2k(k, m)
        assert sum(coeffs) == 1 + copies * ell
        assert sum(coeffs) == chain_cell_count(k, m)
        assert coeffs[0] == 1
        assert all(coeffs[2 * i] == copies for i in range(1, ell + 1))


def test_betti_even_small_projective():
    # below the chain threshold the component is a single projective space
    assert betti_2k(4, -2) == (1, 0, 1)
    assert betti_2k(4, -4) == (1, 0, 1, 0, 1)
    assert betti_2k(6, -5) == (1, 0, 1, 0, 1)

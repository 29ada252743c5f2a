"""Fixed-point enumeration against an independent brute-force search."""

import copy
import pickle
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from springer_rca import (
    DimensionError,
    Params,
    TruncationError,
    UnsupportedParametersError,
    VerificationReport,
    build_graded_basis,
    enumerate_fixed_points,
    euler_series,
    is_admissible,
    stabilizer_cocharacter,
)


def phi_weights(entries, params):
    """Reference: the equivariant weights of the fixed-point class labeled by A.

    The a-th component is (a-1)*k/n - A_a (with hbar = 1).  For coprime
    (n, k) the differences phi_a - phi_b (a != b) are never integers, which
    keeps all localization denominators nonzero.  The package works with
    the integer weights n * phi instead (``operators.gap_table``).
    """
    if len(entries) != params.n:
        raise DimensionError(
            f"cocharacter has length {len(entries)}, expected n = {params.n}"
        )
    kn = Fraction(params.k, params.n)
    return tuple((a * kn) - entries[a] for a in range(params.n))


def brute_force_points(params, d):
    """Search the whole box 0 <= A_a <= d and filter by the inequalities."""
    found = [
        a
        for a in product(range(d + 1), repeat=params.n)
        if sum(a) == d and is_admissible(a, params)
    ]
    return sorted(found)


def test_is_admissible_examples():
    p = Params(2, 3)
    assert is_admissible((0, 0), p)
    assert not is_admissible((0, 4), p)  # gap 4 exceeds k = 3
    assert not is_admissible((1, 0), p)  # not nondecreasing


def test_is_admissible_length_mismatch():
    with pytest.raises(DimensionError):
        is_admissible((0, 0, 0), Params(2, 3))
    with pytest.raises(DimensionError):
        phi_weights((0,), Params(2, 3))


def test_enumerate_examples():
    p = Params(2, 3)
    assert enumerate_fixed_points(p, 0) == [(0, 0)]
    assert enumerate_fixed_points(p, 1) == [(0, 1)]
    assert enumerate_fixed_points(p, 2) == [(0, 2), (1, 1)]


def test_enumerate_rejects_non_coprime():
    with pytest.raises(UnsupportedParametersError):
        enumerate_fixed_points(Params(2, 4), 1)
    with pytest.raises(UnsupportedParametersError):
        build_graded_basis(Params(3, 6), 2)


@pytest.mark.parametrize("n,k", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (1, 7)])
def test_enumerate_matches_brute_force(n, k):
    p = Params(n, k)
    for d in range(7):
        assert enumerate_fixed_points(p, d) == brute_force_points(p, d)


def test_enumeration_is_deterministic():
    p = Params(3, 5)
    assert enumerate_fixed_points(p, 6) == enumerate_fixed_points(p, 6)
    assert build_graded_basis(p, 6).strata == build_graded_basis(p, 6).strata


def test_graded_basis_examples():
    basis = build_graded_basis(Params(2, 3), 3)
    assert [basis.dim(d) for d in basis.degrees()] == [1, 1, 2, 2]
    assert build_graded_basis(Params(2, 3), 0).strata == (((0, 0),),)
    b34 = build_graded_basis(Params(3, 4), 2)
    assert [b34.dim(d) for d in b34.degrees()] == [1, 1, 2]
    assert b34.stratum(2) == ((0, 0, 2), (0, 1, 1))


@pytest.mark.parametrize("n,k", [(2, 3), (3, 4), (4, 5)])
def test_stratum_counts_match_euler_series(n, k):
    p = Params(n, k)
    basis = build_graded_basis(p, 12)
    series = euler_series(p, 12)
    for d in basis.degrees():
        assert basis.dim(d) == series[d]


def test_basis_index_roundtrip():
    basis = build_graded_basis(Params(3, 4), 6)
    for d in basis.degrees():
        for i, label in enumerate(basis.stratum(d)):
            assert basis.index(d, label) == i
    with pytest.raises(KeyError):
        basis.index(3, (0, 2, 2))  # a label of degree 4, not 3
    with pytest.raises(KeyError):
        basis.index(2, (0, 2, 0))
    with pytest.raises(TruncationError, match="degree -1 is negative"):
        basis.index(-1, (0, 0, 0))
    with pytest.raises(TruncationError, match="degree 7 exceeds truncation 6"):
        basis.index(7, (0, 0, 0))


def minuscule_orbits(n):
    """Every vector of every orbit +-(1^r, 0^(n-r)), r = 1..n."""
    for r in range(1, n + 1):
        for ones in combinations(range(n), r):
            lam = tuple(int(a in ones) for a in range(n))
            yield lam
            yield tuple(-x for x in lam)


@settings(deadline=None, max_examples=50)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 11)).filter(lambda nk: gcd(*nk) == 1),
    st.integers(0, 12),
)
def test_position_is_the_reference_predicate(nk, max_degree):
    # the lookup the assemblers use, against is_admissible and the enumeration,
    # on every label and every minuscule step away from one
    params = Params(*nk)
    basis = build_graded_basis(params, max_degree)
    for d in basis.degrees():
        assert basis.dim(d) > 0
    steps = [(0,) * params.n, *minuscule_orbits(params.n)]
    for d in basis.degrees():
        for label in basis.stratum(d):
            for lam in steps:
                v = tuple(a + b for a, b in zip(label, lam))
                if sum(v) > max_degree:
                    with pytest.raises(TruncationError):
                        basis.positions(sum(v))
                    continue
                i = basis.positions(sum(v)).get(v)
                if is_admissible(v, params):
                    assert i == enumerate_fixed_points(params, sum(v)).index(v)
                else:
                    assert i is None


def test_phi_weights_examples():
    p = Params(2, 3)
    assert phi_weights((0, 0), p) == (0, Fraction(3, 2))
    assert phi_weights((0, 1), p) == (0, Fraction(1, 2))
    p45 = Params(4, 5)
    zero = phi_weights((0, 0, 0, 0), p45)
    assert zero[0] == 0
    assert zero == tuple(Fraction(5 * a, 4) for a in range(4))


@pytest.mark.parametrize("n,k", [(2, 3), (3, 4), (4, 5), (3, 5)])
def test_phi_separation(n, k):
    # differences phi_a - phi_b are never integers when a != b
    p = Params(n, k)
    for d in range(6):
        for label in enumerate_fixed_points(p, d):
            phis = phi_weights(label, p)
            for a in range(n):
                for b in range(n):
                    if a != b:
                        assert (phis[a] - phis[b]).denominator > 1


def test_stabilizer_cocharacter():
    assert stabilizer_cocharacter(Params(2, 3)).diag_exponents == (0, 3)
    assert stabilizer_cocharacter(Params(2, 3)).flavor_exponent == -3
    assert stabilizer_cocharacter(Params(2, 3)).rot_exponent == 2
    s = stabilizer_cocharacter(Params(3, 4))
    assert (s.diag_exponents, s.flavor_exponent, s.rot_exponent) == ((0, 4, 8), -4, 3)
    s1 = stabilizer_cocharacter(Params(1, 7))
    assert (s1.diag_exponents, s1.flavor_exponent, s1.rot_exponent) == ((0,), -7, 1)
    with pytest.raises(UnsupportedParametersError):
        stabilizer_cocharacter(Params(2, 4))


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0, 3)
    with pytest.raises(ValueError):
        Params(2, 0)
    p = Params(5, 3)
    assert p.n * p.m + p.k * p.hbar == 0


def test_params_rejects_non_coprime():
    # fixed points are isolated only for coprime (n, k); nothing past Params
    # checks it again
    for n in range(1, 13):
        for k in range(1, 13):
            if gcd(n, k) == 1:
                Params(n, k)
            else:
                with pytest.raises(UnsupportedParametersError, match="not isolated"):
                    Params(n, k)


def test_records_are_immutable_values():
    p = Params(2, 3)
    assert p == Params(2, 3) and hash(p) == hash(Params(2, 3))
    assert p != Params(2, 5)
    assert repr(p) == "Params(n=2, k=3)"
    with pytest.raises(AttributeError):
        p.n = 4
    with pytest.raises(AttributeError):
        del p.k
    assert build_graded_basis(p, 4) == build_graded_basis(Params(2, 3), 4)
    assert build_graded_basis(p, 4) != build_graded_basis(p, 5)
    assert len({stabilizer_cocharacter(p), stabilizer_cocharacter(Params(2, 3))}) == 1
    basis = build_graded_basis(p, 4)
    for record in (p, basis, stabilizer_cocharacter(p)):
        assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(basis)).index(4, (1, 3)) == basis.index(4, (1, 3))
    for attr in ("max_degree", "strata", "_positions", "extra"):
        with pytest.raises(AttributeError):
            setattr(basis, attr, None)
        with pytest.raises(AttributeError):
            delattr(basis, attr)
    assert basis.max_degree == 4 and basis.positions(4)
    assert repr(basis) == "GradedBasis(params=Params(n=2, k=3), max_degree=4)"
    # copying, unpickling and the named tuple's _replace all run the
    # coprimality check again
    unchecked = tuple.__new__(Params, (2, 4))
    for rebuild in (copy.copy, lambda q: pickle.loads(pickle.dumps(q))):
        with pytest.raises(UnsupportedParametersError):
            rebuild(unchecked)
    with pytest.raises(UnsupportedParametersError):
        p._replace(k=4)
    # the tuple records equal, and unpack like, the tuples of their fields
    n, k = p
    assert (n, k) == p == (2, 3)
    cocharacter = stabilizer_cocharacter(p)
    assert cocharacter == ((0, 3), -3, 2)
    assert repr(cocharacter) == (
        "StabilizerCocharacter(diag_exponents=(0, 3), flavor_exponent=-3, rot_exponent=2)"
    )
    with pytest.raises(AttributeError):
        cocharacter.rot_exponent = 3
    report = VerificationReport("claim", p, 4, {"degrees": [0, 4]})
    assert report == VerificationReport("claim", Params(2, 3), 4, {"degrees": [0, 4]})
    assert report != report._replace(witness={"degree": 0})
    assert repr(report) == (
        "VerificationReport(claim='claim', params=Params(n=2, k=3), "
        "max_degree=4, details={'degrees': [0, 4]}, witness=None)"
    )
    assert copy.copy(report) == pickle.loads(pickle.dumps(report)) == report
    for attr in ("claim", "witness", "extra"):
        with pytest.raises(AttributeError):
            setattr(report, attr, None)

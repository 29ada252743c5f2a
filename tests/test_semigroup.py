"""Numerical semigroup ideal counting, the independent oracle."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from springer_rca import (
    Params,
    Truncation,
    UnsupportedParametersError,
    compare_with_fixed_points,
    count_ideals,
    euler_series,
)
from springer_rca.semigroup import enumerate_gap_sets, is_stable, membership


def loop_contains(x, n, k):
    """Reference membership in <n, k>: try every multiple a*n up to x."""
    if x < 0:
        return False
    return any((x - a * n) % k == 0 for a in range(x // n + 1))


def reference_gap_sets(n, k, m):
    """All gap sets of size exactly m: the per-colength search one pass replaces.

    An include/exclude depth-first search over the semigroup elements of
    [0, F + m*n] in increasing order; an element may be included only when
    g - n and g - k, where in the semigroup, already are.
    """
    frobenius = n * k - n - k
    window = [x for x in range(frobenius + m * n + 1) if loop_contains(x, n, k)]
    found = []

    def search(idx, chosen):
        if len(chosen) == m:
            found.append(frozenset(chosen))
            return
        if idx == len(window) or len(window) - idx < m - len(chosen):
            return
        g = window[idx]
        if all(
            not loop_contains(g - step, n, k) or g - step in chosen for step in (n, k)
        ):
            chosen.add(g)
            search(idx + 1, chosen)
            chosen.remove(g)
        search(idx + 1, chosen)

    search(0, set())
    return found


def test_membership_and_frobenius():
    # the Frobenius number nk - n - k is the largest non-member
    member = membership(2, 3)
    assert all(map(member, (0, 2, 3, 100)))
    assert not member(1) and not member(-1)
    member45 = membership(4, 5)
    assert [x for x in range(13) if not member45(x)] == [1, 2, 3, 6, 7, 11]
    assert all(map(member45, range(12, 40)))


def test_membership_matches_loop_reference():
    # every coprime n, k <= 13 and x in [-3, F + 3n + 4]
    for n, k in [(n, k) for n in range(1, 14) for k in range(1, 14) if gcd(n, k) == 1]:
        member = membership(n, k)
        for x in range(-3, n * k - n - k + 3 * n + 5):
            assert member(x) == loop_contains(x, n, k), (n, k, x)


def test_membership_builds_one_predicate_per_pair():
    # count_ideals calls is_stable once per gap set, 23 296 times at
    # (6, 11, 56); each call reads the one shared predicate
    assert membership(6, 11) is membership(6, 11)
    assert membership(6, 11) is not membership(11, 6)


def test_non_coprime_rejected():
    # the search and the count validate through Params, the one check
    for search in (enumerate_gap_sets, count_ideals):
        with pytest.raises(UnsupportedParametersError, match=r"^\(n, k\) = \(2, 4\)"):
            search(2, 4, 3)


def test_count_examples():
    assert count_ideals(2, 3, 0) == [1]
    assert count_ideals(2, 3, 1) == [1, 1]
    assert count_ideals(2, 3, 2) == [1, 1, 2]


def test_gap_sets_explicit_small():
    # colength 1 forces removing 0; colength 2 removes {0,2} or {0,3}
    assert enumerate_gap_sets(2, 3, 1) == [frozenset(), frozenset({0})]
    gap_sets = enumerate_gap_sets(2, 3, 2)
    assert len(gap_sets) == 4
    pair = {gaps for gaps in gap_sets if len(gaps) == 2}
    assert pair == {frozenset({0, 2}), frozenset({0, 3})}


@pytest.mark.parametrize("n,k", [(2, 3), (3, 4), (2, 5)])
def test_enumerated_ideals_are_stable(n, k):
    params = Params(n, k)
    for m in range(6):
        gap_sets = enumerate_gap_sets(n, k, m)
        assert len(set(gap_sets)) == len(gap_sets)
        assert {len(gaps) for gaps in gap_sets} == set(range(m + 1))
        for gaps in gap_sets:
            assert is_stable(gaps, params)


def test_is_stable_rejects_non_ideals():
    # a non-member, and a member whose in-semigroup predecessor is kept
    params = Params(2, 3)
    assert is_stable(frozenset({0, 2}), params)
    assert not is_stable(frozenset({0, 1}), params)
    assert not is_stable(frozenset({2}), params)
    assert not is_stable(frozenset({0, 5}), params)


@st.composite
def coprime_cases(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 11).filter(lambda k: gcd(n, k) == 1))
    return n, k, draw(st.integers(0, 10))


@settings(deadline=None, max_examples=200)
@given(coprime_cases())
def test_one_pass_matches_per_colength_reference(case):
    n, k, m = case
    by_colength = {j: [] for j in range(m + 1)}
    for gaps in enumerate_gap_sets(n, k, m):
        by_colength[len(gaps)].append(gaps)
    for j, gap_sets in by_colength.items():
        assert len(set(gap_sets)) == len(gap_sets)
        assert set(gap_sets) == set(reference_gap_sets(n, k, j))
    assert count_ideals(n, k, m) == [len(by_colength[j]) for j in range(m + 1)]


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 11).filter(lambda k: gcd(n, k) == 1))
    return n, k, draw(st.integers(25, 32))


# every coprime n <= 7, k <= 11 agrees at D = 32, but the whole grid takes
# seconds; a sample of it keeps the sweep short
@settings(deadline=None, max_examples=20)
@given(sweep_cases())
def test_counts_agree_past_degree_24(case):
    # fixed points, Euler-series coefficients and ideals, degree by degree;
    # the witness is the first degree where the three differ
    n, k, max_degree = case
    run = Truncation(Params(n, k), max_degree)
    series = euler_series(run.params, max_degree)
    routes = zip(
        [run.basis.dim(d) for d in run.basis.degrees()],
        series,
        count_ideals(n, k, max_degree),
        strict=True,
    )
    witness = next(
        (d for d, counts in enumerate(routes) if len(set(counts)) != 1), None
    )
    assert witness is None, (case, witness)


def test_compare_with_fixed_points_examples():
    report = compare_with_fixed_points(Truncation(Params(2, 3), 8))
    assert report.passed
    assert report.details["ideal_counts"] == [1, 1, 2, 2, 2, 2, 2, 2, 2]
    assert compare_with_fixed_points(Truncation(Params(3, 4), 6)).passed
    assert compare_with_fixed_points(Truncation(Params(2, 3), 0)).passed

"""Brute-force oracle: ideals of the numerical semigroup generated by n and k.

A (monomial) ideal of the coordinate ring corresponds to a subset D of the
semigroup G = <n, k> with G + D contained in D; it is determined by its
finite gap set G \\ D.  Counting gap sets of size m is a purely arithmetic
computation that never touches the cocharacter combinatorics, which is what
makes it a useful cross-check of the fixed-point counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvariantError, SearchBudgetError, UnsupportedParametersError

DEFAULT_BUDGET = 24


@dataclass(frozen=True)
class NumericalSemigroup:
    """The additive monoid {a*n + b*k : a, b >= 0} for coprime n, k."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("generators must be positive")
        if gcd(self.n, self.k) != 1:
            raise UnsupportedParametersError(
                f"generators ({self.n}, {self.k}) are not coprime; the gap "
                "set of the semigroup is infinite"
            )

    @property
    def frobenius(self):
        """Largest integer not in the semigroup (-1 when n or k is 1)."""
        return self.n * self.k - self.n - self.k

    def __contains__(self, x):
        if x < 0:
            return False
        if x > self.frobenius:
            return True
        # gcd(n,k)=1 so small membership is a direct two-generator check
        for a in range(x // self.n + 1):
            if (x - a * self.n) % self.k == 0:
                return True
        return False

    def elements_up_to(self, bound):
        return [x for x in range(bound + 1) if x in self]


@dataclass(frozen=True)
class SemigroupIdeal:
    """A stable subset of the semigroup, recorded by its finite gap set."""

    gaps: frozenset

    @property
    def colength(self):
        return len(self.gaps)

    def is_stable(self, semigroup):
        """Check g + n and g + k never escape back out of the ideal.

        Equivalently, the gap set is closed under subtracting either
        generator whenever the result stays in the semigroup.
        """
        for g in self.gaps:
            if g not in semigroup:
                return False
            for step in (semigroup.n, semigroup.k):
                lower = g - step
                if lower in semigroup and lower not in self.gaps:
                    return False
        return True


def enumerate_gap_sets(n, k, m, budget=DEFAULT_BUDGET):
    """All gap sets of size m, by depth-first search over the finite window.

    Any gap set of size m lives inside [0, F + m*n] where F is the Frobenius
    number: above that window a gap would force a chain of more than m gaps
    by repeatedly subtracting n.  Elements are scanned in increasing order;
    including one requires that g - n and g - k (when in the semigroup) were
    already included, which is exactly stability of the complement.
    """
    semigroup = NumericalSemigroup(n, k)
    if m < 0:
        raise ValueError("colength must be nonnegative")
    if m > budget:
        raise SearchBudgetError(
            f"colength {m} exceeds the search budget {budget}"
        )
    if m == 0:
        return [SemigroupIdeal(frozenset())]
    window = semigroup.elements_up_to(semigroup.frobenius + m * n)
    found = []

    def search(idx, chosen):
        if len(chosen) == m:
            found.append(SemigroupIdeal(frozenset(chosen)))
            return
        if idx == len(window) or len(window) - idx < m - len(chosen):
            return
        g = window[idx]
        allowed = all(
            g - step not in semigroup or (g - step) in chosen
            for step in (n, k)
        )
        if allowed:
            chosen.add(g)
            search(idx + 1, chosen)
            chosen.remove(g)
        search(idx + 1, chosen)

    search(0, set())
    return found


def count_ideals(n, k, m, budget=DEFAULT_BUDGET):
    """Number of semigroup ideals of colength m."""
    ideals = enumerate_gap_sets(n, k, m, budget=budget)
    semigroup = NumericalSemigroup(n, k)
    # every candidate re-verified against the definition of stability
    for ideal in ideals:
        if not ideal.is_stable(semigroup):
            raise InvariantError(
                f"gap set {sorted(ideal.gaps)} of <{n}, {k}> is not stable"
            )
    return len(ideals)


def compare_with_fixed_points(params, max_degree, budget=DEFAULT_BUDGET):
    """Cross-check semigroup-ideal counts against fixed-point counts.

    Returns a VerificationReport that passes iff the two enumeration routes
    agree for every degree up to the truncation.
    """
    from .core import enumerate_fixed_points
    from .verify import VerificationReport

    params.require_coprime()
    counts_ideals = []
    counts_points = []
    witness = None
    for d in range(max_degree + 1):
        a = count_ideals(params.n, params.k, d, budget=budget)
        b = len(enumerate_fixed_points(params, d))
        counts_ideals.append(a)
        counts_points.append(b)
        if a != b and witness is None:
            witness = {"degree": d, "ideal_count": a, "fixed_point_count": b}
    return VerificationReport.of(
        "semigroup ideal counts match fixed-point counts",
        params,
        max_degree,
        {"ideal_counts": counts_ideals, "fixed_point_counts": counts_points},
        witness,
    )

"""Brute-force oracle: ideals of the numerical semigroup generated by n and k.

A (monomial) ideal of the coordinate ring corresponds to a subset D of the
semigroup G = <n, k> with G + D contained in D; it is determined by its
finite gap set G \\ D.  Counting gap sets of size m is a purely arithmetic
computation that never touches the cocharacter combinatorics, which is what
makes it a useful cross-check of the fixed-point counts.  One depth-first
search lists every gap set of size at most m exactly once, so one search
per run counts every colength up to the truncation.
"""

from __future__ import annotations

from math import gcd

from .core import Record
from .errors import InvariantError, UnsupportedParametersError


class NumericalSemigroup(Record):
    """The additive monoid {a*n + b*k : a, b >= 0} for coprime n, k."""

    _fields = __slots__ = ("n", "k")

    def __init__(self, n, k):
        if n < 1 or k < 1:
            raise ValueError("generators must be positive")
        if gcd(n, k) != 1:
            raise UnsupportedParametersError(
                f"generators ({n}, {k}) are not coprime; the gap "
                "set of the semigroup is infinite"
            )
        self._set(n=n, k=k)

    @property
    def frobenius(self):
        """Largest integer not in the semigroup (-1 when n or k is 1)."""
        return self.n * self.k - self.n - self.k

    def __contains__(self, x):
        # x = a*n + b*k with b < n the least such: b = x / k mod n, and then
        # x is a member iff a >= 0, i.e. iff b*k <= x
        return x >= 0 and (x * pow(self.k, -1, self.n) % self.n) * self.k <= x

    def elements_up_to(self, bound):
        return [x for x in range(bound + 1) if x in self]


class SemigroupIdeal(Record):
    """A stable subset of the semigroup, recorded by its finite gap set."""

    _fields = __slots__ = ("gaps",)

    def __init__(self, gaps):
        self._set(gaps=gaps)

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


def enumerate_gap_sets(n, k, m):
    """Every gap set of colength at most m, each once, from one search.

    A gap set of colength at most m lies in [0, F + m*n], F the Frobenius
    number: above it a gap would force a chain of more than m gaps by
    subtracting n.  A set of semigroup elements is a gap set exactly when it
    holds the in-semigroup predecessors g - n and g - k of each element g.
    These are smaller than g, so each prefix of a gap set listed in
    increasing order is a gap set, and that listing is the one depth-first
    path to it: a node records its set, then extends it by each later
    element whose predecessors it holds.  Past max(g, F) + n, g the largest
    chosen element, every element has its g - n in the semigroup but not
    chosen, so the scan stops there.  Colengths come mixed.
    """
    semigroup = NumericalSemigroup(n, k)
    if m < 0:
        raise ValueError("colength must be nonnegative")
    frobenius = semigroup.frobenius
    window = semigroup.elements_up_to(frobenius + m * n)
    members = set(window)
    predecessors = [
        [g - step for step in (n, k) if g - step in members] for g in window
    ]
    found = []

    def search(start, chosen, reach):
        found.append(SemigroupIdeal(frozenset(chosen)))
        if len(chosen) == m:
            return
        for idx in range(start, len(window)):
            g = window[idx]
            if g > reach:
                break
            if all(p in chosen for p in predecessors[idx]):
                chosen.add(g)
                search(idx + 1, chosen, max(g, frobenius) + n)
                chosen.remove(g)

    search(0, set(), frobenius + n)
    return found


def count_ideals(n, k, m):
    """Numbers of semigroup ideals of colength 0, 1, ..., m, from one search.

    Each gap set is re-verified against the definition of stability before
    it is counted; one that fails raises ``InvariantError``.
    """
    semigroup = NumericalSemigroup(n, k)
    counts = [0] * (m + 1)
    for ideal in enumerate_gap_sets(n, k, m):
        if not ideal.is_stable(semigroup):
            raise InvariantError(
                f"gap set {sorted(ideal.gaps)} of <{n}, {k}> is not stable"
            )
        counts[ideal.colength] += 1
    return counts


def compare_with_fixed_points(run):
    """Cross-check semigroup-ideal counts against the fixed-point counts of ``run``.

    ``run`` is a ``verify.Truncation``; the fixed points are its basis.
    Returns a VerificationReport that passes iff the two enumeration routes
    agree for every degree up to the truncation.
    """
    from .verify import VerificationReport

    params = run.params
    counts_ideals = count_ideals(params.n, params.k, run.max_degree)
    counts_points = [run.basis.dim(d) for d in run.basis.degrees()]
    witness = None
    for d, (a, b) in enumerate(zip(counts_ideals, counts_points)):
        if a != b:
            witness = {"degree": d, "ideal_count": a, "fixed_point_count": b}
            break
    return VerificationReport(
        "semigroup ideal counts match fixed-point counts",
        params,
        run.max_degree,
        {"ideal_counts": counts_ideals, "fixed_point_counts": counts_points},
        witness,
    )

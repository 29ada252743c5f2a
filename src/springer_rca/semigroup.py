"""Brute-force oracle: ideals of the numerical semigroup generated by n and k.

A (monomial) ideal of the coordinate ring corresponds to a subset D of the
semigroup G = <n, k> with G + D contained in D; it is determined by its
finite gap set G \\ D.  Counting gap sets of size m is a purely arithmetic
computation that never touches the cocharacter combinatorics, which is what
makes it a useful cross-check of the fixed-point counts.  One depth-first
search lists every gap set of size at most m exactly once, so one search
per run counts every colength up to the truncation.  A gap set is a plain
frozenset: ``enumerate_gap_sets`` returns them, ``is_stable`` re-checks one
against the definition, and ``count_ideals`` returns the list of counts by
colength.  ``Params`` validates (n, k), and the search window and the
re-check test membership through one predicate, ``membership(n, k)``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache

from .core import Params
from .errors import InputError, InvariantError


@cache
def membership(n, k):
    """The membership predicate of the semigroup {a*n + b*k : a, b >= 0}.

    x = a*n + b*k with b < n the least such: b = x / k mod n, and then x is
    a member iff a >= 0, i.e. iff b*k <= x.  The predicate, and with it the
    inverse of k mod n, is built once per (n, k) and then shared.
    """
    inverse = pow(k, -1, n)
    return lambda x: x >= 0 and (x * inverse % n) * k <= x


def is_stable(gaps, params):
    """Whether ``gaps`` leaves an ideal of <n, k>: g + n and g + k never escape.

    Equivalently, the gap set is closed under subtracting either generator
    whenever the result stays in the semigroup.
    """
    member = membership(params.n, params.k)
    for g in gaps:
        if not member(g):
            return False
        for step in (params.n, params.k):
            lower = g - step
            if member(lower) and lower not in gaps:
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
    chosen, so the scan stops there.  The nodes on the current path keep
    their scans on an explicit stack, each resumed where it left off, so no
    recursion grows with m.  The list holds each gap set as a frozenset,
    colengths mixed, in depth-first order.
    """
    Params(n, k)  # refuses a non-positive or non-coprime (n, k)
    if m < 0:
        raise InputError("colength must be nonnegative")
    frobenius = n * k - n - k
    window = list(filter(membership(n, k), range(frobenius + m * n + 1)))
    members = set(window)
    predecessors = [
        [g - step for step in (n, k) if g - step in members] for g in window
    ]
    # after choosing window[idx], the scan for the next element ends at ends[idx]
    ends = [bisect_right(window, max(g, frobenius) + n) for g in window]
    found = [frozenset()]
    chosen = set()
    path = []  # the chosen elements in increasing order
    # the root, the empty set, has children only for m > 0
    scans = [iter(range(bisect_right(window, frobenius + n) if m else 0))]
    while scans:
        for idx in scans[-1]:
            if all(p in chosen for p in predecessors[idx]):
                g = window[idx]
                chosen.add(g)
                found.append(frozenset(chosen))
                if len(chosen) < m:
                    path.append(g)
                    scans.append(iter(range(idx + 1, ends[idx])))
                    break
                chosen.remove(g)
        else:
            scans.pop()
            if path:
                chosen.remove(path.pop())
    return found


def count_ideals(n, k, m):
    """Numbers of semigroup ideals of colength 0, 1, ..., m, from one search.

    Each gap set is re-verified by ``is_stable`` before it is counted; one
    that fails raises ``InvariantError``.
    """
    params = Params(n, k)
    counts = [0] * (m + 1)
    for gaps in enumerate_gap_sets(n, k, m):
        if not is_stable(gaps, params):
            raise InvariantError(f"gap set {sorted(gaps)} of <{n}, {k}> is not stable")
        counts[len(gaps)] += 1
    return counts


def compare_with_fixed_points(run):
    """Cross-check semigroup-ideal counts against the fixed-point counts of ``run``.

    ``run`` is a ``verify.Truncation``; the fixed points are its basis.
    Returns the run's report, which passes iff the two enumeration routes
    agree for every degree up to the truncation.
    """
    from .verify import first_difference

    counts_points = [run.basis.dim(d) for d in run.basis.degrees()]
    counts_ideals = count_ideals(run.params.n, run.params.k, run.max_degree)
    return run.report(
        "semigroup ideal counts match fixed-point counts",
        {"ideal_counts": counts_ideals, "fixed_point_counts": counts_points},
        first_difference(
            counts_ideals, counts_points, "ideal_count", "fixed_point_count"
        ),
    )

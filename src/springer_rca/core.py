"""Singularity parameters, torus fixed points, and the stabilizer cocharacter.

The curve germ is x^n = t^k.  Torus fixed points of the associated moduli of
ideals are labeled by integer vectors A = (A_1, ..., A_n) satisfying

    A_1 >= 0,    A_a <= A_{a+1},    A_n - A_1 <= k,

and a fixed point of degree d contributes to the Hilbert scheme of d points,
where d(A) = sum(A).  Everything here is a pure function of immutable data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import DimensionError, TruncationError, UnsupportedParametersError


@dataclass(frozen=True)
class Params:
    """Singularity datum (n, k) with the coupling m = -k/n and hbar = 1."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"n and k must be positive, got ({self.n}, {self.k})")

    @property
    def m(self) -> Fraction:
        return Fraction(-self.k, self.n)

    @property
    def hbar(self) -> Fraction:
        return Fraction(1)

    @property
    def coprime(self) -> bool:
        return gcd(self.n, self.k) == 1

    def require_coprime(self):
        if not self.coprime:
            raise UnsupportedParametersError(
                f"(n, k) = ({self.n}, {self.k}) is not coprime; torus fixed "
                "points are not isolated, so this operation is unsupported"
            )

    @property
    def rank_two(self) -> bool:
        """Whether the rank-two closed forms and sl2 triple exist: n = 2, odd k."""
        return self.n == 2 and self.k % 2 == 1

    def require_rank_two(self):
        if not self.rank_two:
            raise UnsupportedParametersError(
                f"this operation requires n = 2 and odd k, got ({self.n}, {self.k})"
            )


def is_admissible(entries, params: Params) -> bool:
    """Check the three fixed-point inequalities for a length-n integer vector."""
    if len(entries) != params.n:
        raise DimensionError(
            f"cocharacter has length {len(entries)}, expected n = {params.n}"
        )
    if entries[0] < 0:
        return False
    for a in range(len(entries) - 1):
        if entries[a] > entries[a + 1]:
            return False
    return entries[-1] - entries[0] <= params.k


def enumerate_fixed_points(params: Params, d: int) -> list:
    """All admissible cocharacters of degree d, in lexicographic order.

    Admissibility bounds every entry by d, so the search terminates; the
    recursion below emits nondecreasing vectors in lex order directly.
    """
    params.require_coprime()
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n, k = params.n, params.k
    out = []

    def extend(prefix, remaining):
        slot = len(prefix)
        if slot == n - 1:
            last = remaining
            if last >= (prefix[-1] if prefix else 0) and last - (prefix[0] if prefix else last) <= k:
                out.append(prefix + (last,))
            return
        lo = prefix[-1] if prefix else 0
        # the remaining n - slot entries are each >= value placed here
        for value in range(lo, remaining // (n - slot) + 1):
            if prefix and value - prefix[0] > k:
                break
            extend(prefix + (value,), remaining - value)

    if n == 1:
        return [(d,)]
    extend((), d)
    return out


@dataclass(frozen=True)
class GradedBasis:
    """Canonically ordered fixed-point classes per degree, up to a truncation."""

    params: Params
    max_degree: int
    strata: tuple = field(repr=False)
    _index: tuple = field(repr=False, default=None, compare=False)

    def stratum(self, d) -> tuple:
        if d < 0:
            return ()
        if d > self.max_degree:
            raise TruncationError(
                f"degree {d} exceeds truncation {self.max_degree}"
            )
        return self.strata[d]

    def dim(self, d) -> int:
        return len(self.stratum(d))

    def index(self, d, entries) -> int:
        if d < 0 or d > self.max_degree:
            raise TruncationError(
                f"degree {d} exceeds truncation {self.max_degree}"
            )
        try:
            return self._index[d][entries]
        except KeyError:
            raise KeyError(f"{entries} is not an admissible label of degree {d}")

    def degrees(self):
        return range(self.max_degree + 1)

def build_graded_basis(params: Params, max_degree: int) -> GradedBasis:
    """Enumerate strata for all degrees 0..max_degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    strata = tuple(
        tuple(enumerate_fixed_points(params, d)) for d in range(max_degree + 1)
    )
    index = tuple(
        {entries: i for i, entries in enumerate(stratum)} for stratum in strata
    )
    return GradedBasis(params=params, max_degree=max_degree, strata=strata, _index=index)


@dataclass(frozen=True)
class StabilizerCocharacter:
    """Exponent data of the one-parameter stabilizer of the curve datum.

    nu acts by (diag(nu^0, nu^k, ..., nu^{(n-1)k}), nu^{-k}, nu^n) on the
    pair (matrix, cyclic vector) and by loop rotation t -> nu^n t.
    """

    diag_exponents: tuple
    flavor_exponent: int
    rot_exponent: int


def stabilizer_cocharacter(params: Params) -> StabilizerCocharacter:
    params.require_coprime()
    n, k = params.n, params.k
    return StabilizerCocharacter(
        diag_exponents=tuple(a * k for a in range(n)),
        flavor_exponent=-k,
        rot_exponent=n,
    )

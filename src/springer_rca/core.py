"""Singularity parameters, torus fixed points, and the stabilizer cocharacter.

The curve germ is x^n = t^k.  Torus fixed points of the associated moduli of
ideals are labeled by integer vectors A = (A_1, ..., A_n) satisfying

    A_1 >= 0,    A_a <= A_{a+1},    A_n - A_1 <= k,

and a fixed point of degree d contributes to the Hilbert scheme of d points,
where d(A) = sum(A).  Everything here is a pure function of immutable values:
``Params`` and ``StabilizerCocharacter`` are named tuples, so ``Params(2, 3)
== (2, 3)``, and ``GradedBasis`` is an immutable slotted class.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import (
    DimensionError, InputError, TruncationError, UnsupportedParametersError
)


class Params(namedtuple("Params", "n k")):
    """Singularity datum (n, k) with the coupling m = -k/n and hbar = 1.

    Only coprime (n, k) is accepted: then the germ x^n = t^k is irreducible
    and the torus fixed points are isolated, which every computation of the
    package needs.  Any other pair raises UnsupportedParametersError here,
    so no later step checks coprimality again.
    """

    __slots__ = ()

    def __new__(cls, n, k):
        if n < 1 or k < 1:
            raise InputError(f"n and k must be positive, got ({n}, {k})")
        if gcd(n, k) != 1:
            raise UnsupportedParametersError(
                f"(n, k) = ({n}, {k}) is not coprime; torus fixed "
                "points are not isolated, so this operation is unsupported"
            )
        return super().__new__(cls, n, k)

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so ``_replace`` checks its pair too."""
        return cls(*iterable)

    @property
    def m(self) -> Fraction:
        return Fraction(-self.k, self.n)

    @property
    def hbar(self) -> Fraction:
        return Fraction(1)

    @property
    def rank_two(self) -> bool:
        """Whether the rank-two closed forms and sl2 triple exist: n = 2.

        Coprimality then makes k odd.
        """
        return self.n == 2

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

    Slots 0 to n - 2 are filled left to right, each over increasing values,
    from an explicit stack, and the last slot takes what is left of d.  A
    slot's range keeps a completion possible: at least the slot before it,
    at most an equal share of what is left, and large enough that the later
    slots, each at most slot 0 + k, can use up the rest.  So every prefix
    visited ends in admissible vectors, and no depth grows with n.
    """
    if d < 0:
        raise InputError("degree must be nonnegative")
    n, k = params.n, params.k
    if n == 1:
        return [(d,)]
    # slot 0 = a needs n * a <= d <= a + (n - 1) * (a + k)
    first = range(max(0, -(((n - 1) * k - d) // n)), d // n + 1)
    if n == 2:
        return [(a, d - a) for a in first]
    out = []
    prefix = []  # the values of the slots below the top of the stack
    # per slot on the stack: its values left, and what it and later slots sum to
    stack = [(iter(first), d)]
    while stack:
        values, rest = stack[-1]
        value = next(values, None)
        if value is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        prefix.append(value)
        slot = len(prefix)
        rest -= value
        lo = max(value, rest - (n - slot - 1) * (prefix[0] + k))
        values = range(lo, rest // (n - slot) + 1)
        if slot == n - 2:
            # the last two slots at once: the second is what is left
            head = tuple(prefix)
            out.extend([(*head, v, rest - v) for v in values])
            prefix.pop()
        else:
            stack.append((iter(values), rest))
    return out


class GradedBasis:
    """Canonically ordered fixed-point classes per degree, up to a truncation.

    ``strata[d]`` lists the labels of degree d, and ``positions(d)`` maps
    each of them to its position in the stratum.  These per-stratum label
    maps are the package's one fixed-point test, and take no part in
    equality: a vector missing from ``positions(d)`` breaks an inequality
    or does not have degree d.  Equality, hash, copy and pickle read
    ``(params, max_degree, strata)``; unpickling rebuilds the label maps.
    """

    __slots__ = ("params", "max_degree", "strata", "_positions")

    def __init__(self, params, max_degree, strata):
        positions = tuple(
            {entries: i for i, entries in enumerate(stratum)} for stratum in strata
        )
        for name, value in zip(self.__slots__, (params, max_degree, strata, positions)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return GradedBasis, (self.params, self.max_degree, self.strata)

    def __eq__(self, other):
        if type(other) is not GradedBasis:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __setattr__(self, name, value):
        raise AttributeError("GradedBasis is immutable")

    def __delattr__(self, name):
        raise AttributeError("GradedBasis is immutable")

    def __repr__(self):
        return f"GradedBasis(params={self.params!r}, max_degree={self.max_degree})"

    def _stored(self, d):
        """Whether degree d has a stored stratum; TruncationError above max_degree."""
        if d > self.max_degree:
            raise TruncationError(
                f"degree {d} exceeds truncation {self.max_degree}"
            )
        return d >= 0

    def stratum(self, d) -> tuple:
        return self.strata[d] if self._stored(d) else ()

    def positions(self, d) -> dict:
        """``{label: position in its stratum}`` for degree d; empty for d < 0."""
        return self._positions[d] if self._stored(d) else {}

    def dim(self, d) -> int:
        return len(self.stratum(d))

    def index(self, d, entries) -> int:
        if d < 0:
            raise TruncationError(f"degree {d} is negative: no label has it")
        i = self.positions(d).get(entries)
        if i is None:
            raise KeyError(f"{entries} is not an admissible label of degree {d}")
        return i

    def degrees(self):
        return range(self.max_degree + 1)

def build_graded_basis(params: Params, max_degree: int) -> GradedBasis:
    """Enumerate strata for all degrees 0..max_degree."""
    if max_degree < 0:
        raise InputError("max_degree must be nonnegative")
    strata = tuple(
        tuple(enumerate_fixed_points(params, d)) for d in range(max_degree + 1)
    )
    return GradedBasis(params, max_degree, strata)


StabilizerCocharacter = namedtuple(
    "StabilizerCocharacter", "diag_exponents flavor_exponent rot_exponent"
)
StabilizerCocharacter.__doc__ = """Exponent data of the one-parameter stabilizer of the curve datum.

    nu acts by (diag(nu^0, nu^k, ..., nu^{(n-1)k}), nu^{-k}, nu^n) on the
    pair (matrix, cyclic vector) and by loop rotation t -> nu^n t.
    """


def stabilizer_cocharacter(params: Params) -> StabilizerCocharacter:
    n, k = params.n, params.k
    return StabilizerCocharacter(
        diag_exponents=tuple(a * k for a in range(n)),
        flavor_exponent=-k,
        rot_exponent=n,
    )

"""Singularity parameters, torus fixed points, and the stabilizer cocharacter.

The curve germ is x^n = t^k.  Torus fixed points of the associated moduli of
ideals are labeled by integer vectors A = (A_1, ..., A_n) satisfying

    A_1 >= 0,    A_a <= A_{a+1},    A_n - A_1 <= k,

and a fixed point of degree d contributes to the Hilbert scheme of d points,
where d(A) = sum(A).  Everything here is a pure function of immutable data.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DimensionError, TruncationError, UnsupportedParametersError


class Record:
    """Base of the package's immutable records.

    A subclass lists the attributes that make its value in ``_fields``,
    in the order its ``__init__`` takes them, declares its ``__slots__``
    and sets each attribute once, in ``__init__``, through ``_set``.  Two
    records of one class are equal, and hash alike, when their ``_fields``
    are; copying and pickling rebuild a record from them.
    """

    __slots__ = ()
    _fields = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({values})"


class Params(Record):
    """Singularity datum (n, k) with the coupling m = -k/n and hbar = 1.

    Only coprime (n, k) is accepted: then the germ x^n = t^k is irreducible
    and the torus fixed points are isolated, which every computation of the
    package needs.  Any other pair raises UnsupportedParametersError here,
    so no later step checks coprimality again.
    """

    _fields = __slots__ = ("n", "k")

    def __init__(self, n, k):
        if n < 1 or k < 1:
            raise ValueError(f"n and k must be positive, got ({n}, {k})")
        if gcd(n, k) != 1:
            raise UnsupportedParametersError(
                f"(n, k) = ({n}, {k}) is not coprime; torus fixed "
                "points are not isolated, so this operation is unsupported"
            )
        self._set(n=n, k=k)

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

    Admissibility bounds every entry by d, so the search terminates; the
    recursion below emits nondecreasing vectors in lex order directly.
    """
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


class GradedBasis(Record):
    """Canonically ordered fixed-point classes per degree, up to a truncation.

    ``strata[d]`` lists the labels of degree d, and ``positions(d)`` maps
    each of them to its position in the stratum.  These per-stratum label
    maps are the package's one fixed-point test, and take no part in
    equality: a vector missing from ``positions(d)`` breaks an inequality
    or does not have degree d.
    """

    _fields = ("params", "max_degree", "strata")
    __slots__ = _fields + ("_positions",)

    def __init__(self, params, max_degree, strata):
        self._set(
            params=params,
            max_degree=max_degree,
            strata=strata,
            _positions=tuple(
                {entries: i for i, entries in enumerate(stratum)} for stratum in strata
            ),
        )

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
        raise ValueError("max_degree must be nonnegative")
    strata = tuple(
        tuple(enumerate_fixed_points(params, d)) for d in range(max_degree + 1)
    )
    return GradedBasis(params, max_degree, strata)


class StabilizerCocharacter(Record):
    """Exponent data of the one-parameter stabilizer of the curve datum.

    nu acts by (diag(nu^0, nu^k, ..., nu^{(n-1)k}), nu^{-k}, nu^n) on the
    pair (matrix, cyclic vector) and by loop rotation t -> nu^n t.
    """

    _fields = __slots__ = ("diag_exponents", "flavor_exponent", "rot_exponent")

    def __init__(self, diag_exponents, flavor_exponent, rot_exponent):
        self._set(
            diag_exponents=diag_exponents,
            flavor_exponent=flavor_exponent,
            rot_exponent=rot_exponent,
        )


def stabilizer_cocharacter(params: Params) -> StabilizerCocharacter:
    n, k = params.n, params.k
    return StabilizerCocharacter(
        diag_exponents=tuple(a * k for a in range(n)),
        flavor_exponent=-k,
        rot_exponent=n,
    )

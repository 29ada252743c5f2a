"""Sparse exact-rational matrices and nullspaces.

A matrix stores its nonzero entries as integer numerators over one positive
block denominator, kept in lowest terms, so equal matrices have equal
fields.  Each numerator is keyed by its flat row-major position
``i * ncols + j``, a plain int, so a stored nonzero costs no ``(i, j)``
tuple; the ``(i, j)`` API is decoded from it here and nowhere else, and
``entries`` is a {(i, j): Fraction} snapshot, not a view.
Products, sums and scalings are integer arithmetic followed by one gcd
reduction; a ``fractions.Fraction`` is made only where an entry is read.
The blocks in this problem are very sparse (a few nonzeros per row), so
elimination keeps every row as a sparse dict and touches only the rows that
hold the current pivot column.  All results are exact: kernels found here
are certificates, not approximations.  ``rank_mod`` runs the same walk over
the numerators mod a prime; its rank never exceeds the rank over Q, so a
full column rank mod p proves a zero kernel without rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

from .errors import DimensionError, InputError, InvariantError

ZERO = Fraction(0)

# the prime of the zero-kernel certificate (``RatMat.rank_mod``)
PRIME = 2**61 - 1


def ratio(value):
    """The (numerator, denominator) of an exact rational scalar, in lowest terms.

    A float, a string or any other value that is not a ``numbers.Rational``
    raises TypeError, so no rounded or parsed number enters the arithmetic.
    """
    if not isinstance(value, Rational):
        raise TypeError(f"expected a rational number, got {type(value).__name__}")
    return value.numerator, value.denominator


class RatMat:
    """Sparse matrix with exact rational entries and a fixed shape.

    Entry (i, j) is ``num[i * ncols + j] / den``: ``num`` maps the flat
    row-major positions of the nonzero entries to nonzero integers and
    ``den`` is a positive integer with ``gcd(den, *num.values()) == 1``.
    A flat int key costs no ``(i, j)`` tuple per nonzero, and below 257 it
    is one of the interpreter's cached small ints.  A matrix is not changed
    once built; every operation returns a new one.
    """

    __slots__ = ("nrows", "ncols", "num", "den")

    def __init__(self, nrows, ncols, entries=None):
        """The matrix with the rational ``entries`` {(i, j): value}, zero elsewhere."""
        if nrows < 0 or ncols < 0:
            raise InputError("matrix shape must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.num = {}
        self.den = 1
        if entries:
            self._take_ratios({key: ratio(v) for key, v in entries.items()})

    @classmethod
    def from_ratios(cls, nrows, ncols, ratios):
        """The matrix with entry (i, j) = p / q for each (i, j): (p, q) of ``ratios``.

        Each p and q is an integer and q is positive; the block denominator
        is the lcm of the q.
        """
        return cls(nrows, ncols)._take_ratios(ratios)

    def _take_ratios(self, ratios):
        """Store the {(i, j): (p, q)} ``ratios`` over their lcm and return self."""
        for i, j in ratios:
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise IndexError(f"entry {(i, j)} outside shape {self.shape}")
        dens = {q for _, q in ratios.values()}
        if min(dens, default=1) <= 0:
            raise InvariantError(
                f"an entry has the nonpositive denominator {min(dens)}"
            )
        den = lcm(*dens)
        ncols = self.ncols
        return self._take(
            {i * ncols + j: p * (den // q) for (i, j), (p, q) in ratios.items() if p},
            den,
        )

    def _take(self, num, den):
        """Store num / den in lowest terms and return self; ``num`` has no zero."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: v // g for key, v in num.items()}
            den //= g
        self.num = num
        self.den = den
        return self

    def __getitem__(self, key):
        # the range check keeps (0, ncols) from reading entry (1, 0)
        i, j = key
        if 0 <= i < self.nrows and 0 <= j < self.ncols:
            value = self.num.get(i * self.ncols + j)
            if value is not None:
                return Fraction(value, self.den)
        return ZERO

    @property
    def entries(self):
        """A {(i, j): Fraction} snapshot of the nonzero entries.

        A matrix never changes, so a snapshot is as good as a view; changing
        the returned dict changes nothing here.
        """
        den, ncols = self.den, self.ncols
        return {divmod(key, ncols): Fraction(v, den) for key, v in self.num.items()}

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        self._check_same_shape(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        num = {key: a * v for key, v in self.num.items()}
        for key, v in other.num.items():
            total = num.get(key, 0) + b * v
            if total:
                num[key] = total
            else:
                del num[key]
        return RatMat(self.nrows, self.ncols)._take(num, den)

    def scaled(self, c):
        p, q = ratio(c)
        out = RatMat(self.nrows, self.ncols)
        if not p:
            return out
        return out._take({key: p * v for key, v in self.num.items()}, self.den * q)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionError(
                f"cannot multiply shapes {self.shape} and {other.shape}"
            )
        # group the right factor by row; each stored (i, l) of the left
        # factor meets row l of it, and each term goes straight to its flat
        # key in the product, keyed with other's width
        width = other.ncols
        right = {}
        for key, b in other.num.items():
            l, j = divmod(key, width)
            right.setdefault(l, []).append((j, b))
        num = {}
        ncols = self.ncols
        for key, a in self.num.items():
            i, l = divmod(key, ncols)
            base = i * width
            for j, b in right.get(l, ()):
                flat = base + j
                num[flat] = num.get(flat, 0) + a * b
        # a sum that cancels stores nothing
        for flat in [flat for flat, value in num.items() if not value]:
            del num[flat]
        return RatMat(self.nrows, other.ncols)._take(num, self.den * other.den)

    def matvec(self, vec):
        """The product M v as a list of Fractions.

        The coordinates of v are put over one common denominator, so every
        row sum is an integer; a zero sum reads as 0 with no division.
        """
        if len(vec) != self.ncols:
            raise DimensionError(
                f"vector of length {len(vec)} against {self.ncols} columns"
            )
        scale = lcm(*(v.denominator for v in vec))
        coords = [v.numerator * (scale // v.denominator) for v in vec]
        out = [0] * self.nrows
        ncols = self.ncols
        for key, a in self.num.items():
            i, j = divmod(key, ncols)
            out[i] += a * coords[j]
        den = self.den * scale
        return [Fraction(s, den) if s else ZERO for s in out]

    def __eq__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self):
        return f"RatMat({self.nrows}x{self.ncols}, {len(self.num)} entries)"

    @classmethod
    def vstack(cls, mats):
        mats = list(mats)
        if not mats:
            raise InputError("vstack of no matrices")
        ncols = mats[0].ncols
        for m in mats:
            if m.ncols != ncols:
                raise DimensionError("vstack requires equal column counts")
        den = lcm(*(m.den for m in mats))
        num = {}
        offset = 0
        for m in mats:
            factor = den // m.den
            shift = offset * ncols
            for key, value in m.num.items():
                num[shift + key] = factor * value
            offset += m.nrows
        return cls(offset, ncols)._take(num, den)

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list).

        ``rows[r]`` is the reduced row of pivot column ``pivots[r]`` as a
        sparse ``{column: Fraction}`` dict with a 1 at the pivot.  The
        column walk of ``_eliminate`` leaves each pivot row free of earlier
        pivot columns; a right-to-left back-substitution then clears the
        entries above each pivot.  The reduced form over Q is unique, so the
        result does not depend on which rows were picked as pivots.
        """
        den, ncols = self.den, self.ncols
        reduced, pivots = _eliminate(
            (divmod(key, ncols), Fraction(value, den))
            for key, value in self.num.items()
        )
        # back-substitution: no reduced row holds another pivot column, so
        # each pivot entry above the diagonal is cleared independently
        pivot_index = {c: r for r, c in enumerate(pivots)}
        for r in range(len(pivots) - 1, -1, -1):
            row = reduced[r]
            for pc in [j for j in row if j in pivot_index]:
                factor = row.pop(pc)
                for j, v in reduced[pivot_index[pc]].items():
                    new = row.get(j, 0) - factor * v
                    if new:
                        row[j] = new
                    else:
                        del row[j]
        for row, c in zip(reduced, pivots):
            row[c] = Fraction(1)
        return reduced, pivots

    def rank_mod(self, p):
        """Rank of the numerator matrix ``num`` over the integers mod ``p``.

        The column walk of ``rref`` run mod p.  It never exceeds the rank
        over Q: a minor that is nonzero mod p is a nonzero integer, and
        ``num`` is the matrix times the positive scalar ``den``.  So
        ``rank_mod(p) == ncols`` proves a zero kernel.
        """
        ncols = self.ncols
        cells = ((divmod(key, ncols), v % p) for key, v in self.num.items())
        return len(_eliminate(cells, p)[1])

    def nullspace(self):
        """Canonical kernel basis: one vector per free column, unit there.

        The basis is deterministic (free columns in increasing order) and
        exact; callers re-verify M v = 0 where the kernel is a claim.
        """
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        basis = {}
        for fc in range(self.ncols):
            if fc not in pivot_set:
                vec = [Fraction(0)] * self.ncols
                vec[fc] = Fraction(1)
                basis[fc] = vec
        # every non-pivot entry of a reduced row sits in a free column
        for row, pc in zip(rows, pivots):
            for fc, value in row.items():
                if fc != pc:
                    basis[fc][pc] = -value
        return list(basis.values())


def _eliminate(entries, p=None):
    """Forward elimination of the sparse ``entries`` ((i, j), value).

    Over Q the values are Fractions; with a prime ``p`` they are integers
    reduced mod p, and zero ones are dropped.  Returns (rows, pivot column
    list): ``rows[r]`` is the pivot row of column ``pivots[r]`` scaled to a
    1 there, stored without that entry, and free of every earlier pivot
    column.  Rows stay sparse throughout: the columns are walked left to
    right, each pivot is the shortest remaining row holding that column, and
    only the rows that hold it (found through a column-to-rows index) are
    eliminated.
    """
    rows = {}
    # column -> rows not yet used as a pivot that hold a nonzero there
    holders = {}
    for (i, j), value in entries:
        if value:
            rows.setdefault(i, {})[j] = value
            holders.setdefault(j, set()).add(i)
    pivots = []
    reduced = []
    for c in sorted(holders):
        live = holders.pop(c)
        if not live:
            continue
        # earlier columns are cleared from every live row, so c leads each
        r = min(live, key=lambda i: (len(rows[i]), i))
        live.discard(r)
        prow = rows.pop(r)
        if p is None:
            inv = 1 / prow.pop(c)
            prow = {j: v * inv for j, v in prow.items()}
        else:
            inv = pow(prow.pop(c), -1, p)
            prow = {j: v * inv % p for j, v in prow.items()}
        for j in prow:
            holders[j].discard(r)
        for i in live:
            row = rows[i]
            factor = row.pop(c)
            for j, v in prow.items():
                new = row.get(j, 0) - factor * v
                if p is not None:
                    new %= p
                if new:
                    row[j] = new
                    holders[j].add(i)
                elif j in row:
                    del row[j]
                    holders[j].discard(i)
        pivots.append(c)
        reduced.append(prow)
    return reduced, pivots

"""Sparse exact-rational matrices and nullspaces.

Matrices are dictionaries of nonzero entries over ``fractions.Fraction``.
The blocks in this problem are very sparse (a few nonzeros per row), so
elimination keeps every row as a sparse dict and touches only the rows that
hold the current pivot column.  All results are exact: kernels found here
are certificates, not approximations.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError


class RatMat:
    """Sparse matrix with exact rational entries and a fixed shape."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (i, j), value in entries.items():
                self[i, j] = value

    @classmethod
    def identity(cls, n, scale=1):
        mat = cls(n, n)
        if scale != 0:
            for i in range(n):
                mat.entries[(i, i)] = Fraction(scale)
        return mat

    def __getitem__(self, key):
        return self.entries.get(key, Fraction(0))

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry {key} outside shape {self.shape}")
        value = Fraction(value)
        if value == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        self._check_same_shape(other)
        out = RatMat(self.nrows, self.ncols)
        out.entries = dict(self.entries)
        for key, value in other.entries.items():
            out[key] = out[key] + value
        return out

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        c = Fraction(c)
        out = RatMat(self.nrows, self.ncols)
        if c != 0:
            out.entries = {key: c * v for key, v in self.entries.items()}
        return out

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionError(
                f"cannot multiply shapes {self.shape} and {other.shape}"
            )
        # group the right factor by row to keep the product sparse
        by_row = {}
        for (i, j), value in other.entries.items():
            by_row.setdefault(i, []).append((j, value))
        out = RatMat(self.nrows, other.ncols)
        acc = {}
        for (i, l), a in self.entries.items():
            for j, b in by_row.get(l, ()):
                key = (i, j)
                acc[key] = acc.get(key, Fraction(0)) + a * b
        for key, value in acc.items():
            if value != 0:
                out.entries[key] = value
        return out

    def matvec(self, vec):
        if len(vec) != self.ncols:
            raise DimensionError(
                f"vector of length {len(vec)} against {self.ncols} columns"
            )
        out = [Fraction(0)] * self.nrows
        for (i, j), value in self.entries.items():
            out[i] += value * vec[j]
        return out

    def sorted_entries(self):
        return sorted(self.entries.items())

    def dense(self):
        rows = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for (i, j), value in self.entries.items():
            rows[i][j] = value
        return rows

    def __eq__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __repr__(self):
        return f"RatMat({self.nrows}x{self.ncols}, {len(self.entries)} entries)"

    @classmethod
    def vstack(cls, mats):
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of no matrices")
        ncols = mats[0].ncols
        for m in mats:
            if m.ncols != ncols:
                raise DimensionError("vstack requires equal column counts")
        out = cls(sum(m.nrows for m in mats), ncols)
        offset = 0
        for m in mats:
            for (i, j), value in m.entries.items():
                out.entries[(offset + i, j)] = value
            offset += m.nrows
        return out

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list).

        ``rows[r]`` is the reduced row of pivot column ``pivots[r]`` as a
        sparse ``{column: Fraction}`` dict with a 1 at the pivot.  Rows stay
        sparse throughout: the columns are walked left to right, each pivot is
        the shortest remaining row holding that column, and only the rows that
        hold it (found through a column-to-rows index) are eliminated.  A
        right-to-left back-substitution then clears the entries above each
        pivot.  The reduced form over Q is unique, so the result does not
        depend on which rows were picked as pivots.
        """
        rows = {}
        # column -> rows not yet used as a pivot that hold a nonzero there
        holders = {}
        for (i, j), value in self.entries.items():
            rows.setdefault(i, {})[j] = value
            holders.setdefault(j, set()).add(i)

        pivots = []
        reduced = []
        for c in sorted(holders):
            live = holders.pop(c)
            if not live:
                continue
            # earlier columns are cleared from every live row, so c leads each
            p = min(live, key=lambda i: (len(rows[i]), i))
            live.discard(p)
            prow = rows.pop(p)
            inv = 1 / prow.pop(c)
            prow = {j: v * inv for j, v in prow.items()}
            for j in prow:
                holders[j].discard(p)
            for i in live:
                row = rows[i]
                factor = row.pop(c)
                for j, v in prow.items():
                    old = row.get(j)
                    if old is None:
                        row[j] = -factor * v
                        holders[j].add(i)
                    else:
                        new = old - factor * v
                        if new:
                            row[j] = new
                        else:
                            del row[j]
                            holders[j].discard(i)
            pivots.append(c)
            reduced.append(prow)

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

    def rank(self):
        return len(self.rref()[1])

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

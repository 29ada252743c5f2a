"""Monopole operators on the graded fixed-point basis, with exact arithmetic.

A minuscule monopole operator acts on a fixed-point class |A> by a sum over
the Weyl orbit of its coweight, a plain vector of 0s and one sign such as
(1, 1, 0) or (0, -1, -1).  ``minuscule_orbit`` alone checks that vector and
lists its orbit, one row of factor indices per element.  For an orbit
element lam with target B = A + lam, the coefficient is

    f(phi(B)) * N(lam, phi(B)) / D(lam, phi(B))

where, writing phi for the target weights and m = -k/n,

    N = prod_{lam_a < 0} prod_{alpha=1..|lam_a|} (phi_a - alpha)
      * prod_{lam_a > lam_b} prod_{beta=1..lam_a-lam_b} (phi_b - phi_a + m - beta)
    D = prod_{lam_a > lam_b} prod_{gamma=1..lam_a-lam_b} (phi_b - phi_a - gamma).

Every weight phi_a = a*k/n - B_a is an integer over n, and so is m, so every
factor of N and D is an integer over n.  The assembly therefore works with
the integer weights P = n * phi and forms n^#factors * N and n^#factors * D
as integers; their ratio differs from N / D by n^#vector factors, a power
fixed by the coweight.  For a minuscule coweight each target gap is the
source gap plus n, so with P the *source* weights of A these are

    prod_{lam_a < 0} P_a * prod_{lam_a > lam_b} (P_b - P_a - k),
    prod_{lam_a > lam_b} (P_b - P_a),

read from one table of source gaps per fixed point (``gap_table``) for the
whole orbit.  A term goes on only if its N is nonzero, and only then are
its target, D and dressing formed; it reaches ``GradedOperator.assemble``
as an integer pair, and the block puts the pairs over one denominator, so
assembly makes no Fraction.

Evaluating every factor at the *target* weights is the convention that
reproduces the closed rank-two formulas.  The numerator above, evaluated at
the target, equals the excess intersection factor of the source point; the
tests keep that source-side route as a reference and compare the two.
A term whose target is not a label of the basis must vanish, so the
operator never maps outside the moduli.  This is checked, not assumed:
``GradedOperator.assemble`` refuses every term with a nonzero N whose target
is not a label.

The named operators X, Y, E, F, H and the dressed E_r[f], F_r[f] are read
from ``verify.Truncation``, which alone chooses the lowering family's hbar
twist and the sign of F.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import add, sub

from .errors import DimensionError, InvariantError, TruncationError
from .linalg import RatMat


class DressPolynomial:
    """Exact polynomial in the weight components phi_0..phi_{n-1}.

    Terms map exponent tuples, of nvars nonnegative ints, to rational
    coefficients.  The coupling m is a number at operator-build time, so it
    lives inside the coefficients; the hbar twist is the builder's ``t``.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != nvars:
                    raise DimensionError("exponent tuple has wrong length")
                if not all(isinstance(e, int) and e >= 0 for e in expo):
                    raise ValueError(f"exponent tuple {expo} is not of nonnegative integers")
                coeff = Fraction(coeff)
                if coeff != 0:
                    self.terms[expo] = self.terms.get(expo, Fraction(0)) + coeff
        self.terms = {e: c for e, c in self.terms.items() if c != 0}

    @classmethod
    def elementary(cls, nvars, degree):
        """Elementary symmetric polynomial e_degree of the nvars variables."""
        return cls(
            nvars,
            {
                tuple(int(i in subset) for i in range(nvars)): 1
                for subset in combinations(range(nvars), degree)
            },
        )

    def integer_form(self, scale):
        """The polynomial at x / scale as integer terms over one denominator.

        Returns (terms, denominator) with terms a list of (c, slots), c an
        integer and slots the variable indices of the monomial repeated by
        exponent, so that f(x / scale) = sum c * prod(x[i] for i in slots),
        divided by the denominator, for every integer point x.
        """
        top = max((sum(expo) for expo in self.terms), default=0)
        denominator = lcm(*(c.denominator for c in self.terms.values())) * scale**top
        terms = []
        for expo, coeff in sorted(self.terms.items()):
            slots = tuple(i for i, e in enumerate(expo) for _ in range(e))
            terms.append(
                ((coeff * denominator / scale ** len(slots)).numerator, slots)
            )
        return terms, denominator

    def __eq__(self, other):
        if not isinstance(other, DressPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"DressPolynomial({self.nvars}, {self.terms!r})"


class GradedOperator:
    """Degree-homogeneous operator with one exact block per source degree.

    The block at source degree d has shape dim(d + shift) x dim(d) in the
    canonical bases; strata of negative degree are zero-dimensional, so low
    blocks of lowering operators simply have no rows.

    A generator (a monopole, H, an identity, a closed form) stores its
    blocks in ``blocks``.  A composite made by ``@``, ``+``, ``-`` or
    ``scaled`` keeps its operands instead and computes block d each time
    ``block(d)`` is called, without storing it; its ``blocks`` is None.  So
    a check that walks the degrees in order holds its generators plus one
    degree's products, and a caller that needs every block of a composite
    reads each degree once.
    """

    __slots__ = ("basis", "shift", "blocks", "max_source", "_block")

    def __init__(self, basis, shift, blocks):
        self.basis = basis
        self.shift = shift
        self.blocks = dict(blocks)
        self.max_source = max(self.blocks, default=-1)
        self._block = self.blocks.get
        for d, block in self.blocks.items():
            expected = (basis.dim(d + shift), basis.dim(d))
            if block.shape != expected:
                raise DimensionError(
                    f"block at degree {d} has shape {block.shape}, expected {expected}"
                )

    @classmethod
    def assemble(cls, basis, shift, terms):
        """The stored operator that sends each label A to its ``terms(A)``.

        ``terms(label)`` yields (target, p, q) for each term of the source
        label that does not vanish identically: the entry p / q, p and q
        integers with q nonzero, in the target's row.  Such a term must land
        on a label of degree d + shift, and only that stratum's label map is
        read, so a target outside the moduli or of another degree raises
        InvariantError; a term with p = 0 stores nothing.  Block d is
        dim(d + shift) x dim(d), for each source degree d in
        0..max_degree - max(0, shift).
        """
        blocks = {}
        for d in range(basis.max_degree - max(0, shift) + 1):
            lookup = basis.positions(d + shift).get
            ratios = {}
            for j, label in enumerate(basis.stratum(d)):
                for target, p, q in terms(label):
                    i = lookup(target)
                    if i is None:
                        raise InvariantError(
                            f"term {label} -> {target} leaves the moduli "
                            f"but does not vanish identically"
                        )
                    if p:
                        ratios[i, j] = (-p, -q) if q < 0 else (p, q)
            blocks[d] = RatMat.from_ratios(basis.dim(d + shift), basis.dim(d), ratios)
        return cls(basis, shift, blocks)

    @classmethod
    def _composite(cls, basis, shift, max_source, rule):
        """The operator whose block at d in 0..max_source is ``rule(d)``."""
        op = cls.__new__(cls)
        op.basis = basis
        op.shift = shift
        op.blocks = None
        op.max_source = max(max_source, -1)
        op._block = rule
        return op

    def domain(self):
        return range(0, self.max_source + 1)

    def block(self, d):
        block = self._block(d) if 0 <= d <= self.max_source else None
        if block is None:
            raise TruncationError(
                f"operator with shift {self.shift} has no block at source degree {d}"
            )
        return block

    def _check_basis(self, other):
        if self.basis is not other.basis and self.basis != other.basis:
            raise DimensionError("operators live on different graded bases")

    def __matmul__(self, other):
        """Composition self . other (other acts first)."""
        self._check_basis(other)
        basis = self.basis
        shift = self.shift + other.shift

        def rule(d):
            mid = d + other.shift
            if mid < 0:
                return RatMat(basis.dim(d + shift), basis.dim(d))
            return self.block(mid) @ other.block(d)

        hi = min(other.max_source, self.max_source - other.shift)
        return GradedOperator._composite(basis, shift, hi, rule)

    def __add__(self, other):
        return self._blockwise(other, add)

    def __sub__(self, other):
        return self._blockwise(other, sub)

    def _blockwise(self, other, op):
        """The operator whose block d is ``op(self.block(d), other.block(d))``."""
        self._check_basis(other)
        if self.shift != other.shift:
            raise DimensionError(
                f"cannot combine operators of shifts {self.shift} and {other.shift}"
            )
        return GradedOperator._composite(
            self.basis,
            self.shift,
            min(self.max_source, other.max_source),
            lambda d: op(self.block(d), other.block(d)),
        )

    def scaled(self, c):
        return GradedOperator._composite(
            self.basis, self.shift, self.max_source, lambda d: self.block(d).scaled(c)
        )

    def apply(self, vector):
        """Apply to a graded vector given as {label: coefficient}."""
        by_degree = {}
        for label, coeff in vector.items():
            d = sum(label)
            by_degree.setdefault(d, {})[label] = Fraction(coeff)
        out = {}
        for d, component in sorted(by_degree.items()):
            if d < 0 or d > self.max_source:
                raise TruncationError(
                    f"vector component of degree {d} is outside the operator "
                    f"domain [0, {self.max_source}]"
                )
            coords = [Fraction(0)] * self.basis.dim(d)
            for label, coeff in component.items():
                coords[self.basis.index(d, label)] = coeff
            image = self.block(d).matvec(coords)
            # images of different source degrees lie in different degrees
            stratum = self.basis.stratum(d + self.shift)
            out.update((stratum[i], value) for i, value in enumerate(image) if value)
        return out

    def __repr__(self):
        return f"GradedOperator(shift={self.shift}, degrees<={self.max_source})"


def identity_operator(basis, scale=1):
    """``scale`` (an integer or a Fraction) times the identity on every degree."""
    p, q = scale.numerator, scale.denominator
    return GradedOperator.assemble(basis, 0, lambda label: ((label, p, q),))


def zero_operator(basis, shift=0):
    return GradedOperator.assemble(basis, shift, lambda label: ())


def commutator(a, b):
    return a @ b - b @ a


def integer_weights(label, n, k):
    """The integer weights P_a = n * phi_a = a * k - n * A_a of the label A."""
    return [a * k - n * entry for a, entry in enumerate(label)]


def gap_table(weights, k):
    """The factors of D and of N at one source point, as two flat tables.

    ``weights`` are the source's integer weights P_a = n * phi_a.  Entry
    a * n + b of the first table is the gap P_b - P_a, the factor of D for
    the pair (a, b), and of the second P_b - P_a - k, its factor of N.  The
    second table goes on with the weights themselves: entry n * n + a is
    P_a, the factor of N for the slot a.
    """
    gaps = [pb - pa for pa in weights for pb in weights]
    return gaps, [g - k for g in gaps] + weights


def minuscule_orbit(coweight):
    """The Weyl orbit of a minuscule coweight as (vector, rep, pairs, slots, scale).

    ``coweight`` is a vector of 0s and one sign, not all 0; any other
    vector raises ValueError.  Its orbit is every placement of its r
    nonzero entries, in the order of ``combinations(range(n), r)``, and
    depends only on the sign, r and n.  The representative ``rep`` lists
    which variable each slot of a dressing polynomial reads: slots 0..r-1
    map to the nonzero positions in increasing order, the rest to the
    complement.  The adjoint pairs (a, b) with vector[a] > vector[b] and
    the vector slots a with vector[a] < 0 index the factors of N and D;
    for a minuscule coweight each contributes one factor (alpha, beta and
    gamma are all 1).  The scale n ** len(slots) is the power of n by
    which the integer ratio exceeds N / D.
    """
    coweight = tuple(coweight)
    n = len(coweight)
    nonzero = [v for v in coweight if v != 0]
    if not nonzero:
        raise ValueError("the zero coweight is not a monopole charge")
    sign = 1 if nonzero[0] > 0 else -1
    if any(v not in (0, sign) for v in coweight):
        raise ValueError(
            f"{coweight} is not minuscule: entries must be 0 and a single sign"
        )
    out = []
    for positions in combinations(range(n), len(nonzero)):
        vector = tuple(sign if a in positions else 0 for a in range(n))
        rep = positions + tuple(a for a in range(n) if a not in positions)
        pairs = tuple(
            (a, b) for a in range(n) for b in range(n) if vector[a] > vector[b]
        )
        slots = tuple(a for a in range(n) if vector[a] < 0)
        out.append((vector, rep, pairs, slots, n ** len(slots)))
    return out


def minuscule_monopole(basis, coweight, dress=None, t=0):
    """Matrix of the dressed minuscule monopole operator on the truncation.

    ``coweight`` is a vector of length n (see ``minuscule_orbit``).  The
    dressing, None for f = 1, must be invariant under the stabilizer
    S_r x S_{n-r} of the sorted charge; each orbit term of target B
    evaluates it at phi(B) - t, t the integer twist, through the orbit
    representative.  Each orbit term's N is read from the source's gap
    table; a term with N = 0 vanishes identically and is dropped, and every
    other term goes to ``GradedOperator.assemble``, which refuses it if its
    target leaves the moduli, even where the dressing vanishes.  Weight
    separation is checked once per source label.
    """
    n, k = basis.params.n, basis.params.k
    table = minuscule_orbit(coweight)
    # every orbit vector has the charge's length and degree shift
    lam = table[0][0]
    if len(lam) != n:
        raise DimensionError(f"coweight has length {len(lam)}, expected {n}")
    shift = sum(lam)
    if dress is None:
        dress = DressPolynomial(n, {(0,) * n: 1})
    if dress.nvars != n:
        raise DimensionError("dressing polynomial has the wrong variable count")
    # the swaps of i, i + 1 with i != r - 1 generate S_r x S_{n-r},
    # r = |shift|; each must map every term to one of equal coefficient
    for i in range(n - 1):
        if i != abs(shift) - 1 and any(
            dress.terms.get((*e[:i], e[i + 1], e[i], *e[i + 2 :])) != c
            for e, c in dress.terms.items()
        ):
            raise ValueError(
                "dressing polynomial is not invariant under the coweight stabilizer"
            )
    # f(phi) = f(P / n): integer terms over dress_scale, read through rep
    dress_terms, dress_scale = dress.integer_form(n)
    # flat indices into the gap_table rows: N reads its pairs and then its
    # slots, D its pairs alone; n * (phi(B) - t) is P less n * (lam + t)
    orbit = []
    for lam, rep, pairs, slots, scale in table:
        pair_index = [a * n + b for a, b in pairs]
        orbit.append(
            (
                lam,
                pair_index + [n * n + a for a in slots],
                pair_index,
                scale * dress_scale,
                [(c, [rep[i] for i in dslots]) for c, dslots in dress_terms],
                [n * (lam[a] + t) for a in range(n)],
            )
        )
    off_diagonal = [a * n + b for a in range(n) for b in range(n) if a != b]

    def terms(label):
        weights = integer_weights(label, n, k)
        gaps, factors = gap_table(weights, k)
        # weight separation, which needs gcd(n, k) = 1, makes every D nonzero
        if not all(map(gaps.__getitem__, off_diagonal)):
            raise InvariantError(f"zero denominator for {label}")
        for lam, numerator_index, pair_index, scale, dressing, offset in orbit:
            numerator = prod(map(factors.__getitem__, numerator_index))
            if numerator:
                value = 0
                for c, dslots in dressing:
                    for a in dslots:
                        c *= weights[a] - offset[a]
                    value += c
                yield (
                    tuple(map(add, label, lam)),
                    numerator * value,
                    prod(map(gaps.__getitem__, pair_index)) * scale,
                )

    return GradedOperator.assemble(basis, shift, terms)


def operator_h(basis):
    """Cartan operator hbar - sum_a phi_a, diagonal; defined only for n = 2.

    Each label's entry is read from the integer weights P = n * phi that
    ``minuscule_monopole`` reads, as (n - sum_a P_a) / n with hbar = 1.
    """
    basis.params.require_rank_two()
    n, k = basis.params.n, basis.params.k
    return GradedOperator.assemble(
        basis, 0, lambda label: ((label, n - sum(integer_weights(label, n, k)), n),)
    )

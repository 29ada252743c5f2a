"""Monopole operators on the graded fixed-point basis, with exact arithmetic.

A minuscule monopole operator acts on a fixed-point class |A> by a sum over
the Weyl orbit of its coweight.  For an orbit element lam with target
B = A + lam, the coefficient is

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
whole orbit.  Each entry goes to its block as an integer pair (numerator,
positive denominator), and the block puts them over one denominator, so
assembly makes no Fraction.

Evaluating every factor at the *target* weights is the convention that
reproduces the closed rank-two formulas.  The numerator above, evaluated at
the target, equals the excess intersection factor of the source point; the
tests keep that source-side route as a reference and compare the two.
Whenever the target leaves the admissible region the numerator vanishes
identically, so the operator never maps outside the moduli; this is
checked, not assumed.

The named operators X, Y, E, F, H and the dressed E_r[f], F_r[f] are read
from ``verify.Truncation``, which alone applies the lowering family's hbar
twist and the sign of F.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod
from operator import add

from .core import Record, is_admissible
from .errors import DimensionError, InvariantError, TruncationError
from .linalg import RatMat


class DressPolynomial:
    """Exact polynomial in the weight components phi_0..phi_{n-1}.

    Terms map exponent tuples to rational coefficients.  The scalar
    parameters (m and hbar) are numbers at operator-build time, so they live
    inside the coefficients.
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
                coeff = Fraction(coeff)
                if coeff != 0:
                    self.terms[expo] = self.terms.get(expo, Fraction(0)) + coeff
        self.terms = {e: c for e, c in self.terms.items() if c != 0}

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, 1)

    @classmethod
    def elementary(cls, nvars, degree, indices=None):
        """Elementary symmetric polynomial e_degree of the chosen variables."""
        indices = tuple(range(nvars)) if indices is None else tuple(indices)
        terms = {}
        for subset in combinations(indices, degree):
            expo = [0] * nvars
            for i in subset:
                expo[i] = 1
            terms[tuple(expo)] = 1
        return cls(nvars, terms)

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

    def permuted(self, perm):
        """Polynomial g with g(x_0,...,x_{n-1}) = f(x_{perm[0]},...,x_{perm[n-1]})."""
        out = {}
        for expo, coeff in self.terms.items():
            new = [0] * self.nvars
            for slot, e in enumerate(expo):
                new[perm[slot]] += e
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff
        return DressPolynomial(self.nvars, out)

    def shift_all(self, c):
        """Substitute x_a -> x_a - c in every variable."""
        c = Fraction(c)
        terms = dict(self.terms)
        for var in range(self.nvars):
            shifted = {}
            for expo, coeff in terms.items():
                e = expo[var]
                for j in range(e + 1):
                    new = list(expo)
                    new[var] = j
                    key = tuple(new)
                    contrib = coeff * comb(e, j) * (-c) ** (e - j)
                    shifted[key] = shifted.get(key, Fraction(0)) + contrib
            terms = {k: v for k, v in shifted.items() if v != 0}
        return DressPolynomial(self.nvars, terms)

    def is_invariant(self, perms):
        return all(self.permuted(p) == self for p in perms)

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise DimensionError("polynomials over different variable counts")
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + coeff
        return DressPolynomial(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, DressPolynomial):
            if self.nvars != other.nvars:
                raise DimensionError("polynomials over different variable counts")
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return DressPolynomial(self.nvars, out)
        return DressPolynomial(
            self.nvars, {e: c * other for e, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DressPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"DressPolynomial({self.nvars}, {self.terms!r})"


class MinusculeCoweight(Record):
    """Coweight +/-(1,...,1,0,...,0) with r nonzero entries out of n."""

    _fields = __slots__ = ("sign", "r", "n")

    def __init__(self, sign, r, n):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 1 <= r <= n:
            raise ValueError(f"r must lie in [1, n], got r={r}, n={n}")
        self._set(sign=sign, r=r, n=n)

    @classmethod
    def from_vector(cls, vector):
        vector = tuple(vector)
        nonzero = [v for v in vector if v != 0]
        if not nonzero:
            raise ValueError("the zero coweight is not a monopole charge")
        sign = 1 if nonzero[0] > 0 else -1
        if any(v not in (0, sign) for v in vector):
            raise ValueError(
                f"{vector} is not minuscule: entries must be 0 and a single sign"
            )
        return cls(sign=sign, r=len(nonzero), n=len(vector))

    @property
    def expansion(self):
        return tuple(self.sign if i < self.r else 0 for i in range(self.n))

    @property
    def shift(self):
        """Degree change d(A + lam) - d(A), the same for the whole orbit."""
        return self.sign * self.r

    def orbit(self):
        """Weyl orbit as (vector, representative) pairs, deterministic order.

        The representative w lists which variable each slot of a dressing
        polynomial reads: slots 0..r-1 map to the nonzero positions in
        increasing order, the rest to the complement.
        """
        out = []
        for positions in combinations(range(self.n), self.r):
            vector = [0] * self.n
            for p in positions:
                vector[p] = self.sign
            complement = [i for i in range(self.n) if i not in positions]
            rep = tuple(positions) + tuple(complement)
            out.append((tuple(vector), rep))
        return out

    def orbit_factors(self):
        """Orbit as (vector, representative, pairs, slots, scale) tuples.

        The adjoint pairs (a, b) with vector[a] > vector[b] and the vector
        slots a with vector[a] < 0 index the factors of N and D; for a
        minuscule coweight each contributes one factor (alpha, beta and
        gamma are all 1).  The scale n ** len(slots) is the power of n by
        which the integer ratio exceeds N / D.
        """
        out = []
        for vector, rep in self.orbit():
            pairs = tuple(
                (a, b)
                for a in range(self.n)
                for b in range(self.n)
                if vector[a] > vector[b]
            )
            slots = tuple(a for a in range(self.n) if vector[a] < 0)
            out.append((vector, rep, pairs, slots, self.n ** len(slots)))
        return out

    def stabilizer_transpositions(self):
        """Adjacent transpositions generating the stabilizer S_r x S_{n-r}."""
        perms = []
        for i in list(range(self.r - 1)) + list(range(self.r, self.n - 1)):
            p = list(range(self.n))
            p[i], p[i + 1] = p[i + 1], p[i]
            perms.append(tuple(p))
        return perms


class GradedOperator:
    """Degree-homogeneous operator stored as one exact block per source degree.

    The block at source degree d has shape dim(d + shift) x dim(d) in the
    canonical bases; strata of negative degree are zero-dimensional, so low
    blocks of lowering operators simply have no rows.
    """

    __slots__ = ("basis", "shift", "blocks")

    def __init__(self, basis, shift, blocks):
        self.basis = basis
        self.shift = shift
        self.blocks = dict(blocks)
        for d, block in self.blocks.items():
            expected = (basis.dim(d + shift) if d + shift >= 0 else 0, basis.dim(d))
            if block.shape != expected:
                raise DimensionError(
                    f"block at degree {d} has shape {block.shape}, expected {expected}"
                )

    @property
    def max_source(self):
        return max(self.blocks, default=-1)

    def domain(self):
        return range(0, self.max_source + 1)

    def block(self, d):
        try:
            return self.blocks[d]
        except KeyError:
            raise TruncationError(
                f"operator with shift {self.shift} has no block at source degree {d}"
            )

    def _check_basis(self, other):
        if self.basis is not other.basis and self.basis != other.basis:
            raise DimensionError("operators live on different graded bases")

    def __matmul__(self, other):
        """Composition self . other (other acts first)."""
        self._check_basis(other)
        shift = self.shift + other.shift
        hi = min(other.max_source, self.max_source - other.shift)
        blocks = {}
        for d in range(hi + 1):
            mid = d + other.shift
            tgt_dim = self.basis.dim(d + shift) if d + shift >= 0 else 0
            if mid < 0:
                blocks[d] = RatMat(tgt_dim, self.basis.dim(d))
            else:
                blocks[d] = self.block(mid) @ other.block(d)
        return GradedOperator(self.basis, shift, blocks)

    def __add__(self, other):
        self._check_basis(other)
        if self.shift != other.shift:
            raise DimensionError(
                f"cannot add operators of shifts {self.shift} and {other.shift}"
            )
        hi = min(self.max_source, other.max_source)
        return GradedOperator(
            self.basis,
            self.shift,
            {d: self.block(d) + other.block(d) for d in range(hi + 1)},
        )

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return GradedOperator(
            self.basis, self.shift, {d: b.scaled(c) for d, b in self.blocks.items()}
        )

    def is_zero(self):
        return all(not b.entries for b in self.blocks.values())

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
            if d + self.shift >= 0:
                stratum = self.basis.stratum(d + self.shift)
                for i, value in enumerate(image):
                    if value != 0:
                        label = stratum[i]
                        total = out.get(label, Fraction(0)) + value
                        if total == 0:
                            out.pop(label, None)
                        else:
                            out[label] = total
        return out

    def __repr__(self):
        return (
            f"GradedOperator(shift={self.shift}, degrees<={self.max_source}, "
            f"nnz={sum(len(b.entries) for b in self.blocks.values())})"
        )


def identity_operator(basis, scale=1):
    return GradedOperator(
        basis,
        0,
        {d: RatMat.identity(basis.dim(d), scale) for d in basis.degrees()},
    )


def zero_operator(basis, shift=0):
    D = basis.max_degree
    return GradedOperator(
        basis,
        shift,
        {
            d: RatMat(basis.dim(d + shift) if d + shift >= 0 else 0, basis.dim(d))
            for d in range(D - max(0, shift) + 1)
        },
    )


def commutator(a, b):
    return a @ b - b @ a


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


def minuscule_monopole(basis, coweight, dress=None):
    """Matrix of the dressed minuscule monopole operator on the truncation.

    The dressing must be invariant under the stabilizer of the coweight in
    the symmetric group; each orbit term evaluates it at the target weights
    through the orbit representative.  N is taken from the source's gap
    table for every orbit term, to check that a term leaving the moduli
    vanishes; D and the target weights only for a term that can be stored.
    """
    params = basis.params
    n, k = params.n, params.k
    if not isinstance(coweight, MinusculeCoweight):
        coweight = MinusculeCoweight.from_vector(coweight)
    if coweight.n != n:
        raise DimensionError(f"coweight has length {coweight.n}, expected {n}")
    if dress is None:
        dress = DressPolynomial.one(n)
    if dress.nvars != n:
        raise DimensionError("dressing polynomial has the wrong variable count")
    if not dress.is_invariant(coweight.stabilizer_transpositions()):
        raise ValueError(
            "dressing polynomial is not invariant under the coweight stabilizer"
        )
    shift = coweight.shift
    # f(phi) = f(P / n): integer terms over dress_scale, read through rep
    dress_terms, dress_scale = dress.integer_form(n)
    # flat indices into the gap_table rows: N reads its pairs and then its
    # slots, D its pairs alone
    orbit = []
    for lam, rep, pairs, slots, scale in coweight.orbit_factors():
        pair_index = [a * n + b for a, b in pairs]
        orbit.append(
            (
                lam,
                pair_index + [n * n + a for a in slots],
                pair_index,
                scale * dress_scale,
                [(c, [rep[i] for i in dslots]) for c, dslots in dress_terms],
            )
        )
    offsets = [a * k for a in range(n)]
    blocks = {}
    for d in range(basis.max_degree - max(0, shift) + 1):
        source = basis.stratum(d)
        target_degree = d + shift
        target_dim = basis.dim(target_degree) if target_degree >= 0 else 0
        ratios = {}
        for j, label in enumerate(source):
            weights = [o - n * a for o, a in zip(offsets, label)]
            gaps, factors = gap_table(weights, k)
            for lam, numerator_index, pair_index, scale, dressing in orbit:
                numerator = prod(map(factors.__getitem__, numerator_index))
                target = tuple(map(add, label, lam))
                if is_admissible(target, params):
                    # nonzero by weight separation, which needs gcd(n,k)=1
                    denominator = prod(map(gaps.__getitem__, pair_index))
                    if not denominator:
                        raise InvariantError(
                            f"zero denominator for {label} -> {target}"
                        )
                    if numerator:
                        value = 0
                        for c, dslots in dressing:
                            for a in dslots:
                                c *= weights[a] - n * lam[a]
                            value += c
                        if value:
                            i = basis.index(target_degree, target)
                            if denominator < 0:
                                numerator, denominator = -numerator, -denominator
                            ratios[i, j] = (numerator * value, denominator * scale)
                elif numerator:
                    # boundary vanishing: leaving the moduli kills the term
                    raise InvariantError(
                        f"term {label} -> {target} leaves the moduli with "
                        f"nonzero numerator {numerator}"
                    )
        blocks[d] = RatMat.from_ratios(target_dim, len(source), ratios)
    return GradedOperator(basis, shift, blocks)


def operator_h(basis):
    """Cartan operator hbar - phi_1 - phi_2, diagonal; defined only for n = 2.

    On |A_1, A_2> the eigenvalue is A_1 + A_2 + 1 - k/2, which depends on
    the degree d = A_1 + A_2 alone: each block is (d + 1 - k/2) times the
    identity.
    """
    params = basis.params
    params.require_rank_two()
    blocks = {
        d: RatMat.identity(basis.dim(d), Fraction(2 * d + 2 - params.k, 2))
        for d in basis.degrees()
    }
    return GradedOperator(basis, 0, blocks)

"""Closed-form operators and kernel vectors for n = 2, k = 2l + 1.

For the rank-two curve x^2 = t^{2l+1} every generator has an explicit
formula in the fixed-point basis; writing s = A_2 - A_1 and h = k/2:

    X |A_1, A_2> = (s - k)/(s - h) |A_1, A_2+1> + s/(s - h) |A_1+1, A_2>
    Y |A_1, A_2> = s (h - A_2)/(s - h) |A_1, A_2-1>
                   + A_1 (k - s)/(s - h) |A_1-1, A_2>
    E |A_1, A_2> = |A_1+1, A_2+1>
    F |A_1, A_2> = A_1 (h - A_2) |A_1-1, A_2-1>
    H |A_1, A_2> = (A_1 + A_2 + 1 - h) |A_1, A_2>

These are an independent route to the same matrices the localization sum
produces, and the verification suites compare them entry by entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .core import is_admissible
from .errors import InvariantError
from .linalg import RatMat
from .operators import GradedOperator


def _from_terms(basis, shift, term_fn):
    """Assemble a graded operator from label-level closed-form terms.

    ``term_fn(label)`` yields (target_label, coefficient) pairs; coefficients
    whose target is inadmissible must vanish and are checked to do so.
    Every closed form exists only for n = 2, which is checked here.
    """
    params = basis.params
    params.require_rank_two()
    blocks = {}
    for d in range(basis.max_degree - max(0, shift) + 1):
        source = basis.stratum(d)
        target_degree = d + shift
        ratios = {}
        for j, label in enumerate(source):
            for target, coeff in term_fn(label):
                if is_admissible(target, params):
                    if coeff != 0:
                        i = basis.index(target_degree, target)
                        ratios[i, j] = (coeff.numerator, coeff.denominator)
                elif coeff != 0:
                    raise InvariantError(
                        f"closed-form term {label} -> {target} leaves the moduli "
                        f"with nonzero coefficient {coeff}"
                    )
        target_dim = basis.dim(target_degree) if target_degree >= 0 else 0
        blocks[d] = RatMat.from_ratios(target_dim, len(source), ratios)
    return GradedOperator(basis, shift, blocks)


def closed_form_x(basis):
    params = basis.params
    h = Fraction(params.k, 2)

    def terms(label):
        a1, a2 = label
        s = a2 - a1
        yield (a1, a2 + 1), Fraction(s - params.k) / (s - h)
        yield (a1 + 1, a2), Fraction(s) / (s - h)

    return _from_terms(basis, 1, terms)


def closed_form_y(basis):
    params = basis.params
    h = Fraction(params.k, 2)

    def terms(label):
        a1, a2 = label
        s = a2 - a1
        yield (a1, a2 - 1), s * (h - a2) / (s - h)
        yield (a1 - 1, a2), a1 * Fraction(params.k - s) / (s - h)

    return _from_terms(basis, -1, terms)


def closed_form_e(basis):
    def terms(label):
        a1, a2 = label
        yield (a1 + 1, a2 + 1), Fraction(1)

    return _from_terms(basis, 2, terms)


def closed_form_f(basis):
    params = basis.params
    h = Fraction(params.k, 2)

    def terms(label):
        a1, a2 = label
        yield (a1 - 1, a2 - 1), a1 * (h - a2)

    return _from_terms(basis, -2, terms)


def closed_form_h(basis):
    params = basis.params
    h = Fraction(params.k, 2)

    def terms(label):
        a1, a2 = label
        yield (a1, a2), a1 + a2 + 1 - h

    return _from_terms(basis, 0, terms)


def casimir_eigenvalue(label, ell):
    """Quadratic Casimir eigenvalue (A_2 - A_1 - k/2)^2 - 1 with k = 2l + 1."""
    a1, a2 = label
    return (a2 - a1 - Fraction(2 * ell + 1, 2)) ** 2 - 1


def lowest_weight(a2, ell):
    """Cartan weight of the lowest-weight class |0, A_2>."""
    return a2 + 1 - Fraction(2 * ell + 1, 2)


def y_kernel_vectors(ell):
    """The l + 1 explicit kernel vectors of Y, indexed by N = 0..l.

    The vector at N has degree 2N and is supported on |N-j, N+j| for
    j = 0..N with coefficients

        (-1)^j C(N, j) prod_{i=0}^{j-1}
            (k - 2i)(k - 4(i+1)) / ((k - 2(N+i+1))(k - 4i)),

    k = 2l + 1.  Every denominator factor is odd, hence nonzero.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    k = 2 * ell + 1
    vectors = []
    for big_n in range(ell + 1):
        vec = {}
        for j in range(big_n + 1):
            coeff = Fraction((-1) ** j * comb(big_n, j))
            for i in range(j):
                coeff *= Fraction(
                    (k - 2 * i) * (k - 4 * (i + 1)),
                    (k - 2 * (big_n + i + 1)) * (k - 4 * i),
                )
            vec[(big_n - j, big_n + j)] = coeff
        vectors.append(vec)
    return vectors

"""Closed-form operators and kernel vectors for n = 2, k = 2l + 1.

For the rank-two curve x^2 = t^{2l+1} every generator has an explicit
formula in the fixed-point basis; writing s = A_2 - A_1 and h = k/2:

    X |A_1, A_2> = (s - k)/(s - h) |A_1, A_2+1> + s/(s - h) |A_1+1, A_2>
    Y |A_1, A_2> = s (h - A_2)/(s - h) |A_1, A_2-1>
                   + A_1 (k - s)/(s - h) |A_1-1, A_2>
    E |A_1, A_2> = |A_1+1, A_2+1>
    F |A_1, A_2> = A_1 (h - A_2) |A_1-1, A_2-1>
    H |A_1, A_2> = (A_1 + A_2 + 1 - h) |A_1, A_2>

and the quadratic Casimir acts on |A_1, A_2> by (s - h)^2 - 1.  Every
coefficient is a ratio of integers: doubling numerator and denominator
puts X and Y over 2s - k, which is odd since k is, hence nonzero; F and H
are over 2 and the Casimir over 4.  The builders yield these integer
ratios, so no Fraction is made.

These are an independent route to the same matrices the localization sum
produces, and the verification suites compare them entry by entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import itemgetter

from .errors import InputError
from .operators import GradedOperator


def _from_terms(basis, shift, term_fn):
    """Assemble a graded operator from label-level closed-form terms.

    ``term_fn(label)`` yields (target_label, p, q) triples, the coefficient
    p / q with p and q integers and q nonzero.  A closed form may name a
    target outside the moduli where its coefficient is zero, so the terms
    with p = 0 are dropped here; ``GradedOperator.assemble`` refuses every
    other term whose target is not a label.  Every closed form exists only
    for n = 2, which is checked here.
    """
    basis.params.require_rank_two()
    nonzero = itemgetter(1)
    return GradedOperator.assemble(
        basis, shift, lambda label: filter(nonzero, term_fn(label))
    )


def closed_form_x(basis):
    k = basis.params.k

    def terms(label):
        a1, a2 = label
        s = a2 - a1
        yield (a1, a2 + 1), 2 * (s - k), 2 * s - k
        yield (a1 + 1, a2), 2 * s, 2 * s - k

    return _from_terms(basis, 1, terms)


def closed_form_y(basis):
    k = basis.params.k

    def terms(label):
        a1, a2 = label
        s = a2 - a1
        yield (a1, a2 - 1), s * (k - 2 * a2), 2 * s - k
        yield (a1 - 1, a2), 2 * a1 * (k - s), 2 * s - k

    return _from_terms(basis, -1, terms)


def closed_form_e(basis):
    def terms(label):
        a1, a2 = label
        yield (a1 + 1, a2 + 1), 1, 1

    return _from_terms(basis, 2, terms)


def closed_form_f(basis):
    k = basis.params.k

    def terms(label):
        a1, a2 = label
        yield (a1 - 1, a2 - 1), a1 * (k - 2 * a2), 2

    return _from_terms(basis, -2, terms)


def closed_form_h(basis):
    k = basis.params.k

    def terms(label):
        a1, a2 = label
        yield (a1, a2), 2 * (a1 + a2 + 1) - k, 2

    return _from_terms(basis, 0, terms)


def casimir_diagonal(basis):
    """The Casimir's predicted value (s - k/2)^2 - 1 on the diagonal."""
    k = basis.params.k

    def terms(label):
        a1, a2 = label
        yield label, (2 * (a2 - a1) - k) ** 2 - 4, 4

    return _from_terms(basis, 0, terms)


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
        raise InputError("ell must be nonnegative")
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

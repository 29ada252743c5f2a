"""q-series combinatorics: Gaussian binomials, Euler characteristics, dimensions.

All arithmetic is exact over the integers.  A q-series or q-polynomial is
a plain list of its coefficients, indexed by the power of q: ``qbinomial``
returns all ``b(a-b) + 1`` of them, ``euler_series`` those of degrees
``0..max_degree``.
"""

from __future__ import annotations

from math import comb

from .errors import InputError, InvariantError


def qbinomial(a, b):
    """Coefficients of the Gaussian binomial [a choose b]_q.

    The product of (1 - q^(a-b+i)) / (1 - q^i) over i = 1..b, taken as
    power series cut at degree b(a-b), the degree of the polynomial; its
    coefficients are nonnegative integers and palindromic.
    """
    if not 0 <= b <= a:
        raise InputError(f"qbinomial requires 0 <= b <= a, got ({a}, {b})")
    top = b * (a - b)
    coeffs = [1] + [0] * top
    for i in range(1, b + 1):
        step = a - b + i
        for d in range(top, step - 1, -1):
            coeffs[d] -= coeffs[d - step]
        for d in range(i, top + 1):
            coeffs[d] += coeffs[d - i]
    return coeffs


def euler_series(params, max_degree):
    """Graded Euler characteristic of the Hilbert scheme union, truncated.

    The generating function of fixed-point counts is
    [n-1+k choose n-1]_q / (1 - q^n); the list holds its coefficients of
    degrees 0..max_degree.
    """
    n, k = params.n, params.k
    if max_degree < 0:
        raise InputError("max_degree must be nonnegative")
    coeffs = qbinomial(n - 1 + k, n - 1)[: max_degree + 1]
    coeffs += [0] * (max_degree + 1 - len(coeffs))
    for d in range(n, max_degree + 1):
        coeffs[d] += coeffs[d - n]
    return coeffs


def compactified_jacobian_dim(params):
    """Total cohomology dimension of the compactified Jacobian: C(n+k-1, n-1)/n."""
    n, k = params.n, params.k
    total = comb(n + k - 1, n - 1)
    if total % n:
        raise InvariantError(
            f"C(n+k-1, n-1) = {total} is not divisible by n = {n} for coprime "
            f"(n, k) = ({n}, {k})"
        )
    return total // n

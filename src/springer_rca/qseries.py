"""q-series combinatorics: Gaussian binomials, Euler characteristics, dimensions.

All arithmetic is exact over the integers.  A ``QPolynomial`` is a plain
coefficient list indexed by the power of q, with trailing zeros trimmed.
"""

from __future__ import annotations

from math import comb

from .errors import InvariantError


class QPolynomial:
    """Polynomial in q with exact integer (or rational) coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def monomial(cls, power, coeff=1):
        return cls([0] * power + [coeff])

    @property
    def degree(self):
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return QPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(out)

    def __call__(self, x):
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __eq__(self, other):
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented


def qbinomial(a, b):
    """Gaussian binomial [a choose b]_q via the Pascal recurrence.

    Coefficients are nonnegative integers and the polynomial is palindromic
    of degree b*(a-b).
    """
    if not 0 <= b <= a:
        raise ValueError(f"qbinomial requires 0 <= b <= a, got ({a}, {b})")
    # row[j] holds [i choose j]_q while i sweeps upward
    row = [QPolynomial([1])] + [QPolynomial()] * b
    for i in range(1, a + 1):
        for j in range(min(i, b), 0, -1):
            # [i,j] = [i-1,j-1] + q^j [i-1,j]
            row[j] = row[j - 1] + QPolynomial.monomial(j) * row[j]
    return row[b]


def euler_series(params, max_degree):
    """Graded Euler characteristic of the Hilbert scheme union, truncated.

    The generating function of fixed-point counts is
    [n-1+k choose n-1]_q / (1 - q^n); the truncation keeps powers up to
    ``max_degree``.
    """
    n, k = params.n, params.k
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    numerator = qbinomial(n - 1 + k, n - 1)
    coeffs = [0] * (max_degree + 1)
    for d in range(max_degree + 1):
        coeffs[d] = sum(
            numerator.coefficient(d - j) for j in range(0, d + 1, n)
        )
    return QPolynomial(coeffs)


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

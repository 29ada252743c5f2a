"""Exception types shared across the package."""


class SpringerRcaError(Exception):
    """Base class for all package-specific errors."""


class InputError(SpringerRcaError, ValueError):
    """An argument the package refuses: the input is wrong, not the computation."""


class DimensionError(SpringerRcaError, ValueError):
    """Shapes, lengths or bases of two objects do not match."""


class UnsupportedParametersError(SpringerRcaError, ValueError):
    """The requested computation is not defined for these parameters.

    Raised by ``Params`` for gcd(n, k) != 1 (fixed points are not
    isolated), and by ``Params.require_rank_two`` for an operator or suite
    that only exists for n = 2.
    """


class UnderTruncationError(SpringerRcaError, ValueError):
    """The truncation degree is too small for the claim to stabilize."""

    def __init__(self, message, required_degree):
        super().__init__(message)
        self.required_degree = required_degree


class TruncationError(SpringerRcaError, ValueError):
    """A vector or operator was used outside its truncated domain."""


class InvariantError(SpringerRcaError):
    """An internal check behind a certificate failed.

    Raised instead of ``assert`` so that the check survives ``python -O``.
    Not a ``ValueError``: it signals a defect in the computation, never bad
    input.
    """

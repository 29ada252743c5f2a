"""Exact spherical rational Cherednik algebra action on curve Hilbert schemes.

The package computes, entirely over the rationals, the monopole-operator
action on the torus-equivariant homology of Hilbert schemes of points on the
plane curve germs x^n = t^k (coprime n, k), and machine-checks the algebra
relations and module structure at finite graded truncation.
"""

__version__ = "0.1.0"

from .core import (
    GradedBasis,
    Params,
    StabilizerCocharacter,
    build_graded_basis,
    enumerate_fixed_points,
    is_admissible,
    stabilizer_cocharacter,
)
from .errors import (
    DimensionError,
    InputError,
    InvariantError,
    SpringerRcaError,
    TruncationError,
    UnderTruncationError,
    UnsupportedParametersError,
)
from .operators import (
    DressPolynomial,
    GradedOperator,
    commutator,
    identity_operator,
    minuscule_monopole,
    minuscule_orbit,
    operator_h,
)
from .qseries import (
    compactified_jacobian_dim,
    euler_series,
    qbinomial,
)
from .semigroup import (
    compare_with_fixed_points,
    count_ideals,
)
from .verify import (
    Truncation,
    VerificationReport,
    applicable_suites,
    finite_part_character,
    kernel_y,
    lowest_weight_decomposition,
    run_suite,
    singular_vectors,
    verify_stabilizer,
)

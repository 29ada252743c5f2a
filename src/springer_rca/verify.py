"""Machine checks of the algebra and module structure at finite truncation.

Each suite computes everything twice where two routes exist (generic
localization matrices against closed forms, fixed-point counts against the
series, kernels against dimension formulas) and reports exact pass/fail with
a concrete witness on failure.  No floating point enters anywhere.  Every
check takes one ``Truncation``, which builds the graded basis and each
operator once for all the suites of a run.  The computations a check reads
return plain data: ``singular_vectors`` and ``kernel_y`` one list of exact
kernel vectors per degree, ``finite_part_character`` a coefficient list, and
``lowest_weight_decomposition`` (weight, degree, coords) triples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .core import Params, build_graded_basis, stabilizer_cocharacter
from .errors import (
    DimensionError, InvariantError, TruncationError, UnderTruncationError
)
from .linalg import RatMat
from .operators import (
    GradedOperator,
    commutator,
    identity_operator,
    minuscule_monopole,
    operator_h,
    zero_operator,
)
from .qseries import compactified_jacobian_dim, euler_series
from . import linalg, rank_two, semigroup


class VerificationReport(NamedTuple):
    """Outcome of one named check; it passes exactly when it has no witness."""

    claim: str
    params: Params
    max_degree: int | None
    details: dict
    witness: dict | None = None

    @property
    def status(self):
        return "pass" if self.witness is None else "fail"

    @property
    def passed(self):
        return self.witness is None

    def to_dict(self):
        return {
            "claim": self.claim,
            "params": {
                "n": self.params.n, "k": self.params.k, "max_degree": self.max_degree
            },
            "status": self.status,
            "details": self.details,
            "witness": self.witness,
        }


class Truncation:
    """One run: the truncation (params, max_degree), its basis and its operators.

    Every suite of a ``verify`` run, the ``operator`` command and the
    ``fixed-points`` command read the graded basis and the named operators
    from here, and nowhere else builds them (``operator --op monopole``, the
    raw coweight route, calls ``minuscule_monopole`` on ``basis`` itself).
    The basis and each operator are built on first use and then shared:
    ``basis``, ``f`` and ``h`` are cached properties, and monopoles are
    cached in ``_operators`` by their coweight vector and dressing, so Y and
    F_1 are one matrix.  Nothing mutates a shared operator: composition,
    sums and scaling all return new ones.  Every check that reads a run
    makes its report with ``report``.
    """

    def __init__(self, params, max_degree):
        self.params = params
        self.max_degree = max_degree
        self._operators = {}

    @cached_property
    def basis(self):
        if self.max_degree is None:
            raise TruncationError("a truncation with no max_degree has no basis")
        return build_graded_basis(self.params, self.max_degree)

    @property
    def ell(self):
        """The rank-two parameter l with k = 2l + 1."""
        return (self.params.k - 1) // 2

    def report(self, claim, details, witness=None):
        """The suite report of this run for ``claim``."""
        return VerificationReport(claim, self.params, self.max_degree, details, witness)

    def require_degree(self, required, what):
        """Raise UnderTruncationError unless max_degree >= required."""
        if self.max_degree is None or self.max_degree < required:
            raise UnderTruncationError(
                f"{what} only for max_degree >= {required}, got {self.max_degree}",
                required_degree=required,
            )

    def monopole(self, sign, r, dress=None):
        """E_r[f] (sign 1) or F_r[f] (sign -1), coweight sign * (1^r, 0^(n-r)).

        The lowering family evaluates its dressing at phi - hbar where the
        raising family uses phi; with no dressing the twist is invisible.
        """
        n = self.params.n
        if sign not in (1, -1) or not 1 <= r <= n:
            raise ValueError(
                f"a monopole needs sign 1 or -1 and 1 <= r <= n, "
                f"got sign = {sign}, r = {r}, n = {n}"
            )
        coweight = (sign,) * r + (0,) * (n - r)
        key = (coweight, dress)
        if key not in self._operators:
            self._operators[key] = minuscule_monopole(
                self.basis, coweight, dress, int(self.params.hbar) if sign < 0 else 0
            )
        return self._operators[key]

    @property
    def x(self):
        """Raising Weyl generator, charge (1, 0, ..., 0)."""
        return self.monopole(1, 1)

    @property
    def y(self):
        """Lowering Weyl generator, charge -(1, 0, ..., 0)."""
        return self.monopole(-1, 1)

    @property
    def e(self):
        """Rank-two raising generator E = E_2."""
        self.params.require_rank_two()
        return self.monopole(1, 2)

    @cached_property
    def f(self):
        """Rank-two lowering generator F = -F_2, stored block by block."""
        self.params.require_rank_two()
        f2 = self.monopole(-1, 2)
        return GradedOperator(
            self.basis, f2.shift, {d: b.scaled(-1) for d, b in f2.blocks.items()}
        )

    @cached_property
    def h(self):
        """Rank-two Cartan generator H."""
        return operator_h(self.basis)


def first_mismatch(actual, expected, degrees=None):
    """First differing matrix entry of two operators, or None.

    Both operators must live on one graded basis and have the same shift,
    or DimensionError is raised; comparison runs over the given source
    degrees (default: the common domain).
    """
    actual._check_basis(expected)
    if actual.shift != expected.shift:
        raise DimensionError(
            f"comparing operators of different shifts "
            f"{actual.shift} vs {expected.shift}"
        )
    basis = actual.basis
    if degrees is None:
        degrees = range(min(actual.max_source, expected.max_source) + 1)
    for d in degrees:
        got, want = actual.block(d), expected.block(d)
        if got == want:
            continue
        for key in sorted(got.entries.keys() | want.entries.keys()):
            if got[key] != want[key]:
                i, j = key
                target_degree = d + actual.shift
                return {
                    "degree": d,
                    "row": i,
                    "col": j,
                    "source_label": list(basis.stratum(d)[j]),
                    "target_label": list(basis.stratum(target_degree)[i]),
                    "expected": str(want[key]),
                    "actual": str(got[key]),
                }
    return None


def first_difference(expected, actual, expected_key, actual_key):
    """First degree at which two per-degree counts differ, as a witness, or None.

    ``expected`` and ``actual`` list the counts of degrees 0, 1, ...; the
    witness is ``{"degree": d, expected_key: expected[d], actual_key: actual[d]}``.
    Lists of different lengths raise InvariantError: every caller lists the
    same degrees on both sides, and a missing degree is no agreement.
    """
    if len(expected) != len(actual):
        raise InvariantError(
            f"{expected_key} lists {len(expected)} degrees, "
            f"{actual_key} lists {len(actual)}"
        )
    for d, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return {"degree": d, expected_key: want, actual_key: got}
    return None


def _check_weyl_relation(run):
    """Compare [X, Y] against n * identity on degrees 0..D-2."""
    comm = commutator(run.x, run.y)
    expected = identity_operator(run.basis, scale=run.params.n)
    degrees = range(min(run.max_degree - 2, comm.max_source) + 1)
    return run.report(
        "commutator of X and Y is n times the identity",
        {"degrees_checked": [degrees.start, degrees.stop - 1]},
        first_mismatch(comm, expected, degrees),
    )


def _rank_two_relations(run):
    """Yield (relation, witness or None) for each rank-two identity in order.

    Each relation's two sides are built only when the generator reaches it,
    so a caller that stops at the first witness builds no later relation.
    Each relation composes its own products, degree by degree, and every
    one, the Casimir included, is compared by ``first_mismatch``, so each
    witness has the same keys.  The cubic relation is compared with the
    stored Casimir diagonal, which the Casimir has matched on the same
    degrees before the cubic is reached.
    """
    e, f, h = run.e, run.f, run.h
    x, y, basis = run.x, run.y, run.basis
    ef, fe = e @ f, f @ e
    yield "[E,F] = H", first_mismatch(ef - fe, h)
    yield "[H,E] = 2E", first_mismatch(commutator(h, e), e.scaled(2))
    yield "[H,F] = -2F", first_mismatch(commutator(h, f), f.scaled(-2))
    yield "[H,X] = X", first_mismatch(commutator(h, x), x)
    yield "[E,Y] = X", first_mismatch(commutator(e, y), x)
    yield "[H,Y] = -Y", first_mismatch(commutator(h, y), y.scaled(-1))
    yield "[F,X] = Y", first_mismatch(commutator(f, x), y)
    yield "[E,X] = 0", first_mismatch(commutator(e, x), zero_operator(basis, 3))
    yield "[F,Y] = 0", first_mismatch(commutator(f, y), zero_operator(basis, -3))
    diagonal = rank_two.casimir_diagonal(basis)
    casimir = (ef + fe).scaled(2) + h @ h
    yield "Casimir diagonal", first_mismatch(casimir, diagonal)
    w_plus = (x @ x).scaled(Fraction(1, 2))
    w_zero = (x @ y + y @ x).scaled(Fraction(-1, 2))
    w_minus = (y @ y).scaled(Fraction(-1, 2))
    m = basis.params.m
    cubic = (
        (e @ w_minus + f @ w_plus).scaled(2)
        + h @ w_zero
        + identity_operator(basis, scale=m * (m - 1))
    )
    yield "C2 = 2(E W- + F W+) + H W0 + m(m-1)", first_mismatch(cubic, diagonal)


def _check_sl2_and_casimir(run):
    """All rank-two commutators, the Casimir eigenvalues, and the cubic relation."""
    checked = []
    for name, witness in _rank_two_relations(run):
        if witness:
            witness["relation"] = name
            break
        checked.append(name)
    return run.report(
        "rank-two commutation relations, Casimir, and cubic relation",
        {"relations_checked": checked},
        witness,
    )


def _verified_nullspace(blocks, dim):
    """Nullspace of stacked blocks, proved zero mod p or re-verified exactly.

    A full column rank mod ``linalg.PRIME`` proves the kernel is zero, since
    the rank mod p never exceeds the rank over Q.  Any other block takes the
    exact nullspace, and each of its vectors is multiplied back; so does a
    block with fewer rows than columns, whose kernel cannot be zero.
    """
    stacked = RatMat.vstack(blocks) if len(blocks) > 1 else blocks[0]
    if stacked.ncols != dim:
        raise InvariantError(
            f"stacked blocks have {stacked.ncols} columns, basis has {dim}"
        )
    if stacked.nrows >= dim and stacked.rank_mod(linalg.PRIME) == dim:
        return []
    vectors = stacked.nullspace()
    # matvec sums integer numerators; the positive den cannot make a sum 0
    for index, vec in enumerate(vectors):
        if any(v != 0 for v in stacked.matvec(vec)):
            raise InvariantError(
                f"kernel vector {index} of a {stacked.nrows}x{stacked.ncols} "
                "block is not annihilated by it"
            )
    return vectors


def _graded_kernel(run, operators):
    """Joint kernel of ``operators`` on the run's basis: its vectors, per degree."""
    basis = run.basis
    return [
        _verified_nullspace([op.block(d) for op in operators], basis.dim(d))
        for d in basis.degrees()
    ]


def _kernel_summary(run, name, kernels):
    """The report's summary of the per-degree ``kernels`` of operator ``name``."""
    return {
        "params": {"n": run.params.n, "k": run.params.k, "max_degree": run.max_degree},
        "operator": name,
        "per_degree": {str(d): len(kernel) for d, kernel in enumerate(kernels)},
        "total": sum(map(len, kernels)),
        "vectors": [
            {"degree": d, "coords": [str(c) for c in vec]}
            for d, kernel in enumerate(kernels)
            for vec in kernel
        ],
    }


def singular_vectors(run):
    """Joint kernel of all lowering operators F_1[1], ..., F_n[1], per degree."""
    lowering = [run.monopole(-1, r) for r in range(1, run.params.n + 1)]
    return _graded_kernel(run, lowering)


def _check_singular_vectors(run):
    """The vacuum class is the unique singular vector up to the truncation."""
    kernels = singular_vectors(run)
    witness = first_difference(
        [1] + [0] * run.max_degree,
        [len(kernel) for kernel in kernels],
        "expected_dim",
        "actual_dim",
    )
    return run.report(
        "joint kernel of the lowering family is spanned by the vacuum",
        {"summary": _kernel_summary(run, "joint kernel of F_r[1], r = 1..n", kernels)},
        witness,
    )


def stabilization_degree(params):
    """Smallest truncation at which kernel and character data stabilize."""
    return (params.n - 1) * (params.k - 1) + params.n


def kernel_y(run):
    """Kernel of the lowering Weyl generator Y: its vectors, per degree."""
    run.require_degree(stabilization_degree(run.params), "kernel of Y stabilizes")
    return _graded_kernel(run, [run.y])


def finite_part_character(run):
    """Coefficients of the polynomial (1 - q) times the graded Euler series.

    The series counts fixed points per degree; those counts stabilize, so
    the product is a polynomial of degree (n-1)(k-1) with nonnegative
    coefficients summing to the compactified Jacobian dimension.  All three
    facts are checked here and raise InvariantError if they fail.
    """
    params, max_degree = run.params, run.max_degree
    run.require_degree(stabilization_degree(params), "the finite part stabilizes")
    series = euler_series(params, max_degree)
    diff = [c - before for c, before in zip(series, [0] + series)]
    top = (params.n - 1) * (params.k - 1)
    if any(diff[top + 1 :]):
        raise InvariantError(f"the Euler series did not stabilize past degree {top}")
    if any(c < 0 for c in diff):
        raise InvariantError(f"the finite part {diff} has a negative coefficient")
    degree = max((d for d, c in enumerate(diff) if c), default=-1)
    if degree != top:
        raise InvariantError(f"the finite part has degree {degree}, not {top}")
    if sum(diff) != compactified_jacobian_dim(params):
        raise InvariantError(
            f"the finite part sums to {sum(diff)}, not the compactified Jacobian "
            f"dimension {compactified_jacobian_dim(params)}"
        )
    return diff[: top + 1]


def _check_kernel_y(run):
    """Kernel of Y, degree by degree, against the finite character.

    ``finite_part_character`` certifies that the character sums to the
    compactified Jacobian dimension, so a wrong total of kernel dimensions
    shows as a first differing degree.
    """
    kernels = kernel_y(run)
    dims = [len(kernel) for kernel in kernels]
    character = finite_part_character(run)
    return run.report(
        "kernel of Y matches the compactified Jacobian cohomology",
        {
            "summary": _kernel_summary(run, "Y", kernels),
            "expected_total": compactified_jacobian_dim(run.params),
            "character_coefficients": character,
        },
        first_difference(
            character + [0] * (len(dims) - len(character)),
            dims,
            "expected_dim",
            "actual_dim",
        ),
    )


def lowest_weight_decomposition(run):
    """Kernel of the rank-two lowering operator F with Cartan weights.

    Returns (weight, degree, coords) triples; F drops degree by two, and
    each weight is read from H as (H v)_i / v_i at the first nonzero
    coordinate i of the kernel vector v.  The count is complete only for
    max_degree >= k + 1, where the appendix-b suite starts.
    """
    triples = []
    for d, kernel in enumerate(_graded_kernel(run, [run.f])):
        for coords in kernel:
            i = next(i for i, c in enumerate(coords) if c)
            triples.append((run.h.block(d).matvec(coords)[i] / coords[i], d, coords))
    return triples


def _check_lowest_weight_decomposition(run):
    """Verma decomposition data: 2l+2 lowest-weight classes |0, A_2>.

    Each kernel vector v of F is checked to satisfy H v = w v, w its weight.
    """
    triples = lowest_weight_decomposition(run)
    basis = run.basis
    expected_count = 2 * run.ell + 2
    witness = None
    if len(triples) != expected_count:
        witness = {"expected_count": expected_count, "actual_count": len(triples)}
    else:
        for number, (weight, d, coords) in enumerate(triples):
            want_weight = rank_two.lowest_weight(d, run.ell)
            unit = [Fraction(0)] * basis.dim(d)
            unit[basis.index(d, (0, d))] = Fraction(1)
            image = run.h.block(d).matvec(coords)
            eigen = image == [weight * c for c in coords]
            if d != number or not eigen or weight != want_weight or coords != unit:
                witness = {
                    "degree": d,
                    "expected_weight": str(want_weight),
                    "actual_weight": str(weight),
                    "coords": [str(c) for c in coords],
                }
                if not eigen:
                    witness["h_image"] = [str(c) for c in image]
                break
    return run.report(
        "lowest-weight classes are |0, A_2> with weights A_2 + 1 - k/2",
        {"count": len(triples), "weights": [str(w) for w, _, _ in triples]},
        witness,
    )


def _check_closed_forms(run):
    """Generic localization matrices against the rank-two closed forms.

    Each closed form is built just before it is compared, not all five
    before the first comparison.
    """
    basis = run.basis
    pairs = [
        ("X", run.x, rank_two.closed_form_x),
        ("Y", run.y, rank_two.closed_form_y),
        ("E", run.e, rank_two.closed_form_e),
        ("F", run.f, rank_two.closed_form_f),
        ("H", run.h, rank_two.closed_form_h),
    ]
    compared = {}
    for name, generic, closed_form in pairs:
        closed = closed_form(basis)
        witness = first_mismatch(generic, closed)
        if witness:
            witness["operator"] = name
            break
        compared[name] = min(generic.max_source, closed.max_source)
    return run.report(
        "localization matrices equal the rank-two closed forms",
        {"compared": compared},
        witness,
    )


def _check_y_kernel_vectors(run):
    """The l+1 explicit kernel vectors are nonzero and annihilated by Y exactly.

    The vector numbered N must lie in degree 2N.
    """
    vectors = rank_two.y_kernel_vectors(run.ell)
    expected_count = run.ell + 1
    witness = None
    degrees = []
    if len(vectors) != expected_count:
        witness = {"expected_count": expected_count, "actual_count": len(vectors)}
    else:
        for number, vec in enumerate(vectors):
            image = run.y.apply(vec)
            vec_degrees = {sum(label) for label in vec}
            if image or not any(vec.values()) or vec_degrees != {2 * number}:
                witness = {
                    "vector": number,
                    "support": [list(label) for label in vec],
                    "image": {str(k): str(v) for k, v in image.items()},
                }
                break
            degrees.append(2 * number)
    return run.report(
        "explicit kernel vectors of Y annihilate exactly",
        {"count": len(vectors), "degrees": degrees},
        witness,
    )


def stabilizer_witness(cocharacter, k):
    """Where a one-parameter subgroup moves the curve datum of x^n = t^k, or None.

    The subgroup acts by conjugating the companion matrix of x^n - t^k with
    diag(nu^{d_0}, ..., nu^{d_{n-1}}), scaling it by nu^{flavor}, rotating
    t -> nu^{rot} t, and acting on the cyclic vector e_1.  The entry (i, j),
    which carries t^e, is multiplied by nu^{flavor + d_i - d_j + rot * e} and
    e_1 by nu^{d_0}, so the datum is fixed exactly when all these exponents
    are 0.  The first nonzero one is the witness.
    """
    d = cocharacter.diag_exponents
    n = len(d)
    # support of the companion matrix as (row, col, power of t)
    support = [(0, n - 1, k)] + [(i + 1, i, 0) for i in range(n - 1)]
    for i, j, e in support:
        exponent = (
            cocharacter.flavor_exponent + d[i] - d[j] + cocharacter.rot_exponent * e
        )
        if exponent:
            return {"entry": [i, j], "t_power": e, "nu_exponent": exponent}
    if d[0]:
        return {"cyclic_vector": "e_1", "nu_exponent": d[0]}
    return None


def verify_stabilizer(params):
    """Exact check that ``core.stabilizer_cocharacter`` fixes the curve datum.

    Integer bookkeeping of the powers of nu in ``stabilizer_witness``; a
    failure names the moved companion-matrix entry and its exponent.
    """
    cocharacter = stabilizer_cocharacter(params)
    return VerificationReport(
        "the diagonal cocharacter stabilizes the curve datum",
        params,
        None,
        dict(cocharacter._asdict(), diag_exponents=list(cocharacter.diag_exponents)),
        stabilizer_witness(cocharacter, params.k),
    )


def _check_character_identity(run):
    """Fixed-point counts per degree against the Euler series coefficients."""
    counts = [run.basis.dim(d) for d in run.basis.degrees()]
    return run.report(
        "fixed-point counts equal the Euler series coefficients",
        {"counts": counts},
        first_difference(
            euler_series(run.params, run.max_degree),
            counts,
            "series_coefficient",
            "fixed_point_count",
        ),
    )


def _check_appendix_b(run):
    """Rank-two closed forms, explicit kernel vectors of Y, and lowest weights."""
    reports = [
        _check_closed_forms(run),
        _check_y_kernel_vectors(run),
        _check_lowest_weight_decomposition(run),
    ]
    failed = [r for r in reports if not r.passed]
    return run.report(
        "rank-two closed forms, kernel vectors, and Verma decomposition",
        {"subchecks": [r.to_dict() for r in reports]},
        failed[0].witness if failed else None,
    )


class Suite(NamedTuple):
    """One entry of ``SUITES``, whose preconditions ``run_suite`` applies.

    ``rank_two`` says the suite needs n = 2; ``least_degree(params)`` is
    the least ``max_degree`` at which its check certifies anything;
    ``check(run)`` returns the report and assumes both preconditions, and
    ``reason`` completes the under-truncation message of a suite whose
    least degree is positive.
    """

    rank_two: bool
    least_degree: Callable
    check: Callable
    reason: str | None = None


# name -> Suite, in report order.  ``verify --suite all`` runs the suites
# that apply and reach their least degree, and lists the rest as skipped.  The
# lambdas look each check up when called, so a rebinding of a module name
# (a tracing wrapper, a test double) takes effect.
SUITES = {
    "weyl": Suite(
        False, lambda params: 2, lambda run: _check_weyl_relation(run),
        "the Weyl relation is checked",
    ),
    "sl2": Suite(
        True, lambda params: 1, lambda run: _check_sl2_and_casimir(run),
        "the rank-two relations are checked",
    ),
    "singular": Suite(
        False, lambda params: 0, lambda run: _check_singular_vectors(run)
    ),
    "kernel-y": Suite(
        False, stabilization_degree, lambda run: _check_kernel_y(run),
        "kernel of Y stabilizes",
    ),
    "appendix-b": Suite(
        True, lambda params: params.k + 1, lambda run: _check_appendix_b(run),
        "the lowest-weight count stabilizes",
    ),
    "stabilizer": Suite(
        False, lambda params: 0, lambda run: verify_stabilizer(run.params)
    ),
    "euler": Suite(False, lambda params: 0, lambda run: _check_character_identity(run)),
    "oracle": Suite(
        False, lambda params: 0, lambda run: semigroup.compare_with_fixed_points(run)
    ),
}


def run_suite(name, run):
    """Run one named verification suite on the shared truncation ``run``.

    This is the only route into a suite: it refuses n != 2 for a rank-two
    suite, then a truncation below the suite's least degree, before any
    basis or operator is built.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suite = SUITES[name]
    if suite.rank_two:
        run.params.require_rank_two()
    least = suite.least_degree(run.params)
    if least:
        run.require_degree(least, suite.reason)
    return suite.check(run)


def applicable_suites(run):
    """Suites that ``verify --suite all`` runs on this truncation.

    The rank-two suites need n = 2, and a suite is left out below
    its least degree, where ``run_suite`` would stop the run with an
    under-truncation error.  All of this is decided before any suite runs.
    """
    if run.max_degree is None:
        raise TruncationError("a truncation with no max_degree has no basis")
    return [
        name
        for name, suite in SUITES.items()
        if (run.params.rank_two or not suite.rank_two)
        and suite.least_degree(run.params) <= run.max_degree
    ]

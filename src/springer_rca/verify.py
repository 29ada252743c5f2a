"""Machine checks of the algebra and module structure at finite truncation.

Each suite computes everything twice where two routes exist (generic
localization matrices against closed forms, fixed-point counts against the
series, kernels against dimension formulas) and reports exact pass/fail with
a concrete witness on failure.  No floating point enters anywhere.  Every
check takes one ``Truncation``, which builds the graded basis and each
operator once for all the suites of a run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .core import Record, build_graded_basis, stabilizer_cocharacter
from .errors import DimensionError, InvariantError, UnderTruncationError
from .linalg import RatMat
from .operators import (
    MinusculeCoweight,
    commutator,
    identity_operator,
    minuscule_monopole,
    operator_h,
    zero_operator,
)
from .qseries import QPolynomial, compactified_jacobian_dim, euler_series
from . import linalg, rank_two, semigroup


class VerificationReport(Record):
    """Outcome of one named check; it passes exactly when it has no witness."""

    _fields = __slots__ = ("claim", "params", "max_degree", "details", "witness")

    def __init__(self, claim, params, max_degree, details, witness=None):
        self._set(
            claim=claim,
            params=params,
            max_degree=max_degree,
            details=details,
            witness=witness,
        )

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
            "details": _json_safe(self.details),
            "witness": _json_safe(self.witness),
        }


class GradedKernelSummary(Record):
    """Per-degree kernel data with exact coordinate vectors."""

    _fields = __slots__ = (
        "n", "k", "max_degree", "operator", "per_degree", "total", "vectors"
    )

    def __init__(self, n, k, max_degree, operator, per_degree, total, vectors):
        self._set(
            n=n,
            k=k,
            max_degree=max_degree,
            operator=operator,
            per_degree=per_degree,
            total=total,
            vectors=vectors,
        )

    def to_dict(self):
        return {
            "params": {"n": self.n, "k": self.k, "max_degree": self.max_degree},
            "operator": self.operator,
            "per_degree": {str(d): dim for d, dim in sorted(self.per_degree.items())},
            "total": self.total,
            "vectors": [
                {"degree": d, "coords": [str(c) for c in coords]}
                for d, coords in self.vectors
            ],
        }


class Truncation:
    """One run: the truncation (params, max_degree), its basis and its operators.

    Every suite of a ``verify`` run, the ``operator`` command and the
    ``fixed-points`` command read the graded basis and the named operators
    from here, and nowhere else builds them (``operator --op monopole``, the
    raw coweight route, calls ``minuscule_monopole`` on ``basis`` itself).
    The basis and each operator are built on first use and then shared.  Monopoles are keyed by their
    coweight vector and dressing, so Y and F_1 are one matrix.  Nothing
    mutates a shared operator: composition, sums and scaling all return new
    ones.
    """

    def __init__(self, params, max_degree):
        self.params = params
        self.max_degree = max_degree
        self._basis = None
        self._operators = {}

    @property
    def basis(self):
        if self._basis is None:
            self._basis = build_graded_basis(self.params, self.max_degree)
        return self._basis

    @property
    def ell(self):
        """The rank-two parameter l with k = 2l + 1."""
        return (self.params.k - 1) // 2

    def require_degree(self, required, what):
        """Raise UnderTruncationError unless max_degree >= required."""
        if self.max_degree < required:
            raise UnderTruncationError(
                f"{what} only for max_degree >= {required}, got {self.max_degree}",
                required_degree=required,
            )

    def monopole(self, sign, r, dress=None):
        """E_r[f] (sign 1) or F_r[f] (sign -1), coweight sign * (1^r, 0^(n-r)).

        The lowering family evaluates its dressing at phi - hbar where the
        raising family uses phi; with no dressing the twist is invisible.
        """
        coweight = MinusculeCoweight(sign, r, self.params.n)
        key = (coweight.expansion, dress)
        if key not in self._operators:
            if dress is not None and sign < 0:
                dress = dress.shift_all(self.params.hbar)
            self._operators[key] = minuscule_monopole(self.basis, coweight, dress)
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

    @property
    def f(self):
        """Rank-two lowering generator F = -F_2."""
        self.params.require_rank_two()
        if "F" not in self._operators:
            self._operators["F"] = self.monopole(-1, 2).scaled(-1)
        return self._operators["F"]

    @property
    def h(self):
        """Rank-two Cartan generator H."""
        if "H" not in self._operators:
            self._operators["H"] = operator_h(self.basis)
        return self._operators["H"]


def _json_safe(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(key): _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def first_mismatch(actual, expected, degrees=None):
    """First differing matrix entry of two operators, or None.

    Both operators must have the same shift; comparison runs over the given
    source degrees (default: the common domain).
    """
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


def weyl_degree(params):
    """Least truncation of the Weyl check, which compares degrees 0..D-2."""
    return 2


def check_weyl_relation(run):
    """Compare [X, Y] against n * identity on degrees 0..D-2."""
    run.require_degree(weyl_degree(run.params), "the Weyl relation is checked")
    comm = commutator(run.x, run.y)
    expected = identity_operator(run.basis, scale=run.params.n)
    degrees = range(min(run.max_degree - 2, comm.max_source) + 1)
    return VerificationReport(
        "commutator of X and Y is n times the identity",
        run.params,
        run.max_degree,
        {"degrees_checked": [degrees.start, degrees.stop - 1]},
        first_mismatch(comm, expected, degrees),
    )


def _rank_two_relations(run):
    """Yield (relation, witness or None) for each rank-two identity in order.

    Each relation's two sides are built only when the generator reaches it,
    so a caller that stops at the first witness builds no later relation.
    E F and F E serve both [E,F] and the Casimir, and the Casimir serves the
    cubic relation; each is built once.
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
    casimir = (ef + fe).scaled(2) + h @ h
    yield "Casimir diagonal", _casimir_witness(casimir, basis, run.ell)
    w_plus = (x @ x).scaled(Fraction(1, 2))
    w_zero = (x @ y + y @ x).scaled(Fraction(-1, 2))
    w_minus = (y @ y).scaled(Fraction(-1, 2))
    m = basis.params.m
    cubic = (
        (e @ w_minus + f @ w_plus).scaled(2)
        + h @ w_zero
        + identity_operator(basis, scale=m * (m - 1))
    )
    yield "C2 = 2(E W- + F W+) + H W0 + m(m-1)", first_mismatch(casimir, cubic)


def _casimir_witness(casimir, basis, ell):
    """First Casimir entry off its predicted diagonal eigenvalue, or None.

    Each block is compared whole against the diagonal of eigenvalues; only
    a block that differs is searched, column by column and each column from
    the top, over the entries stored on either side.
    """
    for d in casimir.domain():
        stratum = basis.stratum(d)
        block = casimir.block(d)
        expected = RatMat(
            len(stratum),
            len(stratum),
            {
                (j, j): rank_two.casimir_eigenvalue(label, ell)
                for j, label in enumerate(stratum)
            },
        )
        if block == expected:
            continue
        stored = block.entries.keys() | expected.entries.keys()
        for i, j in sorted(stored, key=lambda key: (key[1], key[0])):
            if block[i, j] != expected[i, j]:
                return {
                    "relation": "Casimir eigenvalue",
                    "degree": d,
                    "row": i,
                    "col": j,
                    "label": list(stratum[j]),
                    "expected": str(expected[i, j]),
                    "actual": str(block[i, j]),
                }
    return None


def sl2_degree(params):
    """Least truncation of the rank-two relations check."""
    return 1


def check_sl2_and_casimir(run):
    """All rank-two commutators, the Casimir eigenvalues, and the cubic relation."""
    run.require_degree(sl2_degree(run.params), "the rank-two relations are checked")
    checked = []
    for name, witness in _rank_two_relations(run):
        if witness:
            # the Casimir witness already names its relation
            witness.setdefault("relation", name)
            break
        checked.append(name)
    return VerificationReport(
        "rank-two commutation relations, Casimir, and cubic relation",
        run.params,
        run.max_degree,
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


def _graded_kernel(run, operators, name):
    """Per-degree joint kernel of ``operators`` on the run's basis."""
    basis = run.basis
    per_degree = {}
    vectors = []
    for d in basis.degrees():
        if basis.dim(d) == 0:
            per_degree[d] = 0
            continue
        kernel = _verified_nullspace([op.block(d) for op in operators], basis.dim(d))
        per_degree[d] = len(kernel)
        vectors.extend((d, tuple(vec)) for vec in kernel)
    return GradedKernelSummary(
        n=run.params.n,
        k=run.params.k,
        max_degree=run.max_degree,
        operator=name,
        per_degree=per_degree,
        total=sum(per_degree.values()),
        vectors=vectors,
    )


def singular_vectors(run):
    """Joint kernel of all lowering operators F_1[1], ..., F_n[1], by degree."""
    lowering = [run.monopole(-1, r) for r in range(1, run.params.n + 1)]
    return _graded_kernel(run, lowering, "joint kernel of F_r[1], r = 1..n")


def check_singular_vectors(run):
    """The vacuum class is the unique singular vector up to the truncation."""
    summary = singular_vectors(run)
    witness = None
    if summary.per_degree.get(0) != 1:
        witness = {"degree": 0, "expected_dim": 1, "actual_dim": summary.per_degree.get(0)}
    else:
        for d in range(1, run.max_degree - run.params.n + 1):
            if summary.per_degree.get(d, 0) != 0:
                witness = {"degree": d, "expected_dim": 0, "actual_dim": summary.per_degree[d]}
                break
    return VerificationReport(
        "joint kernel of the lowering family is spanned by the vacuum",
        run.params,
        run.max_degree,
        {"summary": summary.to_dict()},
        witness,
    )


def stabilization_degree(params):
    """Smallest truncation at which kernel and character data stabilize."""
    return (params.n - 1) * (params.k - 1) + params.n


def kernel_y(run):
    """Per-degree kernel of the lowering Weyl generator Y."""
    run.require_degree(stabilization_degree(run.params), "kernel of Y stabilizes")
    return _graded_kernel(run, [run.y], "Y")


def finite_part_character(run):
    """The polynomial (1 - q) times the graded Euler series.

    The series counts fixed points per degree; those counts stabilize, so
    the product is a polynomial of degree (n-1)(k-1) with nonnegative
    coefficients summing to the compactified Jacobian dimension.  All three
    facts are checked here and raise InvariantError if they fail.
    """
    params, max_degree = run.params, run.max_degree
    run.require_degree(stabilization_degree(params), "the finite part stabilizes")
    series = euler_series(params, max_degree)
    diff = [
        series.coefficient(d) - series.coefficient(d - 1)
        for d in range(max_degree + 1)
    ]
    top = (params.n - 1) * (params.k - 1)
    if any(diff[top + 1 :]):
        raise InvariantError(f"the Euler series did not stabilize past degree {top}")
    if any(c < 0 for c in diff):
        raise InvariantError(f"the finite part {diff} has a negative coefficient")
    poly = QPolynomial(diff)
    if poly.degree != top:
        raise InvariantError(f"the finite part has degree {poly.degree}, not {top}")
    if poly(1) != compactified_jacobian_dim(params):
        raise InvariantError(
            f"the finite part sums to {poly(1)}, not the compactified Jacobian "
            f"dimension {compactified_jacobian_dim(params)}"
        )
    return poly


def check_kernel_y(run):
    """Kernel of Y against the closed dimension count and the finite character."""
    summary = kernel_y(run)
    expected_total = compactified_jacobian_dim(run.params)
    character = finite_part_character(run)
    witness = None
    if summary.total != expected_total:
        witness = {"expected_total": expected_total, "actual_total": summary.total}
    else:
        for d in range(run.max_degree + 1):
            if summary.per_degree.get(d, 0) != character.coefficient(d):
                witness = {
                    "degree": d,
                    "expected_dim": character.coefficient(d),
                    "actual_dim": summary.per_degree.get(d, 0),
                }
                break
    return VerificationReport(
        "kernel of Y matches the compactified Jacobian cohomology",
        run.params,
        run.max_degree,
        {
            "summary": summary.to_dict(),
            "expected_total": expected_total,
            "character_coefficients": list(character.coeffs),
        },
        witness,
    )


def lowest_weight_decomposition(run):
    """Kernel of the rank-two lowering operator F with Cartan weights.

    Returns (weight, degree, coords) triples; F drops degree by two, and the
    Cartan eigenvalue on pure degree d is d + 1 - k/2.  The count is complete
    only for max_degree >= k + 1, which ``check_appendix_b`` requires.
    """
    kernel = _graded_kernel(run, [run.f], "F")
    half_k = Fraction(run.params.k, 2)
    return [(d + 1 - half_k, d, coords) for d, coords in kernel.vectors]


def check_lowest_weight_decomposition(run):
    """Verma decomposition data: 2l+2 lowest-weight classes |0, A_2>."""
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
            if d != number or weight != want_weight or list(coords) != unit:
                witness = {
                    "degree": d,
                    "expected_weight": str(want_weight),
                    "actual_weight": str(weight),
                    "coords": [str(c) for c in coords],
                }
                break
    return VerificationReport(
        "lowest-weight classes are |0, A_2> with weights A_2 + 1 - k/2",
        run.params,
        run.max_degree,
        {"count": len(triples), "weights": [str(w) for w, _, _ in triples]},
        witness,
    )


def check_closed_forms(run):
    """Generic localization matrices against the rank-two closed forms."""
    basis = run.basis
    pairs = [
        ("X", run.x, rank_two.closed_form_x(basis)),
        ("Y", run.y, rank_two.closed_form_y(basis)),
        ("E", run.e, rank_two.closed_form_e(basis)),
        ("F", run.f, rank_two.closed_form_f(basis)),
        ("H", run.h, rank_two.closed_form_h(basis)),
    ]
    compared = {}
    for name, generic, closed in pairs:
        witness = first_mismatch(generic, closed)
        if witness:
            witness["operator"] = name
            break
        compared[name] = min(generic.max_source, closed.max_source)
    return VerificationReport(
        "localization matrices equal the rank-two closed forms",
        run.params,
        run.max_degree,
        {"compared": compared},
        witness,
    )


def check_y_kernel_vectors(run):
    """The l+1 explicit kernel vectors are annihilated by Y exactly."""
    vectors = rank_two.y_kernel_vectors(run.ell)
    witness = None
    degrees = []
    for number, vec in enumerate(vectors):
        image = run.y.apply(vec)
        vec_degrees = {sum(label) for label in vec}
        if image or vec_degrees != {2 * number}:
            witness = {
                "vector": number,
                "support": [list(label) for label in vec],
                "image": {str(k): str(v) for k, v in image.items()},
            }
            break
        degrees.append(2 * number)
    return VerificationReport(
        "explicit kernel vectors of Y annihilate exactly",
        run.params,
        run.max_degree,
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
        {
            "diag_exponents": list(cocharacter.diag_exponents),
            "flavor_exponent": cocharacter.flavor_exponent,
            "rot_exponent": cocharacter.rot_exponent,
        },
        stabilizer_witness(cocharacter, params.k),
    )


def check_character_identity(run):
    """Fixed-point counts per degree against the Euler series coefficients."""
    params = run.params
    series = euler_series(params, run.max_degree)
    counts = [run.basis.dim(d) for d in run.basis.degrees()]
    witness = None
    for d, count in enumerate(counts):
        if count != series.coefficient(d):
            witness = {
                "degree": d,
                "series_coefficient": series.coefficient(d),
                "fixed_point_count": count,
            }
            break
    return VerificationReport(
        "fixed-point counts equal the Euler series coefficients",
        params,
        run.max_degree,
        {"counts": counts},
        witness,
    )


def appendix_b_degree(params):
    """Least truncation at which the lowest-weight count is complete."""
    return params.k + 1


def check_appendix_b(run):
    """Rank-two closed forms, explicit kernel vectors of Y, and lowest weights."""
    run.require_degree(appendix_b_degree(run.params), "the lowest-weight count stabilizes")
    reports = [
        check_closed_forms(run),
        check_y_kernel_vectors(run),
        check_lowest_weight_decomposition(run),
    ]
    failed = [r for r in reports if not r.passed]
    return VerificationReport(
        "rank-two closed forms, kernel vectors, and Verma decomposition",
        run.params,
        run.max_degree,
        {"subchecks": [r.to_dict() for r in reports]},
        failed[0].witness if failed else None,
    )


def _no_degree(params):
    return 0


class Suite(NamedTuple):
    """One entry of ``SUITES``.

    ``rank_two`` says the suite needs n = 2, which ``run_suite`` checks
    before the check runs; ``least_degree(params)`` is the least
    ``max_degree`` at which its check certifies anything (the check's own
    guard reads the same function), and ``check(run)`` returns its report.
    """

    rank_two: bool
    least_degree: Callable
    check: Callable


# name -> Suite, in report order.  ``verify --suite all`` runs the suites
# that apply and reach their least degree, and lists the rest as skipped.  The
# lambdas look each check up when called, so a rebinding of a module name
# (a tracing wrapper, a test double) takes effect.
SUITES = {
    "weyl": Suite(False, weyl_degree, lambda run: check_weyl_relation(run)),
    "sl2": Suite(True, sl2_degree, lambda run: check_sl2_and_casimir(run)),
    "singular": Suite(False, _no_degree, lambda run: check_singular_vectors(run)),
    "kernel-y": Suite(False, stabilization_degree, lambda run: check_kernel_y(run)),
    "appendix-b": Suite(True, appendix_b_degree, lambda run: check_appendix_b(run)),
    "stabilizer": Suite(False, _no_degree, lambda run: verify_stabilizer(run.params)),
    "euler": Suite(False, _no_degree, lambda run: check_character_identity(run)),
    "oracle": Suite(
        False, _no_degree, lambda run: semigroup.compare_with_fixed_points(run)
    ),
}


def run_suite(name, run):
    """Run one named verification suite on the shared truncation ``run``."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suite = SUITES[name]
    if suite.rank_two:
        run.params.require_rank_two()
    return suite.check(run)


def applicable_suites(run):
    """Suites that ``verify --suite all`` runs on this truncation.

    The rank-two suites need n = 2, and a suite is left out below
    its least degree, where its check would stop the run with an
    under-truncation error.  All of this is decided before any suite runs.
    """
    return [
        name
        for name, suite in SUITES.items()
        if (run.params.rank_two or not suite.rank_two)
        and suite.least_degree(run.params) <= run.max_degree
    ]

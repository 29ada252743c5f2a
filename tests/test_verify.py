"""Verification suites: relation checks, kernels, characters, stabilizer."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from springer_rca import (
    DimensionError,
    InvariantError,
    Params,
    SpringerRcaError,
    StabilizerCocharacter,
    TruncationError,
    UnderTruncationError,
    UnsupportedParametersError,
    build_graded_basis,
    count_ideals,
    finite_part_character,
    kernel_y,
    lowest_weight_decomposition,
    singular_vectors,
    stabilizer_cocharacter,
)
from springer_rca import linalg, operators, rank_two, semigroup, verify
from springer_rca.cli import main
from springer_rca.linalg import RatMat
from springer_rca.operators import (
    DressPolynomial,
    GradedOperator,
    identity_operator,
    minuscule_monopole,
    operator_h,
)
from springer_rca.verify import (
    SUITES,
    Truncation,
    _check_lowest_weight_decomposition,
    _check_y_kernel_vectors,
    _verified_nullspace,
    applicable_suites,
    first_mismatch,
    VerificationReport,
    run_suite,
    stabilization_degree,
    stabilizer_witness,
    verify_stabilizer,
)
from test_rank_two import casimir_eigenvalue

COPRIME_PAIRS = [(n, k) for n in range(1, 6) for k in range(1, 10) if gcd(n, k) == 1]


def sympy_stabilizer_fixes(n, k, cocharacter):
    """Reference: the symbolic conjugation the integer check replaces.

    Conjugates the companion matrix of x^n - t^k by diag(nu^{d_a}), scales it
    by nu^{flavor}, rotates t -> nu^{rot} t, and simplifies the difference
    from the original datum, cyclic vector e_1 included.
    """
    sympy = pytest.importorskip("sympy")
    nu = sympy.Symbol("nu", nonzero=True)
    t = sympy.Symbol("t")

    def companion(t_value):
        gamma = sympy.zeros(n, n)
        gamma[0, n - 1] = t_value**k
        for i in range(n - 1):
            gamma[i + 1, i] = 1
        return gamma

    g = sympy.diag(*[nu**d for d in cocharacter.diag_exponents])
    transformed = (
        nu**cocharacter.flavor_exponent
        * g
        * companion(nu**cocharacter.rot_exponent * t)
        * g.inv()
    )
    if sympy.simplify(transformed - companion(t)) != sympy.zeros(n, n):
        return False
    e1 = sympy.Matrix([1] + [0] * (n - 1))
    return sympy.simplify(g * e1 - e1) == sympy.zeros(n, 1)


def _perturbed(cocharacter):
    """One cocharacter off by one in each of diag (every slot), flavor, rot."""
    d = cocharacter.diag_exponents
    flavor, rot = cocharacter.flavor_exponent, cocharacter.rot_exponent
    out = [
        StabilizerCocharacter(d[:a] + (d[a] + 1,) + d[a + 1 :], flavor, rot)
        for a in range(len(d))
    ]
    out.append(StabilizerCocharacter(d, flavor + 1, rot))
    out.append(StabilizerCocharacter(d, flavor, rot + 1))
    return out


@pytest.mark.parametrize("n,k,D", [(2, 3, 10), (3, 4, 8), (1, 5, 6)])
def test_weyl_relation_passes(n, k, D):
    report = run_suite("weyl", Truncation(Params(n, k), D))
    assert report.passed
    assert report.witness is None


@pytest.mark.parametrize("D", [0, 1])
def test_weyl_relation_requires_degree_2(D):
    with pytest.raises(UnderTruncationError) as info:
        run_suite("weyl", Truncation(Params(3, 4), D))
    assert info.value.required_degree == 2


def test_weyl_relation_fault_injection():
    # corrupt one Y entry and demand a concrete witness
    run = Truncation(Params(2, 3), 6)
    y = run.y
    block = y.block(1)
    y.blocks[1] = block + RatMat(block.nrows, block.ncols, {(0, 0): 1})
    report = run_suite("weyl", run)
    assert report.details["degrees_checked"] == [0, 4]
    assert not report.passed
    assert report.witness["degree"] in (0, 1)
    assert "expected" in report.witness and "actual" in report.witness


@pytest.mark.parametrize("k", [3, 5])
def test_sl2_and_casimir(k):
    report = run_suite("sl2", Truncation(Params(2, k), 10))
    assert report.passed
    assert "Casimir diagonal" in report.details["relations_checked"]


def test_sl2_rejects_bad_params():
    with pytest.raises(UnsupportedParametersError):
        run_suite("sl2", Truncation(Params(3, 4), 8))
    with pytest.raises(UnsupportedParametersError):
        run_suite("sl2", Truncation(Params(2, 4), 8))


@pytest.mark.parametrize("suite", ["sl2", "appendix-b"])
def test_rank_two_precondition_comes_before_the_degree_guard(suite):
    # D = 0 is below both suites' least degree, yet n = 3 is refused first
    with pytest.raises(UnsupportedParametersError):
        run_suite(suite, Truncation(Params(3, 4), 0))


def test_casimir_spot_values():
    # eigenvalues (A2 - A1 - 3/2)^2 - 1 on the first two strata
    run = Truncation(Params(2, 3), 6)
    e, f, h = run.e, run.f, run.h
    casimir = (e @ f + f @ e).scaled(2) + h @ h
    assert casimir.block(0)[0, 0] == Fraction(5, 4)
    assert casimir.block(1)[0, 0] == Fraction(-3, 4)


def reference_casimir_witness(casimir, basis, ell):
    """Dense scan of every Casimir entry, row by row: the reference."""
    for d in casimir.domain():
        block = casimir.block(d)
        stratum = basis.stratum(d)
        for i, target in enumerate(stratum):
            for j, label in enumerate(stratum):
                got = block[i, j]
                want = casimir_eigenvalue(label, ell) if i == j else Fraction(0)
                if got != want:
                    return {
                        "degree": d,
                        "row": i,
                        "col": j,
                        "source_label": list(label),
                        "target_label": list(target),
                        "expected": str(want),
                        "actual": str(got),
                    }
    return None


# (degree, {(i, j): added value}) perturbations of the Casimir at (2, 5, 9)
CASIMIR_PERTURBATIONS = {
    "none": (None, {}),
    "diagonal miss": (6, {(1, 1): Fraction(1, 3)}),
    "off-diagonal below": (6, {(2, 1): Fraction(-2, 7)}),
    "off-diagonal above": (6, {(0, 2): 5}),
    "off-diagonal above a diagonal miss": (7, {(0, 1): 1, (1, 1): -1}),
    "diagonal miss above an off-diagonal": (7, {(2, 1): 1, (1, 1): Fraction(1, 2)}),
    "two columns": (5, {(2, 2): 1, (0, 1): 3}),
    "two off-diagonals in one column": (6, {(1, 0): 1, (2, 0): -1}),
    "lower row in an earlier column": (6, {(0, 2): 1, (1, 0): 1}),
}


@pytest.mark.parametrize(
    "degree,delta", CASIMIR_PERTURBATIONS.values(), ids=CASIMIR_PERTURBATIONS.keys()
)
def test_casimir_witness_matches_dense_reference(degree, delta):
    run = Truncation(Params(2, 5), 9)
    e, f, h = run.e, run.f, run.h
    casimir = (e @ f + f @ e).scaled(2) + h @ h
    if degree is not None:
        bump = identity_operator(run.basis, 0)
        dim = run.basis.dim(degree)
        bump.blocks[degree] = RatMat(dim, dim, delta)
        casimir = casimir + bump
    got = first_mismatch(casimir, rank_two.casimir_diagonal(run.basis))
    want = reference_casimir_witness(casimir, run.basis, run.ell)
    assert json.dumps(got) == json.dumps(want)
    assert (got is None) == (degree is None)


@pytest.mark.parametrize("n,k,D", [(2, 3, 10), (3, 4, 9)])
def test_singular_vectors(n, k, D):
    kernels = singular_vectors(Truncation(Params(n, k), D))
    assert len(kernels) == D + 1
    assert kernels[0] == [[1]]
    assert not any(kernels[1:])
    assert run_suite("singular", Truncation(Params(n, k), D)).passed


def test_singular_witness_names_a_kernel_at_the_top_degree():
    # a lowering block at degree D needs no higher degree, so D is checked
    run = Truncation(Params(3, 4), 12)
    top = run.max_degree
    for r in (1, 2, 3):
        blocks = run.monopole(-1, r).blocks
        blocks[top] = RatMat(*blocks[top].shape)
    report = run_suite("singular", run)
    assert report.witness == {
        "degree": top, "expected_dim": 0, "actual_dim": run.basis.dim(top)
    }


# every coprime pair 2 <= n <= 7, 1 <= k <= 11 whose stabilization degree
# (n - 1)(k - 1) + n is at most 30
GRID = [
    (n, k)
    for n in range(2, 8)
    for k in range(1, 12)
    if gcd(n, k) == 1 and (n - 1) * (k - 1) + n <= 30
]


@pytest.mark.parametrize("n,k", GRID)
def test_every_applicable_suite_passes_at_the_stabilization_degree(n, k):
    params = Params(n, k)
    run = Truncation(params, stabilization_degree(params))
    for name in applicable_suites(run):
        assert run_suite(name, run).passed, name


def test_singular_vector_survives_dressing():
    # the joint kernel at degree zero also dies under dressed lowering ops
    run = Truncation(Params(3, 4), 6)
    for r in (1, 2, 3):
        for dress in (
            DressPolynomial.elementary(3, 1),
            DressPolynomial.elementary(3, 2),
        ):
            op = run.monopole(-1, r, dress)
            assert op.apply({(0, 0, 0): 1}) == {}


def test_kernel_y_counts():
    kernels = kernel_y(Truncation(Params(2, 3), 8))
    nonzero = {d: len(kernel) for d, kernel in enumerate(kernels) if kernel}
    assert nonzero == {0: 1, 2: 1}
    assert sum(map(len, kernel_y(Truncation(Params(3, 4), 12)))) == 5
    assert run_suite("kernel-y", Truncation(Params(2, 3), 8)).passed
    assert run_suite("kernel-y", Truncation(Params(3, 4), 9)).passed


def test_kernel_y_under_truncation():
    with pytest.raises(UnderTruncationError) as info:
        kernel_y(Truncation(Params(4, 5), 8))
    assert info.value.required_degree == 16


def test_finite_part_character_values():
    assert finite_part_character(Truncation(Params(2, 3), 8)) == [1, 0, 1]
    assert finite_part_character(Truncation(Params(2, 5), 10)) == [1, 0, 1, 0, 1]
    with pytest.raises(UnderTruncationError):
        finite_part_character(Truncation(Params(4, 5), 10))


# (3, 4) has Euler series 1, 1, 2, 3, 4, 4, 5, 5, 5, 5 up to degree 9, and
# finite part 1, 0, 1, 1, 1, 0, 1 of degree 6 summing to 5
EULER_FAULTS = {
    "unstable": (
        lambda series: series[:-1] + [series[-1] + 1],
        "the Euler series did not stabilize past degree 6",
    ),
    "negative difference": (
        lambda series: [series[0], series[1] - 1] + series[2:],
        "the finite part [1, -1, 2, 1, 1, 0, 1, 0, 0, 0] has a negative coefficient",
    ),
    "wrong top degree": (
        lambda series: series[:5] + [series[4]] * (len(series) - 5),
        "the finite part has degree 4, not 6",
    ),
    "wrong sum": (
        lambda series: [2 * c for c in series],
        "the finite part sums to 10, not the compactified Jacobian dimension 5",
    ),
}


@pytest.mark.parametrize(
    "damage,message", EULER_FAULTS.values(), ids=EULER_FAULTS.keys()
)
def test_wrong_euler_series_stops_kernel_y_with_exit_5(
    monkeypatch, capsys, damage, message
):
    euler_series = verify.euler_series
    monkeypatch.setattr(
        verify, "euler_series", lambda params, D: damage(euler_series(params, D))
    )
    code = main(["verify", "--suite", "kernel-y", "--n", "3", "--k", "4", "-D", "9"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == f"error: invariant violated: {message}\n"


@pytest.mark.parametrize("n,k,D,top", [(2, 3, 8, 2), (3, 4, 9, 6)])
def test_kernel_y_missing_its_top_vector_names_the_degree(
    monkeypatch, capsys, n, k, D, top
):
    def dropped(run):
        kernels = kernel_y(run)
        kernels[top] = kernels[top][:-1]
        return kernels

    monkeypatch.setattr(verify, "kernel_y", dropped)
    code = main(
        ["verify", "--suite", "kernel-y", "--n", str(n), "--k", str(k), "-D", str(D)]
    )
    [report] = json.loads(capsys.readouterr().out)["results"]["suites"]
    assert code == 1
    assert report["witness"] == {"degree": top, "expected_dim": 1, "actual_dim": 0}
    assert report["details"]["expected_total"] == sum(
        report["details"]["character_coefficients"]
    )


def test_finite_part_matches_kernel_dims():
    run = Truncation(Params(3, 4), 12)
    character = finite_part_character(run)
    dims = [len(kernel) for kernel in kernel_y(run)]
    assert dims == character + [0] * (13 - len(character))
    assert sum(character) == sum(dims)


def test_lowest_weight_decomposition():
    triples = lowest_weight_decomposition(Truncation(Params(2, 3), 10))
    assert [(str(w), d) for w, d, _ in triples] == [
        ("-1/2", 0),
        ("1/2", 1),
        ("3/2", 2),
        ("5/2", 3),
    ]
    assert len(lowest_weight_decomposition(Truncation(Params(2, 5), 10))) == 6
    assert _check_lowest_weight_decomposition(Truncation(Params(2, 3), 10)).passed
    assert _check_lowest_weight_decomposition(Truncation(Params(2, 7), 12)).passed
    with pytest.raises(UnderTruncationError):
        run_suite("appendix-b", Truncation(Params(2, 7), 7))


def test_missing_lowest_weight_class_gives_the_count_witness(monkeypatch, capsys):
    monkeypatch.setattr(
        verify,
        "lowest_weight_decomposition",
        lambda run: lowest_weight_decomposition(run)[:-1],
    )
    code = main(["verify", "--suite", "appendix-b", "--n", "2", "--k", "7", "-D", "8"])
    [report] = json.loads(capsys.readouterr().out)["results"]["suites"]
    assert code == 1
    assert report["witness"] == {"expected_count": 8, "actual_count": 7}
    assert [sub["status"] for sub in report["details"]["subchecks"]] == [
        "pass", "pass", "fail"
    ]


def test_rank_two_lowering_kills_boundary_classes():
    f = Truncation(Params(2, 3), 6).f
    for a2 in range(4):
        assert f.apply({(0, a2): 1}) == {}


@pytest.mark.parametrize("ell", [1, 2])
def test_y_kernel_vector_check(ell):
    assert _check_y_kernel_vectors(Truncation(Params(2, 2 * ell + 1), 2 * ell + 1)).passed


# (2, 7) has l = 3, so four kernel vectors in degrees 0, 2, 4, 6
Y_KERNEL_FAULTS = {
    "no vectors": (
        lambda vectors: [], {"expected_count": 4, "actual_count": 0}
    ),
    "only the first": (
        lambda vectors: vectors[:1], {"expected_count": 4, "actual_count": 1}
    ),
    "zero coefficients": (
        lambda vectors: [dict.fromkeys(vec, 0) for vec in vectors],
        {"vector": 0, "support": [[0, 0]], "image": {}},
    ),
}


@pytest.mark.parametrize(
    "damage,witness", Y_KERNEL_FAULTS.values(), ids=Y_KERNEL_FAULTS.keys()
)
def test_wrong_y_kernel_vectors_exit_1(monkeypatch, capsys, damage, witness):
    y_kernel_vectors = rank_two.y_kernel_vectors
    monkeypatch.setattr(
        rank_two, "y_kernel_vectors", lambda ell: damage(y_kernel_vectors(ell))
    )
    code = main(["verify", "--suite", "appendix-b", "--n", "2", "--k", "7", "-D", "8"])
    [report] = json.loads(capsys.readouterr().out)["results"]["suites"]
    assert code == 1
    assert report["witness"] == witness
    assert [sub["status"] for sub in report["details"]["subchecks"]] == [
        "pass", "fail", "pass"
    ]


@pytest.mark.parametrize("change,length", [(-3, 6), (1, 10)])
def test_count_lists_of_different_lengths_exit_5(monkeypatch, capsys, change, length):
    count_ideals = semigroup.count_ideals

    def resized(n, k, m):
        counts = count_ideals(n, k, m)
        return counts[:change] if change < 0 else counts + [0] * change

    monkeypatch.setattr(semigroup, "count_ideals", resized)
    code = main(["verify", "--suite", "oracle", "--n", "3", "--k", "4", "-D", "8"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == (
        "error: invariant violated: "
        f"ideal_count lists {length} degrees, fixed_point_count lists 9\n"
    )


def test_wrong_ideal_count_exits_1(monkeypatch, capsys):
    count_ideals = semigroup.count_ideals

    def bumped(n, k, m):
        counts = count_ideals(n, k, m)
        counts[3] += 1
        return counts

    monkeypatch.setattr(semigroup, "count_ideals", bumped)
    code = main(["verify", "--suite", "oracle", "--n", "3", "--k", "4", "-D", "8"])
    [report] = json.loads(capsys.readouterr().out)["results"]["suites"]
    assert code == 1
    assert list(report["witness"]) == ["degree", "ideal_count", "fixed_point_count"]
    assert report["witness"]["degree"] == 3


@pytest.mark.parametrize("n,k", [(2, 3), (3, 4), (1, 4)])
def test_stabilizer(n, k):
    assert verify_stabilizer(Params(n, k)).passed


@pytest.mark.parametrize("n,k", COPRIME_PAIRS)
def test_stabilizer_matches_sympy_reference(n, k):
    params = Params(n, k)
    cocharacter = stabilizer_cocharacter(params)
    report = verify_stabilizer(params)
    assert sympy_stabilizer_fixes(n, k, cocharacter)
    assert report.passed
    assert report.details == {
        "diag_exponents": list(cocharacter.diag_exponents),
        "flavor_exponent": cocharacter.flavor_exponent,
        "rot_exponent": cocharacter.rot_exponent,
    }
    for moved in _perturbed(cocharacter):
        assert not sympy_stabilizer_fixes(n, k, moved), moved
        assert stabilizer_witness(moved, k) is not None, moved


@pytest.mark.parametrize("n,k", [(1, 4), (2, 3), (3, 5), (5, 9)])
def test_stabilizer_perturbations_carry_witnesses(n, k):
    cocharacter = stabilizer_cocharacter(Params(n, k))
    d = cocharacter.diag_exponents
    flavor, rot = cocharacter.flavor_exponent, cocharacter.rot_exponent
    assert stabilizer_witness(StabilizerCocharacter(d, flavor - 1, rot), k) == {
        "entry": [0, n - 1], "t_power": k, "nu_exponent": -1,
    }
    assert stabilizer_witness(StabilizerCocharacter(d, flavor, rot + 2), k) == {
        "entry": [0, n - 1], "t_power": k, "nu_exponent": 2 * k,
    }
    # shifting every diagonal exponent fixes the matrix but moves e_1
    shifted = StabilizerCocharacter(tuple(a + 3 for a in d), flavor, rot)
    assert stabilizer_witness(shifted, k) == {"cyclic_vector": "e_1", "nu_exponent": 3}
    if n > 1:
        diag = StabilizerCocharacter(d[:-1] + (d[-1] + 1,), flavor, rot)
        assert stabilizer_witness(diag, k) == {
            "entry": [0, n - 1], "t_power": k, "nu_exponent": -1,
        }


def test_stabilizer_requires_coprime():
    with pytest.raises(UnsupportedParametersError):
        verify_stabilizer(Params(2, 4))


def test_character_identity_suite():
    assert run_suite("euler", Truncation(Params(2, 3), 12)).passed
    assert run_suite("euler", Truncation(Params(3, 5), 12)).passed


def test_run_suite_dispatch():
    run = Truncation(Params(2, 3), 10)
    for name in applicable_suites(run):
        report = run_suite(name, run)
        assert report.passed, name
    with pytest.raises(ValueError):
        run_suite("nope", Truncation(Params(2, 3), 4))


def test_applicable_suites_filtering():
    assert "sl2" in applicable_suites(Truncation(Params(2, 3), 10))
    names = applicable_suites(Truncation(Params(3, 4), 10))
    assert "sl2" not in names and "appendix-b" not in names
    assert "weyl" in names
    # below its least degree a suite is skipped, not run into exit 4
    assert applicable_suites(Truncation(Params(3, 4), 1)) == [
        "singular", "stabilizer", "euler", "oracle",
    ]
    assert applicable_suites(Truncation(Params(2, 5), 5)) == [
        "weyl", "sl2", "singular", "stabilizer", "euler", "oracle",
    ]
    assert "kernel-y" not in applicable_suites(Truncation(Params(7, 8), 24))


def test_suites_carry_their_least_degree():
    for params in (Params(2, 5), Params(3, 4)):
        least = {name: suite.least_degree(params) for name, suite in SUITES.items()}
        assert least == {
            "weyl": 2,
            "sl2": 3,
            "singular": 0,
            "kernel-y": stabilization_degree(params),
            "appendix-b": params.k + 1,
            "stabilizer": 0,
            "euler": 0,
            "oracle": 0,
        }


@pytest.mark.parametrize("n,k", [(2, 5), (3, 4)])
def test_check_guards_read_the_least_degree(n, k):
    params = Params(n, k)
    for name in applicable_suites(Truncation(params, 24)):
        least = SUITES[name].least_degree(params)
        if least > 0:
            with pytest.raises(UnderTruncationError) as info:
                run_suite(name, Truncation(params, least - 1))
            assert info.value.required_degree == least, name
        assert run_suite(name, Truncation(params, least)).passed, name


# (suite, n, k) for each suite that compares identities, run at its least degree
LEAST_DEGREE_CASES = [
    ("weyl", n, k) for n in range(1, 7) for k in range(1, 10) if gcd(n, k) == 1
] + [(suite, 2, k) for suite in ("sl2", "appendix-b") for k in range(1, 22, 2)]


@pytest.mark.parametrize("suite,n,k", LEAST_DEGREE_CASES)
def test_every_identity_compares_an_entry_at_the_least_degree(monkeypatch, suite, n, k):
    # a comparison whose every block lacks a row or a column certifies nothing
    compare = verify.first_mismatch
    covered = []

    def recording(actual, expected, degrees=None):
        if degrees is None:
            degrees = range(min(actual.max_source, expected.max_source) + 1)
        covered.append(any(min(actual.block(d).shape) > 0 for d in degrees))
        return compare(actual, expected, degrees)

    monkeypatch.setattr(verify, "first_mismatch", recording)
    params = Params(n, k)
    report = run_suite(suite, Truncation(params, SUITES[suite].least_degree(params)))
    assert report.passed
    assert covered and all(covered), covered


@settings(deadline=None, max_examples=60)
@given(
    st.tuples(st.integers(1, 7), st.integers(1, 11)).filter(lambda nk: gcd(*nk) == 1),
    st.integers(0, 80),
)
def test_every_guard_refuses_before_any_work(nk, D):
    # a rank-two suite refuses n != 2 at every D; any other guarded suite
    # refuses one below its least degree; neither builds the basis first
    params = Params(*nk)
    for name, suite in SUITES.items():
        least = suite.least_degree(params)
        if suite.rank_two and not params.rank_two:
            run = Truncation(params, D)
            with pytest.raises(UnsupportedParametersError):
                run_suite(name, run)
        elif least > 0:
            run = Truncation(params, least - 1)
            with pytest.raises(UnderTruncationError) as info:
                run_suite(name, run)
            assert info.value.required_degree == least, name
        else:
            continue
        assert "basis" not in vars(run), name


# the truncation of the stabilizer suite: no max_degree
NO_DEGREE_ERRORS = {
    "weyl": UnderTruncationError,
    "sl2": UnderTruncationError,
    "singular": TruncationError,
    "kernel-y": UnderTruncationError,
    "appendix-b": UnderTruncationError,
    "euler": TruncationError,
    "oracle": TruncationError,
}


@pytest.mark.parametrize("name", list(SUITES))
def test_suites_without_max_degree_raise_package_errors(name):
    run = Truncation(Params(2, 3), None)
    if name == "stabilizer":
        assert run_suite(name, run).passed
        return
    with pytest.raises(SpringerRcaError) as info:
        run_suite(name, run)
    assert type(info.value) is NO_DEGREE_ERRORS[name]
    assert "basis" not in vars(run)


def test_applicable_suites_without_max_degree_raise_truncation_error():
    # as the run's basis does, rather than comparing a degree with None
    run = Truncation(Params(2, 3), None)
    message = r"^a truncation with no max_degree has no basis$"
    with pytest.raises(TruncationError, match=message):
        applicable_suites(run)
    with pytest.raises(TruncationError, match=message):
        run.basis


def test_first_mismatch_refuses_operators_on_different_bases():
    # both are X, of shift 1, so only the bases tell them apart
    a = Truncation(Params(2, 3), 4).x
    b = Truncation(Params(3, 4), 4).x
    with pytest.raises(DimensionError, match="^operators live on different graded bases$"):
        first_mismatch(a, b)


def test_first_mismatch_refuses_operators_of_different_shifts():
    run = Truncation(Params(2, 3), 4)
    with pytest.raises(
        DimensionError, match=r"^comparing operators of different shifts 1 vs -1$"
    ):
        first_mismatch(run.x, run.y)


def test_report_status_follows_witness():
    p = Params(2, 3)
    passed = VerificationReport("x", p, 4, {"a": 1})
    assert passed.status == "pass" and passed.passed and passed.witness is None
    failed = VerificationReport("x", p, None, {}, {"degree": 0})
    assert failed.status == "fail" and not failed.passed
    assert failed.witness == {"degree": 0}
    assert failed.to_dict()["params"] == {"n": 2, "k": 3, "max_degree": None}


def _wrong_nullspace(self):
    return [[Fraction(1)] * self.ncols]


def _one_free_column():
    """A 1 x 2 block with a nonzero kernel, so the exact nullspace runs."""
    return RatMat(1, 2, {(0, 0): Fraction(1)})


def test_verified_nullspace_rejects_wrong_kernel(monkeypatch):
    block = _one_free_column()
    monkeypatch.setattr(RatMat, "nullspace", _wrong_nullspace)
    with pytest.raises(InvariantError, match="not annihilated"):
        _verified_nullspace([block], 2)
    with pytest.raises(InvariantError, match="columns"):
        _verified_nullspace([block], 3)


def _recorded_nullspaces(monkeypatch):
    """The shape of each block whose exact nullspace runs from now on."""
    shapes = []
    exact = RatMat.nullspace

    def recorded(self):
        shapes.append(self.shape)
        return exact(self)

    monkeypatch.setattr(RatMat, "nullspace", recorded)
    return shapes


def test_singular_takes_the_exact_nullspace_only_at_degree_0(monkeypatch):
    shapes = _recorded_nullspaces(monkeypatch)
    assert run_suite("singular", Truncation(Params(5, 6), 20)).passed
    # every lowering block at degree 0 has no rows; every later degree is
    # certified by its rank mod p
    assert shapes == [(0, 1)]


def test_bad_prime_takes_the_exact_route(monkeypatch):
    block = RatMat(1, 1, {(0, 0): Fraction(2)})  # rank 1 over Q, rank 0 mod 2
    shapes = _recorded_nullspaces(monkeypatch)
    assert _verified_nullspace([block], 1) == []
    assert shapes == []
    monkeypatch.setattr(linalg, "PRIME", 2)
    assert _verified_nullspace([block], 1) == []
    assert shapes == [(1, 1)]


def test_bad_prime_gives_the_same_report(monkeypatch, capsys):
    argv = ["verify", "--suite", "singular", "--n", "3", "--k", "4", "--max-degree", "12"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    shapes = _recorded_nullspaces(monkeypatch)
    monkeypatch.setattr(linalg, "PRIME", 2)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert len(shapes) == 12  # mod 2 no degree is certified


def test_failing_relation_stops_after_its_own_products(monkeypatch):
    # a doubled H breaks [E,F] = H, the first relation: only E F and F E are
    # composed, and no later relation is built
    monkeypatch.setattr(verify, "operator_h", lambda basis: operator_h(basis).scaled(2))
    run = Truncation(Params(2, 5), 10)
    compositions = []
    compose = GradedOperator.__matmul__

    def counted(self, other):
        compositions.append((self.shift, other.shift))
        return compose(self, other)

    monkeypatch.setattr(GradedOperator, "__matmul__", counted)
    report = run_suite("sl2", run)
    assert report.witness["relation"] == "[E,F] = H"
    assert report.details["relations_checked"] == []
    assert compositions == [(2, -2), (-2, 2)]


def _constant_casimir(monkeypatch):
    """Predict 7 for the Casimir on every label."""
    monkeypatch.setattr(
        rank_two,
        "casimir_diagonal",
        lambda basis: rank_two._from_terms(basis, 0, lambda label: [(label, 7, 1)]),
    )


def test_failing_casimir_keeps_its_own_relation_name(monkeypatch):
    # every commutator holds, so the first witness is the Casimir's own
    _constant_casimir(monkeypatch)
    report = run_suite("sl2", Truncation(Params(2, 3), 6))
    assert report.witness["relation"] == "Casimir diagonal"
    assert list(report.witness) == [
        "degree", "row", "col", "source_label", "target_label",
        "expected", "actual", "relation",
    ]
    assert len(report.details["relations_checked"]) == 9
    assert "Casimir diagonal" not in report.details["relations_checked"]


def _doubled_h(monkeypatch):
    monkeypatch.setattr(verify, "operator_h", lambda basis: operator_h(basis).scaled(2))


def _shifted_identity(monkeypatch):
    identity = verify.identity_operator
    monkeypatch.setattr(
        verify, "identity_operator", lambda basis, scale=1: identity(basis, scale + 1)
    )


def _count_block_products(monkeypatch):
    products = []
    matmul = RatMat.__matmul__

    def counted(self, other):
        products.append(1)
        return matmul(self, other)

    monkeypatch.setattr(RatMat, "__matmul__", counted)
    return products


def test_sl2_composes_the_casimir_once(monkeypatch):
    # the cubic relation is compared with the stored Casimir diagonal, so the
    # Casimir's products are made for its own check only
    products = _count_block_products(monkeypatch)
    assert run_suite("sl2", Truncation(Params(2, 5), 12)).passed
    assert len(products) == 304


def test_failing_cubic_relation_keeps_its_witness(monkeypatch):
    # a constant term off by one breaks only the cubic relation, the last
    _shifted_identity(monkeypatch)
    report = run_suite("sl2", Truncation(Params(2, 5), 12))
    assert report.witness == {
        "actual": "25/4",
        "col": 0,
        "degree": 0,
        "expected": "21/4",
        "relation": "C2 = 2(E W- + F W+) + H W0 + m(m-1)",
        "row": 0,
        "source_label": [0, 0],
        "target_label": [0, 0],
    }
    assert len(report.details["relations_checked"]) == 10


# generator given 1 at entry (0, 0) of its block 4 -> commutation relation
# and its witness at (2, 5, 12); expected and actual are the entries of the
# two products, which differ by the commutator's entry
COMMUTATION_WITNESSES = {
    "x": ("[E,X] = 0", {
        "degree": 4, "row": 0, "col": 0, "source_label": [0, 4],
        "target_label": [1, 6], "expected": "-2/3", "actual": "1/3",
    }),
    "y": ("[F,Y] = 0", {
        "degree": 6, "row": 0, "col": 0, "source_label": [1, 5],
        "target_label": [0, 3], "expected": "15/2", "actual": "10",
    }),
}


@pytest.mark.parametrize(
    "name,relation,witness",
    [(name, *row) for name, row in COMMUTATION_WITNESSES.items()],
)
def test_commutation_witness_holds_both_products(name, relation, witness):
    run = Truncation(Params(2, 5), 12)
    op = getattr(run, name)
    block = op.blocks[4]
    op.blocks[4] = block + RatMat(block.nrows, block.ncols, {(0, 0): 1})
    assert dict(verify._rank_two_relations(run))[relation] == witness


def test_lowest_weights_are_read_from_h(monkeypatch):
    # a doubled H doubles every weight the check reads off the kernel of F
    _doubled_h(monkeypatch)
    report = _check_lowest_weight_decomposition(Truncation(Params(2, 7), 12))
    assert report.witness == {
        "degree": 0, "expected_weight": "-5/2", "actual_weight": "-5", "coords": ["1"],
    }


def _skewed_h(basis):
    """H plus the entry |0, 2> -> |1, 1>, so |0, 2> is no eigenvector."""
    h = operator_h(basis)
    blocks = dict(h.blocks)
    skew = {(basis.index(2, (1, 1)), basis.index(2, (0, 2))): 1}
    blocks[2] = blocks[2] + RatMat(basis.dim(2), basis.dim(2), skew)
    return GradedOperator(basis, 0, blocks)


def test_lowest_weight_vector_must_be_an_h_eigenvector(monkeypatch):
    monkeypatch.setattr(verify, "operator_h", _skewed_h)
    run = Truncation(Params(2, 7), 12)
    report = _check_lowest_weight_decomposition(run)
    # the weight at the first coordinate is the predicted one
    assert report.witness["degree"] == 2
    assert report.witness["actual_weight"] == report.witness["expected_weight"] == "-1/2"
    image = [Fraction(0)] * run.basis.dim(2)
    image[run.basis.index(2, (0, 2))] = Fraction(-1, 2)
    image[run.basis.index(2, (1, 1))] = Fraction(1)
    assert report.witness["h_image"] == [str(c) for c in image]


def _plain_json(obj):
    """Whether ``obj`` holds only str/int/bool/None, lists and str-keyed dicts."""
    if isinstance(obj, dict):
        return all(isinstance(key, str) and _plain_json(v) for key, v in obj.items())
    if isinstance(obj, list):
        return all(_plain_json(v) for v in obj)
    return obj is None or type(obj) in (str, int, bool)


@pytest.mark.parametrize(
    "n,k,D", [(1, 2, 5), (2, 3, 8), (2, 5, 10), (3, 4, 9), (3, 5, 8), (4, 5, 8)]
)
def test_every_report_holds_only_json_values(n, k, D):
    run = Truncation(Params(n, k), D)
    for name in applicable_suites(run):
        assert _plain_json(run_suite(name, run).to_dict()), name


def _corrupt_y(run):
    block = run.y.block(1)
    run.y.blocks[1] = block + RatMat(block.nrows, block.ncols, {(0, 0): 1})


# (suite, patch applied before the run, damage to the run's operators)
FAULTS = {
    "weyl, corrupted Y": ("weyl", None, _corrupt_y),
    "sl2, doubled H": ("sl2", _doubled_h, None),
    "sl2, shifted constant": ("sl2", _shifted_identity, None),
    "sl2, wrong Casimir": (
        "sl2",
        _constant_casimir,
        None,
    ),
    "appendix-b, doubled H": ("appendix-b", _doubled_h, None),
    "appendix-b, skewed H": (
        "appendix-b", lambda mp: mp.setattr(verify, "operator_h", _skewed_h), None
    ),
    "stabilizer, moved flavor": (
        "stabilizer",
        lambda mp: mp.setattr(
            verify,
            "stabilizer_cocharacter",
            lambda params: StabilizerCocharacter((0, params.k), 1 - params.k, 2),
        ),
        None,
    ),
}


@pytest.mark.parametrize("suite,patch,damage", FAULTS.values(), ids=FAULTS.keys())
def test_failing_reports_hold_only_json_values(monkeypatch, suite, patch, damage):
    if patch:
        patch(monkeypatch)
    run = Truncation(Params(2, 7), 10)
    if damage:
        damage(run)
    report = run_suite(suite, run)
    assert not report.passed
    assert _plain_json(report.to_dict())


GENERATORS = {
    "X": lambda run: run.x,
    "Y": lambda run: run.y,
    "E_2": lambda run: run.monopole(1, 2),
    "E_3": lambda run: run.monopole(1, 3),
    "F_2": lambda run: run.monopole(-1, 2),
    "F_3": lambda run: run.monopole(-1, 3),
    "H": lambda run: run.h,
    "F": lambda run: run.f,
}

# (n, k, D) -> generator -> {failing applicable suite: its witness degree}
# once 1 is added to entry (0, 0) of the generator's block at degree 4.  X
# and Y are E_1 and F_1.  At n = 3 no suite reads an entry of E_r or F_r
# for r >= 2: ``singular`` certifies only kernel dimensions.
FAULT_MATRIX = {
    (2, 5, 12): {
        "X": {"weyl": 4, "sl2": 4, "appendix-b": 4},
        "Y": {"weyl": 3, "sl2": 4, "appendix-b": 4},
        "E_2": {"sl2": 4, "appendix-b": 4},
        "F_2": {"sl2": 4, "appendix-b": 4},
        "H": {"sl2": 4, "appendix-b": 4},
        "F": {"sl2": 4, "appendix-b": 4},
    },
    (3, 4, 13): {
        "X": {"weyl": 4},
        "Y": {"weyl": 3},
        "E_2": {},
        "E_3": {},
        "F_2": {},
        "F_3": {},
    },
}


@pytest.mark.parametrize(
    "nkd,generator,failing",
    [
        (nkd, generator, failing)
        for nkd, row in FAULT_MATRIX.items()
        for generator, failing in row.items()
    ],
)
def test_fault_matrix(nkd, generator, failing):
    n, k, D = nkd
    run = Truncation(Params(n, k), D)
    op = GENERATORS[generator](run)
    if op.blocks is None:
        # F = -F_2 stores no block: the run's F itself gains the entry, so
        # every suite that reads F must read it from the run
        source = run.basis.stratum(4)[0]
        target = run.basis.stratum(4 + op.shift)[0]

        def terms(label):
            return [(target, 1, 1)] if label == source else []

        run.f = op + GradedOperator.assemble(run.basis, op.shift, terms)
    else:
        block = op.blocks[4]
        op.blocks[4] = block + RatMat(block.nrows, block.ncols, {(0, 0): 1})
    reports = {name: run_suite(name, run) for name in applicable_suites(run)}
    assert {
        name: report.witness["degree"]
        for name, report in reports.items()
        if not report.passed
    } == failing


# stored rank-two generator -> the closed form that ``appendix-b`` compares
# it with; F = -F_2 reads the stored F_2
CLOSED_FORM_OF = {"X": "X", "Y": "Y", "E_2": "E", "F_2": "F", "H": "H"}


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(sorted(CLOSED_FORM_OF)),
    st.data(),
    st.fractions(max_denominator=9).filter(bool),
)
def test_drawn_perturbation_is_the_appendix_b_witness(generator, data, delta):
    # delta added at one drawn entry of a stored generator is the first,
    # and only, entry where it leaves its closed form
    run = Truncation(Params(2, 5), 12)
    op = GENERATORS[generator](run)
    degree = data.draw(
        st.sampled_from([d for d in op.domain() if op.blocks[d].nrows])
    )
    block = op.blocks[degree]
    row = data.draw(st.integers(0, block.nrows - 1))
    col = data.draw(st.integers(0, block.ncols - 1))
    op.blocks[degree] = block + RatMat(block.nrows, block.ncols, {(row, col): delta})
    witness = run_suite("appendix-b", run).witness
    assert witness["operator"] == CLOSED_FORM_OF[generator]
    assert (witness["degree"], witness["row"], witness["col"]) == (degree, row, col)


def test_perturbed_closed_form_exits_1(monkeypatch, capsys):
    closed_form_x = rank_two.closed_form_x

    def perturbed(basis):
        x = closed_form_x(basis)
        block = x.blocks[4]
        x.blocks[4] = block + RatMat(block.nrows, block.ncols, {(0, 0): 1})
        return x

    monkeypatch.setattr(rank_two, "closed_form_x", perturbed)
    code = main(["verify", "--suite", "all", "--n", "2", "--k", "5", "--max-degree", "12"])
    suites = json.loads(capsys.readouterr().out)["results"]["suites"]
    assert code == 1
    assert [
        (report["suite"], report["witness"]["operator"], report["witness"]["degree"])
        for report in suites
        if report["status"] == "fail"
    ] == [("appendix-b", "X", 4)]


def test_weyl_check_holds_one_degree_of_products():
    # X and Y are built first; the check then holds at most one degree of
    # X Y, Y X and their difference at a time, far below one whole product
    run = Truncation(Params(5, 7), 30)
    x, y = run.x, run.y
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = run_suite("weyl", run)
        peak = tracemalloc.get_traced_memory()[1] - base
        before = tracemalloc.get_traced_memory()[0]
        xy = x @ y
        whole = GradedOperator(run.basis, xy.shift, {d: xy.block(d) for d in xy.domain()})
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.passed
    assert len(whole.blocks) == 31
    assert peak < size / 2, (peak, size)


def test_truncation_builds_f_once():
    run = Truncation(Params(2, 3), 6)
    assert run.f is run.f


def _run_python(code):
    """Run ``code`` in a fresh interpreter with ``src`` on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_weyl_relation_at_8_9_40_peaks_under_75_mb():
    # the relation check holds one degree of products: about 48 MB peak.
    # The fresh interpreter reads its own VmHWM: its ru_maxrss would also
    # carry the peak of the process that started it, which Linux keeps
    # across exec
    argv = ["verify", "--suite", "weyl", "--n", "8", "--k", "9", "--max-degree", "40"]
    result = _run_python(
        "import os, sys\n"
        "from springer_rca.cli import main\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"code = main({argv!r})\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
        "print(code, peak, file=sys.stderr)\n"
    )
    assert result.returncode == 0, result.stderr
    code, peak_kb = map(int, result.stderr.split())
    assert code == 0
    assert peak_kb / 1024 <= 75


def _nonvanishing_factors(weights, k):
    """Gap tables in which every factor of N and of D is 1."""
    return [1] * len(weights) ** 2, [1] * (len(weights) ** 2 + len(weights))


def test_boundary_vanishing_violation_raises(monkeypatch):
    # with a numerator that never vanishes, X's terms to inadmissible targets
    # such as |1, 0> (from the vacuum) must be refused
    monkeypatch.setattr(operators, "gap_table", _nonvanishing_factors)
    basis = build_graded_basis(Params(2, 3), 4)
    with pytest.raises(InvariantError, match="leaves the moduli"):
        minuscule_monopole(basis, (1, 0))


def test_boundary_vanishing_violation_raises_under_a_zero_dressing(monkeypatch):
    # a term with a nonzero N is refused off the moduli even where the
    # dressing vanishes and so its value is 0
    monkeypatch.setattr(operators, "gap_table", _nonvanishing_factors)
    basis = build_graded_basis(Params(2, 3), 4)
    with pytest.raises(InvariantError, match=r"\(0, 0\) -> \(1, 0\) leaves the moduli"):
        minuscule_monopole(basis, (1, 0), DressPolynomial(2))


def test_boundary_vanishing_violation_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(operators, "gap_table", _nonvanishing_factors)
    code = main(["verify", "--suite", "weyl", "--n", "2", "--k", "3", "--max-degree", "4"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: invariant violated: ")


def test_zero_denominator_raises(monkeypatch):
    monkeypatch.setattr(operators, "gap_table", lambda weights, k: ([0] * 4, [0] * 6))
    basis = build_graded_basis(Params(2, 3), 4)
    with pytest.raises(InvariantError, match=r"^zero denominator for "):
        minuscule_monopole(basis, (1, 0))


def _never_stable(gaps, semigroup):
    return False


def test_unstable_gap_set_raises(monkeypatch):
    monkeypatch.setattr(semigroup, "is_stable", _never_stable)
    with pytest.raises(InvariantError, match=r"^gap set \[\] of <2, 3> is not stable$"):
        count_ideals(2, 3, 2)


def test_unstable_gap_set_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(semigroup, "is_stable", _never_stable)
    code = main(["verify", "--suite", "oracle", "--n", "3", "--k", "4", "--max-degree", "6"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == "error: invariant violated: gap set [] of <3, 4> is not stable\n"


def test_verify_all_runs_without_sympy():
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from springer_rca.cli import main\n"
        "sys.exit(main(['verify', '--suite', 'all', '--n', '2', '--k', '3',\n"
        "               '--max-degree', '8']))\n"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr

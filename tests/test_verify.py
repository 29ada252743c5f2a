"""Verification suites: relation checks, kernels, characters, stabilizer."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from springer_rca import (
    InvariantError,
    Params,
    UnderTruncationError,
    UnsupportedParametersError,
    build_graded_basis,
    finite_part_character,
    kernel_y,
    lowest_weight_decomposition,
    operator_x,
    operator_y,
    singular_vectors,
)
from springer_rca.linalg import RatMat
from springer_rca.operators import DressPolynomial, operator_f
from springer_rca.verify import (
    _verified_nullspace,
    applicable_suites,
    check_character_identity,
    check_kernel_y,
    check_lowest_weight_decomposition,
    check_singular_vectors,
    check_sl2_and_casimir,
    check_weyl_relation,
    check_y_kernel_vectors,
    run_suite,
    stabilizer_fixes,
    verify_stabilizer,
    weyl_report,
)


@pytest.mark.parametrize("n,k,D", [(2, 3, 10), (3, 4, 8), (1, 5, 6)])
def test_weyl_relation_passes(n, k, D):
    report = check_weyl_relation(Params(n, k), D)
    assert report.passed
    assert report.witness is None


def test_weyl_relation_fault_injection():
    # corrupt one Y entry and demand a concrete witness
    basis = build_graded_basis(Params(2, 3), 6)
    x, y = operator_x(basis), operator_y(basis)
    block = y.block(1)
    block[0, 0] = block[0, 0] + 1
    report = weyl_report(x, y, basis, 4)
    assert not report.passed
    assert report.witness["degree"] in (0, 1)
    assert "expected" in report.witness and "actual" in report.witness


@pytest.mark.parametrize("k", [3, 5])
def test_sl2_and_casimir(k):
    report = check_sl2_and_casimir(Params(2, k), 10)
    assert report.passed
    assert "Casimir diagonal" in report.details["relations_checked"]


def test_sl2_rejects_bad_params():
    with pytest.raises(UnsupportedParametersError):
        check_sl2_and_casimir(Params(3, 4), 8)
    with pytest.raises(UnsupportedParametersError):
        check_sl2_and_casimir(Params(2, 4), 8)


def test_casimir_spot_values():
    # eigenvalues (A2 - A1 - 3/2)^2 - 1 on the first two strata
    basis = build_graded_basis(Params(2, 3), 6)
    from springer_rca.verify import sl2_generators

    e, f, h, _, _ = sl2_generators(basis)
    casimir = (e @ f + f @ e).scaled(2) + h @ h
    assert casimir.block(0)[0, 0] == Fraction(5, 4)
    assert casimir.block(1)[0, 0] == Fraction(-3, 4)


@pytest.mark.parametrize("n,k,D", [(2, 3, 10), (3, 4, 9)])
def test_singular_vectors(n, k, D):
    summary = singular_vectors(Params(n, k), D)
    assert summary.per_degree[0] == 1
    assert all(summary.per_degree[d] == 0 for d in range(1, D + 1))
    [(d0, coords)] = summary.vectors
    assert d0 == 0 and list(coords) == [1]
    assert check_singular_vectors(Params(n, k), D).passed


def test_singular_vector_survives_dressing():
    # the joint kernel at degree zero also dies under dressed lowering ops
    p = Params(3, 4)
    basis = build_graded_basis(p, 6)
    for r in (1, 2, 3):
        for dress in (
            DressPolynomial.elementary(3, 1),
            DressPolynomial.elementary(3, 2),
        ):
            op = operator_f(basis, r, dress)
            assert op.apply({(0, 0, 0): 1}) == {}


def test_kernel_y_counts():
    summary = kernel_y(Params(2, 3), 8)
    assert summary.total == 2
    assert {d: v for d, v in summary.per_degree.items() if v} == {0: 1, 2: 1}
    assert kernel_y(Params(3, 4), 12).total == 5
    assert check_kernel_y(Params(2, 3), 8).passed
    assert check_kernel_y(Params(3, 4), 9).passed


def test_kernel_y_under_truncation():
    with pytest.raises(UnderTruncationError) as info:
        kernel_y(Params(4, 5), 8)
    assert info.value.required_degree == 16


def test_finite_part_character_values():
    assert finite_part_character(Params(2, 3), 8).coeffs == (1, 0, 1)
    assert finite_part_character(Params(2, 5), 10).coeffs == (1, 0, 1, 0, 1)
    with pytest.raises(UnderTruncationError):
        finite_part_character(Params(4, 5), 10)


def test_finite_part_matches_kernel_dims():
    p = Params(3, 4)
    poly = finite_part_character(p, 12)
    summary = kernel_y(p, 12)
    for d in range(13):
        assert summary.per_degree.get(d, 0) == poly.coefficient(d)
    assert poly(1) == summary.total


def test_lowest_weight_decomposition():
    triples = lowest_weight_decomposition(Params(2, 3), 10)
    assert [(str(w), d) for w, d, _ in triples] == [
        ("-1/2", 0),
        ("1/2", 1),
        ("3/2", 2),
        ("5/2", 3),
    ]
    assert len(lowest_weight_decomposition(Params(2, 5), 10)) == 6
    assert check_lowest_weight_decomposition(Params(2, 3), 10).passed
    assert check_lowest_weight_decomposition(Params(2, 7), 12).passed
    with pytest.raises(UnderTruncationError):
        lowest_weight_decomposition(Params(2, 7), 7)


def test_rank_two_lowering_kills_boundary_classes():
    basis = build_graded_basis(Params(2, 3), 6)
    f = operator_f(basis, 2).scaled(-1)
    for a2 in range(4):
        assert f.apply({(0, a2): 1}) == {}


@pytest.mark.parametrize("ell", [1, 2])
def test_y_kernel_vector_check(ell):
    assert check_y_kernel_vectors(ell).passed


@pytest.mark.parametrize("n,k", [(2, 3), (3, 4), (1, 4)])
def test_stabilizer(n, k):
    assert verify_stabilizer(Params(n, k)).passed


def test_stabilizer_identity_element_always_fixes():
    # nu = 1 is the trivial specialization, coprime or not
    assert stabilizer_fixes(2, 4, 1)
    assert stabilizer_fixes(3, 6, 1)


def test_stabilizer_requires_coprime():
    with pytest.raises(UnsupportedParametersError):
        verify_stabilizer(Params(2, 4))


def test_character_identity_suite():
    assert check_character_identity(Params(2, 3), 12).passed
    assert check_character_identity(Params(3, 5), 12).passed


def test_run_suite_dispatch():
    p = Params(2, 3)
    for name in applicable_suites(p):
        D = 10
        report = run_suite(name, p, D)
        assert report.passed, name
    with pytest.raises(ValueError):
        run_suite("nope", p, 4)


def test_applicable_suites_filtering():
    assert "sl2" in applicable_suites(Params(2, 3))
    names = applicable_suites(Params(3, 4))
    assert "sl2" not in names and "appendix-b" not in names
    assert "weyl" in names


def test_report_invariants():
    from springer_rca.verify import VerificationReport

    with pytest.raises(ValueError):
        VerificationReport(
            claim="x", n=2, k=3, max_degree=1, status="fail", details={}
        )
    with pytest.raises(ValueError):
        VerificationReport(
            claim="x", n=2, k=3, max_degree=1, status="maybe", details={}
        )


def _wrong_nullspace(self):
    return [[Fraction(1)] * self.ncols]


def test_verified_nullspace_rejects_wrong_kernel(monkeypatch):
    block = RatMat.identity(2)
    monkeypatch.setattr(RatMat, "nullspace", _wrong_nullspace)
    with pytest.raises(InvariantError, match="not annihilated"):
        _verified_nullspace([block], 2)
    with pytest.raises(InvariantError, match="columns"):
        _verified_nullspace([block], 3)


def test_verified_nullspace_check_survives_optimize_flag():
    code = (
        "from fractions import Fraction\n"
        "from springer_rca import InvariantError\n"
        "from springer_rca.linalg import RatMat\n"
        "from springer_rca.verify import _verified_nullspace\n"
        "RatMat.nullspace = lambda self: [[Fraction(1)] * self.ncols]\n"
        "try:\n"
        "    _verified_nullspace([RatMat.identity(2)], 2)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "raised"

"""Verification suites: relation checks, kernels, characters, stabilizer."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from springer_rca import (
    InvariantError,
    Params,
    SemigroupIdeal,
    StabilizerCocharacter,
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
from springer_rca import linalg, operators, rank_two, verify
from springer_rca.cli import main
from springer_rca.linalg import RatMat
from springer_rca.operators import (
    DressPolynomial,
    GradedOperator,
    minuscule_monopole,
    operator_h,
)
from springer_rca.verify import (
    SUITES,
    Truncation,
    _casimir_witness,
    _verified_nullspace,
    applicable_suites,
    check_appendix_b,
    check_character_identity,
    check_kernel_y,
    check_lowest_weight_decomposition,
    check_singular_vectors,
    check_sl2_and_casimir,
    check_weyl_relation,
    check_y_kernel_vectors,
    VerificationReport,
    run_suite,
    stabilization_degree,
    stabilizer_witness,
    verify_stabilizer,
)

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
    report = check_weyl_relation(Truncation(Params(n, k), D))
    assert report.passed
    assert report.witness is None


@pytest.mark.parametrize("D", [0, 1])
def test_weyl_relation_requires_degree_2(D):
    with pytest.raises(UnderTruncationError) as info:
        check_weyl_relation(Truncation(Params(3, 4), D))
    assert info.value.required_degree == 2


def test_weyl_relation_fault_injection():
    # corrupt one Y entry and demand a concrete witness
    run = Truncation(Params(2, 3), 6)
    y = run.y
    block = y.block(1)
    y.blocks[1] = block + RatMat(block.nrows, block.ncols, {(0, 0): 1})
    report = check_weyl_relation(run)
    assert report.details["degrees_checked"] == [0, 4]
    assert not report.passed
    assert report.witness["degree"] in (0, 1)
    assert "expected" in report.witness and "actual" in report.witness


@pytest.mark.parametrize("k", [3, 5])
def test_sl2_and_casimir(k):
    report = check_sl2_and_casimir(Truncation(Params(2, k), 10))
    assert report.passed
    assert "Casimir diagonal" in report.details["relations_checked"]


def test_sl2_rejects_bad_params():
    with pytest.raises(UnsupportedParametersError):
        check_sl2_and_casimir(Truncation(Params(3, 4), 8))
    with pytest.raises(UnsupportedParametersError):
        check_sl2_and_casimir(Truncation(Params(2, 4), 8))


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
    """Dense scan of every Casimir entry, column by column: the reference."""
    for d in casimir.domain():
        block = casimir.block(d)
        stratum = basis.stratum(d)
        for j, label in enumerate(stratum):
            expected = rank_two.casimir_eigenvalue(label, ell)
            for i in range(len(stratum)):
                got = block[i, j]
                want = expected if i == j else Fraction(0)
                if got != want:
                    return {
                        "relation": "Casimir eigenvalue",
                        "degree": d,
                        "row": i,
                        "col": j,
                        "label": list(label),
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
        block = casimir.block(degree)
        casimir.blocks[degree] = block + RatMat(block.nrows, block.ncols, delta)
    got = _casimir_witness(casimir, run.basis, run.ell)
    want = reference_casimir_witness(casimir, run.basis, run.ell)
    assert json.dumps(got) == json.dumps(want)
    assert (got is None) == (degree is None)


@pytest.mark.parametrize("n,k,D", [(2, 3, 10), (3, 4, 9)])
def test_singular_vectors(n, k, D):
    summary = singular_vectors(Truncation(Params(n, k), D))
    assert summary.per_degree[0] == 1
    assert all(summary.per_degree[d] == 0 for d in range(1, D + 1))
    [(d0, coords)] = summary.vectors
    assert d0 == 0 and list(coords) == [1]
    assert check_singular_vectors(Truncation(Params(n, k), D)).passed


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
    summary = kernel_y(Truncation(Params(2, 3), 8))
    assert summary.total == 2
    assert {d: v for d, v in summary.per_degree.items() if v} == {0: 1, 2: 1}
    assert kernel_y(Truncation(Params(3, 4), 12)).total == 5
    assert check_kernel_y(Truncation(Params(2, 3), 8)).passed
    assert check_kernel_y(Truncation(Params(3, 4), 9)).passed


def test_kernel_y_under_truncation():
    with pytest.raises(UnderTruncationError) as info:
        kernel_y(Truncation(Params(4, 5), 8))
    assert info.value.required_degree == 16


def test_finite_part_character_values():
    assert finite_part_character(Truncation(Params(2, 3), 8)).coeffs == (1, 0, 1)
    assert finite_part_character(Truncation(Params(2, 5), 10)).coeffs == (1, 0, 1, 0, 1)
    with pytest.raises(UnderTruncationError):
        finite_part_character(Truncation(Params(4, 5), 10))


def test_finite_part_matches_kernel_dims():
    run = Truncation(Params(3, 4), 12)
    poly = finite_part_character(run)
    summary = kernel_y(run)
    for d in range(13):
        assert summary.per_degree.get(d, 0) == poly.coefficient(d)
    assert poly(1) == summary.total


def test_lowest_weight_decomposition():
    triples = lowest_weight_decomposition(Truncation(Params(2, 3), 10))
    assert [(str(w), d) for w, d, _ in triples] == [
        ("-1/2", 0),
        ("1/2", 1),
        ("3/2", 2),
        ("5/2", 3),
    ]
    assert len(lowest_weight_decomposition(Truncation(Params(2, 5), 10))) == 6
    assert check_lowest_weight_decomposition(Truncation(Params(2, 3), 10)).passed
    assert check_lowest_weight_decomposition(Truncation(Params(2, 7), 12)).passed
    with pytest.raises(UnderTruncationError):
        check_appendix_b(Truncation(Params(2, 7), 7))


def test_rank_two_lowering_kills_boundary_classes():
    f = Truncation(Params(2, 3), 6).f
    for a2 in range(4):
        assert f.apply({(0, a2): 1}) == {}


@pytest.mark.parametrize("ell", [1, 2])
def test_y_kernel_vector_check(ell):
    assert check_y_kernel_vectors(Truncation(Params(2, 2 * ell + 1), 2 * ell + 1)).passed


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
    assert check_character_identity(Truncation(Params(2, 3), 12)).passed
    assert check_character_identity(Truncation(Params(3, 5), 12)).passed


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
            "sl2": 1,
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
    assert check_singular_vectors(Truncation(Params(5, 6), 20)).passed
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
    report = check_sl2_and_casimir(run)
    assert report.witness["relation"] == "[E,F] = H"
    assert report.details["relations_checked"] == []
    assert compositions == [(2, -2), (-2, 2)]


def test_failing_casimir_keeps_its_own_relation_name(monkeypatch):
    # every commutator holds, so the first witness is the Casimir's own
    monkeypatch.setattr(rank_two, "casimir_eigenvalue", lambda label, ell: Fraction(7))
    report = check_sl2_and_casimir(Truncation(Params(2, 3), 6))
    assert report.witness["relation"] == "Casimir eigenvalue"
    assert len(report.details["relations_checked"]) == 9
    assert "Casimir diagonal" not in report.details["relations_checked"]


def test_truncation_builds_f_once():
    run = Truncation(Params(2, 3), 6)
    assert run.f is run.f


def _run_python(code, *flags):
    """Run ``code`` in a fresh interpreter with ``src`` on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_verified_nullspace_check_survives_optimize_flag():
    code = (
        "from fractions import Fraction\n"
        "from springer_rca import InvariantError\n"
        "from springer_rca.linalg import RatMat\n"
        "from springer_rca.verify import _verified_nullspace\n"
        "RatMat.nullspace = lambda self: [[Fraction(1)] * self.ncols]\n"
        "try:\n"
        "    _verified_nullspace([RatMat(1, 2, {(0, 0): Fraction(1)})], 2)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    result = _run_python(code, "-O")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "raised"


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


def test_boundary_vanishing_violation_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(operators, "gap_table", _nonvanishing_factors)
    code = main(["verify", "--suite", "weyl", "--n", "2", "--k", "3", "--max-degree", "4"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: invariant violated: ")


def test_boundary_vanishing_check_survives_optimize_flag():
    code = (
        "from springer_rca import InvariantError, Params, build_graded_basis\n"
        "from springer_rca import operators\n"
        "operators.gap_table = lambda weights, k: ([1] * 4, [1] * 6)\n"
        "try:\n"
        "    operators.minuscule_monopole(build_graded_basis(Params(2, 3), 4), (1, 0))\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    result = _run_python(code, "-O")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "raised"


def test_zero_denominator_check_survives_optimize_flag():
    code = (
        "from springer_rca import InvariantError, Params, build_graded_basis\n"
        "from springer_rca import operators\n"
        "operators.gap_table = lambda weights, k: ([0] * 4, [0] * 6)\n"
        "try:\n"
        "    operators.minuscule_monopole(build_graded_basis(Params(2, 3), 4), (1, 0))\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
    )
    result = _run_python(code, "-O")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("zero denominator for ")


def _never_stable(ideal, semigroup):
    return False


def test_unstable_gap_set_raises(monkeypatch):
    monkeypatch.setattr(SemigroupIdeal, "is_stable", _never_stable)
    with pytest.raises(InvariantError, match="is not stable"):
        count_ideals(2, 3, 2)


def test_unstable_gap_set_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(SemigroupIdeal, "is_stable", _never_stable)
    code = main(["verify", "--suite", "oracle", "--n", "3", "--k", "4", "--max-degree", "6"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: invariant violated: ")


def test_stability_check_survives_optimize_flag():
    code = (
        "import sys\n"
        "from springer_rca import InvariantError, SemigroupIdeal, count_ideals\n"
        "from springer_rca.cli import main\n"
        "SemigroupIdeal.is_stable = lambda ideal, semigroup: False\n"
        "try:\n"
        "    count_ideals(2, 3, 2)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
        "sys.exit(main(['verify', '--suite', 'oracle', '--n', '3', '--k', '4',\n"
        "               '--max-degree', '6']))\n"
    )
    result = _run_python(code, "-O")
    assert result.returncode == 5, result.stderr
    assert result.stdout.strip() == "raised"
    assert "is not stable" in result.stderr


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

"""Acceptance suite: every headline claim at its stated truncation, exactly.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
All equalities are exact rational identities; the only tolerances anywhere
are the two wall-clock budgets.
"""

import time
from fractions import Fraction
from math import comb, gcd

from springer_rca import (
    Params,
    build_graded_basis,
    compactified_jacobian_dim,
    count_ideals,
    enumerate_fixed_points,
    euler_series,
    identity_operator,
    is_admissible,
    kernel_y,
    lowest_weight_decomposition,
    Truncation,
    run_suite,
    singular_vectors,
    verify_stabilizer,
)
from springer_rca.operators import commutator, minuscule_orbit
from springer_rca.rank_two import lowest_weight
from springer_rca.verify import (
    _check_closed_forms,
    _check_y_kernel_vectors,
    first_mismatch,
)
from test_operators import charge, source_factors
from test_qseries import betti_2k

PAIRS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]


def _finish(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}{detail}")
    assert ok, f"criterion {number} ({name}) failed{detail}"


def test_criterion_01_weyl_relation():
    budget = 60.0
    start = time.monotonic()
    ok = True
    for n, k in PAIRS:
        run = Truncation(Params(n, k), 12)
        comm = commutator(run.x, run.y)
        expected = identity_operator(run.basis, scale=n)
        if first_mismatch(comm, expected, range(0, 11)) is not None:
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < budget
    _finish(1, "Weyl relation [X,Y] = n id, D=12", ok, f" ({elapsed:.1f}s)")


def test_criterion_02_kernel_dimension():
    expected_totals = [2, 3, 4, 5, 7, 14]
    ok = True
    detail = []
    for (n, k), expected in zip(PAIRS, expected_totals):
        params = Params(n, k)
        max_degree = (n - 1) * (k - 1) + n
        total = sum(map(len, kernel_y(Truncation(params, max_degree))))
        detail.append(total)
        if total != expected or total != compactified_jacobian_dim(params):
            ok = False
    _finish(2, "dim ker Y equals C(n+k-1,n-1)/n", ok, f" totals={detail}")


def test_kernel_dimension_sweep():
    # criterion 02 on every coprime n <= 6, k <= 9 at the stabilization degree
    for n, k in [(n, k) for n in range(1, 7) for k in range(1, 10) if gcd(n, k) == 1]:
        kernels = kernel_y(Truncation(Params(n, k), (n - 1) * (k - 1) + n))
        total = sum(map(len, kernels))
        assert n * total == comb(n + k - 1, n - 1), (n, k, total)


def test_criterion_03_singular_vector():
    max_degree = 10
    ok = True
    for n, k in PAIRS:
        kernels = singular_vectors(Truncation(Params(n, k), max_degree))
        if len(kernels[0]) != 1:
            ok = False
        if any(kernels[d] for d in range(1, max_degree - n + 1)):
            ok = False
    _finish(3, "joint kernel of F_r[1] is the vacuum line", ok)


def test_criterion_04_character_identity():
    max_degree = 20
    ok = True
    for n, k in PAIRS:
        params = Params(n, k)
        series = euler_series(params, max_degree)
        for d in range(max_degree + 1):
            if len(enumerate_fixed_points(params, d)) != series[d]:
                ok = False
    _finish(4, "fixed-point counts match the Euler series through degree 20", ok)


def test_criterion_05_closed_forms():
    ok = all(
        _check_closed_forms(Truncation(Params(2, 2 * ell + 1), 12)).passed
        for ell in range(1, 5)
    )
    run = Truncation(Params(2, 3), 12)
    x = run.x
    y = run.y
    f = run.f
    ok = ok and x.apply({(0, 0): 1}) == {(0, 1): 2}
    ok = ok and y.apply({(0, 1): 1}) == {(0, 0): -1}
    ok = ok and f.apply({(1, 2): 1}) == {(0, 1): Fraction(-1, 2)}
    _finish(5, "closed-form X, Y, E, F matrices, l=1..4, D=12", ok)


def test_criterion_06_sl2_and_casimir():
    ok = all(
        run_suite("sl2", Truncation(Params(2, 2 * ell + 1), 12)).passed
        for ell in range(1, 5)
    )
    _finish(6, "sl2 commutators, Casimir eigenvalues, cubic relation", ok)


def test_criterion_07_y_kernel_vectors():
    ok = all(
        _check_y_kernel_vectors(Truncation(Params(2, 2 * ell + 1), 2 * ell + 1)).passed
        for ell in range(1, 5)
    )
    _finish(7, "explicit ker Y vectors, N=0..l, l=1..4", ok)


def test_criterion_08_lowest_weight_decomposition():
    ok = True
    for ell in range(1, 5):
        run = Truncation(Params(2, 2 * ell + 1), 12)
        triples = lowest_weight_decomposition(run)
        if len(triples) != 2 * ell + 2:
            ok = False
            continue
        basis = run.basis
        for weight, d, coords in triples:
            unit = [Fraction(0)] * basis.dim(d)
            unit[basis.index(d, (0, d))] = Fraction(1)
            if weight != lowest_weight(d, ell) or list(coords) != unit:
                ok = False
    _finish(8, "2l+2 lowest-weight classes |0, A_2>", ok)


def test_criterion_09_oracle_equivalence():
    budget = 120.0
    start = time.monotonic()
    ok = True
    for n, k in PAIRS:
        params = Params(n, k)
        points = [len(enumerate_fixed_points(params, d)) for d in range(11)]
        if count_ideals(n, k, 10) != points:
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < budget
    _finish(9, "semigroup-ideal counts match fixed points, d<=10", ok, f" ({elapsed:.1f}s)")


def test_criterion_10_stabilizer():
    ok = all(verify_stabilizer(Params(n, k)).passed for n, k in PAIRS)
    _finish(10, "symbolic stabilizer cocharacter check", ok)


def test_criterion_11_boundary_vanishing():
    max_degree = 10
    ok = True
    checked = 0
    for n, k in PAIRS:
        params = Params(n, k)
        basis = build_graded_basis(params, max_degree)
        for sign in (1, -1):
            for r in range(1, n + 1):
                orbit = minuscule_orbit(charge(sign, r, n))
                for d in basis.degrees():
                    for label in basis.stratum(d):
                        for lam, _rep, pairs, slots, _scale in orbit:
                            target = tuple(
                                label[a] + lam[a] for a in range(n)
                            )
                            if is_admissible(target, params):
                                continue
                            checked += 1
                            weights = [a * k - n * b for a, b in enumerate(label)]
                            numerator, _ = source_factors(pairs, slots, weights, n, k)
                            if numerator != 0:
                                ok = False
    _finish(11, "numerator vanishes on inadmissible targets", ok, f" ({checked} terms)")


def test_criterion_12_betti_polynomials():
    ok = betti_2k(3, -2) == (1, 0, 1)
    for k in (1, 3, 5, 7, 9):
        ell = k // 2
        params = Params(2, k)
        for m in range(0, -13, -1):
            total = sum(betti_2k(k, m))
            if total != min(-m // 2, ell) + 1:
                ok = False
            if total != len(enumerate_fixed_points(params, -m)):
                ok = False
    for k in (2, 4, 6, 8):
        ell = k // 2
        for m in range(-k, -13, -1):
            copies = -m - k + 1
            cells = copies * (ell + 1) - (copies - 1)
            if sum(betti_2k(k, m)) != 1 + copies * ell or 1 + copies * ell != cells:
                ok = False
    _finish(12, "Betti polynomials of the rank-two components", ok)

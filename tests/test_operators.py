"""Monopole operator coefficients, operator algebra, and dressing."""

import re
from fractions import Fraction
from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from springer_rca import (
    DimensionError,
    DressPolynomial,
    GradedOperator,
    Params,
    Truncation,
    TruncationError,
    UnsupportedParametersError,
    build_graded_basis,
    commutator,
    enumerate_fixed_points,
    identity_operator,
    is_admissible,
    minuscule_monopole,
    minuscule_orbit,
    operator_h,
)
from springer_rca import rank_two
from springer_rca.linalg import RatMat
from springer_rca.operators import gap_table
from test_core import phi_weights

COPRIME_PAIRS = [(n, k) for n in range(1, 6) for k in range(1, 10) if gcd(n, k) == 1]


def charge(sign, r, n):
    """The sorted minuscule charge sign * (1^r, 0^(n-r))."""
    return (sign,) * r + (0,) * (n - r)


def evaluate(poly, values):
    """Fraction reference: the dressing polynomial ``poly`` at the point ``values``."""
    if len(values) != poly.nvars:
        raise DimensionError("evaluation point has wrong length")
    total = Fraction(0)
    for expo, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(values, expo):
            term *= Fraction(v) ** e
        total += term
    return total


def variable(nvars, index):
    """The dressing polynomial phi_index in ``nvars`` variables."""
    return DressPolynomial(nvars, {tuple(int(i == index) for i in range(nvars)): 1})


def source_factors(pairs, slots, weights, n, k):
    """N and D of one orbit term, read from the source's ``gap_table``.

    ``weights`` are the source's integer weights n * phi, and ``pairs`` and
    ``slots`` come from a row of ``minuscule_orbit``.
    """
    gaps, factors = gap_table(weights, k)
    index = [a * n + b for a, b in pairs]
    return (
        prod(factors[i] for i in index + [n * n + a for a in slots]),
        prod(gaps[i] for i in index),
    )


def sca_numerator(lam, phis, m):
    """Fraction reference: the numerator N of the localization coefficient."""
    value = Fraction(1)
    n = len(lam)
    for a in range(n):
        if lam[a] < 0:
            for alpha in range(1, -lam[a] + 1):
                value *= phis[a] - alpha
    for a in range(n):
        for b in range(n):
            diff = lam[a] - lam[b]
            if diff > 0:
                for beta in range(1, diff + 1):
                    value *= phis[b] - phis[a] + m - beta
    return value


def bracket_pow(x, r):
    """Rising/falling product [x]^r with unit step.

    r > 0 gives x(x+1)...(x+r-1), r = 0 gives 1, and r < 0 gives
    (x-1)(x-2)...(x-|r|).
    """
    x = Fraction(x)
    value = Fraction(1)
    if r > 0:
        for j in range(r):
            value *= x + j
    elif r < 0:
        for j in range(1, -r + 1):
            value *= x - j
    return value


def abelian_monopole_coeff(entries, lam, params):
    """Source-side reference: the abelianized shift coefficient |A> -> |A + lam>.

    This is the displayed product formula for the action of a single lattice
    translation: the vector-representation part contributes
    (a-1)k/n - A_a + alpha for each negative entry, the adjoint part
    (a-b+1)k/n - A_a + A_b + beta for each decreasing pair.
    """
    if len(entries) != params.n or len(lam) != params.n:
        raise DimensionError("cocharacter and shift must both have length n")
    kn = Fraction(params.k, params.n)
    value = Fraction(1)
    for a, la in enumerate(lam):
        if la < 0:
            for alpha in range(-la):
                value *= a * kn - entries[a] + alpha
    n = params.n
    for a in range(n):
        for b in range(n):
            diff = lam[a] - lam[b]
            if diff > 0:
                for beta in range(diff):
                    value *= (a - b + 1) * kn - entries[a] + entries[b] + beta
    return value


def excess_factor(entries, nu, params):
    """Source-side reference: the excess intersection factor of nu at A.

    Product of bracket powers over the weights of the representation
    (adjoint plus vector): adjoint weights phi_a - phi_b + m for a != b and
    vector weights phi_a, each raised to -<mu, nu> when that pairing is
    negative.
    """
    if len(entries) != params.n or len(nu) != params.n:
        raise DimensionError("cocharacter and shift must both have length n")
    phis = phi_weights(entries, params)
    m = params.m
    value = Fraction(1)
    n = params.n
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            pairing = nu[a] - nu[b]
            if pairing < 0:
                value *= bracket_pow(phis[a] - phis[b] + m, -pairing)
    for a in range(n):
        if nu[a] < 0:
            value *= bracket_pow(phis[a], -nu[a])
    return value


def sca_denominator(lam, phis):
    """Fraction reference: the denominator D (tangent Euler factor)."""
    value = Fraction(1)
    n = len(lam)
    for a in range(n):
        for b in range(n):
            diff = lam[a] - lam[b]
            if diff > 0:
                for gamma in range(1, diff + 1):
                    value *= phis[b] - phis[a] - gamma
    return value


def reference_monopole(basis, coweight, dress=None, t=0):
    """Operator entries {(d, i, j): value} assembled over Fraction.

    The dressing is evaluated at phi - t, phi the target weights.
    """
    p = basis.params
    dress = DressPolynomial(p.n, {(0,) * p.n: 1}) if dress is None else dress
    shift = sum(coweight)
    out = {}
    for d in range(basis.max_degree - max(0, shift) + 1):
        for j, label in enumerate(basis.stratum(d)):
            for lam, rep, *_ in minuscule_orbit(coweight):
                target = tuple(a + l for a, l in zip(label, lam))
                if not is_admissible(target, p):
                    continue
                phis = phi_weights(target, p)
                value = (
                    evaluate(dress, tuple(phis[rep[i]] - t for i in range(p.n)))
                    * sca_numerator(lam, phis, p.m)
                    / sca_denominator(lam, phis)
                )
                if value:
                    out[d, basis.index(d + shift, target), j] = value
    return out


def test_bracket_pow_examples():
    assert bracket_pow(Fraction(3, 2), 0) == 1
    assert bracket_pow(Fraction(1, 2), 2) == Fraction(3, 4)
    assert bracket_pow(Fraction(1, 2), -1) == Fraction(-1, 2)


def test_bracket_pow_recurrences():
    for num in range(-4, 5):
        x = Fraction(num, 3)
        for r in range(0, 5):
            assert bracket_pow(x, r + 1) == bracket_pow(x, r) * (x + r)
            assert bracket_pow(x, -(r + 1)) == bracket_pow(x, -r) * (x - r - 1)


def test_abelian_coefficient_examples():
    p = Params(2, 3)
    assert abelian_monopole_coeff((0, 1), (0, 0), p) == 1
    assert abelian_monopole_coeff((1, 1), (1, 1), p) == 1
    assert abelian_monopole_coeff((1, 2), (-1, -1), p) == Fraction(1, 2)


def test_excess_factor_examples():
    p = Params(2, 3)
    assert excess_factor((0, 0), (0, 0), p) == 1
    assert excess_factor((0, 0), (0, 1), p) == -3
    assert excess_factor((0, 0), (1, 0), p) == 0


def test_minuscule_coweight_validation():
    # (0, -1, -1) is the charge of sign -1 and r = 2 out of n = 3: its table
    # is that of (-1, -1, 0), and its degree shift is -2
    orbit = minuscule_orbit((0, -1, -1))
    assert orbit == minuscule_orbit(charge(-1, 2, 3))
    assert {sum(lam) for lam, *_ in orbit} == {-2}
    assert [lam for lam, *_ in minuscule_orbit((1, 0))] == [(1, 0), (0, 1)]
    with pytest.raises(ValueError, match=r"^the zero coweight is not a monopole charge$"):
        minuscule_orbit((0, 0))
    for bad in ((1, -1), (0, 2)):
        message = f"{bad} is not minuscule: entries must be 0 and a single sign"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            minuscule_orbit(bad)
    # the charge is checked before its length, which is checked before the
    # dressing
    basis = build_graded_basis(Params(3, 4), 2)
    with pytest.raises(ValueError, match="not minuscule") as caught:
        minuscule_monopole(basis, (1, -1), DressPolynomial(2))
    assert not isinstance(caught.value, DimensionError)
    with pytest.raises(DimensionError, match=r"^coweight has length 2, expected 3$"):
        minuscule_monopole(basis, (1, 0), DressPolynomial(2))
    with pytest.raises(ValueError):
        Truncation(Params(2, 3), 4).monopole(1, 0)


def test_monopole_refuses_the_sign_and_r_it_was_given():
    # the refusal names the sign and r the caller gave, not the length of a
    # coweight built from them
    run = Truncation(Params(3, 4), 4)
    for sign, r in ((1, 4), (-1, 4), (1, 0), (2, 1), (0, 2)):
        message = (
            "a monopole needs sign 1 or -1 and 1 <= r <= n, "
            f"got sign = {sign}, r = {r}, n = 3"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
            run.monopole(sign, r)
        assert not isinstance(caught.value, DimensionError)
    assert run.monopole(-1, 3).shift == -3


def test_orbit_enumeration():
    orbit = minuscule_orbit((1, 1, 0))
    vectors = [lam for lam, *_ in orbit]
    assert vectors == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    reps = {lam: rep for lam, rep, *_ in orbit}
    assert reps[(0, 1, 1)] == (1, 2, 0)


def test_operator_spot_values_2_3():
    run = Truncation(Params(2, 3), 6)
    basis = run.basis
    x = run.x
    y = run.y
    assert x.apply({(0, 0): 1}) == {(0, 1): 2}
    assert x.apply({(0, 1): 1}) == {(0, 2): 4, (1, 1): -2}
    assert y.apply({(0, 0): 1}) == {}
    assert y.apply({(0, 1): 1}) == {(0, 0): -1}
    assert y.apply({(0, 1): 2}) == {(0, 0): -2}
    e = run.e
    f = run.f
    for d in range(5):
        for label in basis.stratum(d):
            target = (label[0] + 1, label[1] + 1)
            assert e.apply({label: 1}) == {target: 1}
    assert f.apply({(1, 2): 1}) == {(0, 1): Fraction(-1, 2)}
    h = run.h
    assert h.apply({(0, 0): 1}) == {(0, 0): Fraction(-1, 2)}


def test_operator_spot_values_3_4():
    run = Truncation(Params(3, 4), 6)
    f3 = run.monopole(-1, 3)
    f2 = run.monopole(-1, 2)
    assert f3.apply({(0, 1, 1): 1}) == {}
    assert f2.apply({(0, 1, 1): 1}) == {(0, 0, 0): Fraction(-1, 3)}


def test_operator_h_requires_rank_two():
    with pytest.raises(UnsupportedParametersError):
        operator_h(build_graded_basis(Params(3, 4), 2))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 20), st.integers(0, 30))
def test_operator_h_is_hbar_minus_the_weights(ell, D):
    # H against hbar - phi_1 - phi_2 at each fixed point, phi read from the
    # reference weights, and against the rank-two closed form
    params = Params(2, 2 * ell + 1)
    basis = build_graded_basis(params, D)
    h = operator_h(basis)
    closed = rank_two.closed_form_h(basis)
    for d in range(D + 1):
        labels = enumerate_fixed_points(params, d)
        diagonal = {
            (i, i): params.hbar - sum(phi_weights(label, params))
            for i, label in enumerate(labels)
        }
        want = RatMat(len(labels), len(labels), diagonal)
        assert h.block(d) == want
        assert closed.block(d) == want


@pytest.mark.parametrize("n,k,max_degree", [(2, 3, 7), (3, 4, 6), (2, 5, 6)])
def test_route_equivalence(n, k, max_degree):
    """Target-evaluated coefficients equal excess(source) / tangent(target).

    For the full-rank coweights (single-element orbits) both equal the
    abelianized shift coefficient as well.
    """
    p = Params(n, k)
    m = p.m
    for d in range(max_degree + 1):
        for label in enumerate_fixed_points(p, d):
            for sign in (1, -1):
                for r in range(1, n + 1):
                    for lam, *_ in minuscule_orbit(charge(sign, r, n)):
                        target = tuple(a + l for a, l in zip(label, lam))
                        if not is_admissible(target, p):
                            continue
                        phis = phi_weights(target, p)
                        denominator = sca_denominator(lam, phis)
                        via_target = sca_numerator(lam, phis, m) / denominator
                        via_source = excess_factor(label, lam, p) / denominator
                        assert via_target == via_source
                        if r == n:
                            assert via_target == abelian_monopole_coeff(
                                label, lam, p
                            )


@pytest.mark.parametrize("n,k,max_degree", [(2, 3, 8), (3, 4, 6), (3, 5, 6)])
def test_boundary_vanishing(n, k, max_degree):
    # whenever A is admissible and A + lam is not, the numerator vanishes
    p = Params(n, k)
    hits = 0
    for d in range(max_degree + 1):
        for label in enumerate_fixed_points(p, d):
            for sign in (1, -1):
                for r in range(1, n + 1):
                    for lam, *_ in minuscule_orbit(charge(sign, r, n)):
                        target = tuple(a + l for a, l in zip(label, lam))
                        if is_admissible(target, p):
                            continue
                        hits += 1
                        assert sca_numerator(lam, phi_weights(target, p), p.m) == 0
    assert hits > 0


def _dressings(n, r):
    """Stabilizer-invariant dressings: 1, e1, e2 and a slot-reading rational one."""
    # 2/3 (first - r/2), first the e_1 of the slots 0..r-1 that read the
    # charge's nonzero positions
    rational = {tuple(int(i == a) for i in range(n)): Fraction(2, 3) for a in range(r)}
    rational[(0,) * n] = Fraction(-r, 3)
    return [
        None,
        DressPolynomial.elementary(n, 1),
        DressPolynomial.elementary(n, 2),
        DressPolynomial(n, rational),
    ]


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_integer_kernel_matches_fraction_reference(data):
    n, k = data.draw(st.sampled_from(COPRIME_PAIRS))
    p = Params(n, k)
    label = data.draw(st.sampled_from(enumerate_fixed_points(p, data.draw(st.integers(0, 12)))))
    r = data.draw(st.integers(1, n))
    cw = charge(data.draw(st.sampled_from((1, -1))), r, n)
    dress = data.draw(st.sampled_from(_dressings(n, r)))
    lam, rep, pairs, slots, scale = data.draw(st.sampled_from(minuscule_orbit(cw)))
    target = tuple(a + l for a, l in zip(label, lam))
    numerator, denominator = source_factors(
        pairs, slots, [a * k - n * b for a, b in enumerate(label)], n, k
    )
    weights = [a * k - n * b for a, b in enumerate(target)]  # n * phi
    phis = phi_weights(target, p)
    if not is_admissible(target, p):
        assert numerator == 0
        assert sca_numerator(lam, phis, p.m) == 0
        return
    dress = DressPolynomial(n, {(0,) * n: 1}) if dress is None else dress
    terms, dress_scale = dress.integer_form(n)
    dressing = sum(c * prod(weights[rep[i]] for i in dslots) for c, dslots in terms)
    expected = (
        evaluate(dress, tuple(phis[rep[i]] for i in range(n)))
        * sca_numerator(lam, phis, p.m)
        / sca_denominator(lam, phis)
    )
    assert Fraction(numerator * dressing, denominator * scale * dress_scale) == expected


def test_integer_form_of_rational_dressing():
    f = DressPolynomial(2, {(2, 0): Fraction(1, 3), (0, 1): Fraction(-1, 2), (0, 0): 5})
    terms, denominator = f.integer_form(3)
    for x in [(0, 0), (1, -2), (7, 4), (-5, 11)]:
        value = sum(c * prod(x[i] for i in slots) for c, slots in terms)
        assert Fraction(value, denominator) == evaluate(f, tuple(Fraction(v, 3) for v in x))
    assert DressPolynomial(2).integer_form(3) == ([], 1)


INEXACT = [0.1, "1/3"]


@pytest.mark.parametrize("value", INEXACT)
def test_dressing_coefficients_must_be_exact(value):
    with pytest.raises(TypeError, match=type(value).__name__):
        DressPolynomial(1, {(1,): value})


@pytest.mark.parametrize("value", INEXACT)
def test_operator_scalar_is_checked_before_any_block(value):
    x = Truncation(Params(2, 3), 4).x
    with pytest.raises(TypeError, match=type(value).__name__):
        x.scaled(value)


@pytest.mark.parametrize("value", INEXACT)
def test_vector_coefficients_must_be_exact(value):
    x = Truncation(Params(2, 3), 4).x
    with pytest.raises(TypeError, match=type(value).__name__):
        x.apply({(0, 0): value})


@pytest.mark.parametrize("value", INEXACT)
def test_identity_scale_must_be_exact(value):
    basis = build_graded_basis(Params(2, 3), 3)
    with pytest.raises(TypeError, match=type(value).__name__):
        identity_operator(basis, value)


def test_graded_operator_refuses_a_block_of_the_wrong_shape():
    basis = build_graded_basis(Params(2, 3), 3)
    with pytest.raises(DimensionError, match=r"degree 2 has shape \(2, 1\), expected \(2, 2\)"):
        GradedOperator(basis, 0, {0: RatMat(1, 1), 2: RatMat(2, 1)})


def _entries(op):
    return {
        (d, i, j): value
        for d, block in op.blocks.items()
        for (i, j), value in block.entries.items()
    }


@pytest.mark.parametrize("n,k", COPRIME_PAIRS)
def test_operators_match_fraction_reference_assembly(n, k):
    # every (sign, r) undressed at D = 12, and with each dressing at D = 8
    params = Params(n, k)
    basis, small = build_graded_basis(params, 12), build_graded_basis(params, 8)
    for sign in (1, -1):
        for r in range(1, n + 1):
            cw = charge(sign, r, n)
            got = _entries(minuscule_monopole(basis, cw))
            assert got == reference_monopole(basis, cw), (sign, r)
            for dress in _dressings(n, r)[1:]:
                got = _entries(minuscule_monopole(small, cw, dress))
                assert got == reference_monopole(small, cw, dress), (sign, r, dress)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_named_monopoles_twist_only_the_lowering_dressing(data):
    # E_r[f] evaluates f at phi and F_r[f] at phi - hbar, hbar = 1, for e1,
    # e2 and the rational dressing, every coprime n <= 5, k <= 9 and every r
    n, k = data.draw(st.sampled_from(COPRIME_PAIRS))
    r = data.draw(st.integers(1, n))
    sign = data.draw(st.sampled_from((1, -1)))
    dress = data.draw(st.sampled_from(_dressings(n, r)[1:]))
    run = Truncation(Params(n, k), 8)
    expected = reference_monopole(run.basis, charge(sign, r, n), dress, int(sign < 0))
    assert _entries(run.monopole(sign, r, dress)) == expected


def test_commutator_examples():
    run = Truncation(Params(2, 3), 8)
    x, y = run.x, run.y
    comm = commutator(x, y)
    block0 = comm.block(0)
    assert block0[0, 0] == 2
    for zero in (commutator(x, x), x.scaled(0), x - x):
        assert all(not zero.block(d).num for d in zero.domain())


def test_composites_compute_blocks_on_demand(monkeypatch):
    # building [X, Y] multiplies no block; each read of a block composes its
    # degree afresh, and nothing is stored on the composite
    run = Truncation(Params(3, 4), 8)
    x, y = run.x, run.y
    products = []
    matmul = RatMat.__matmul__

    def counted(self, other):
        products.append((self.shape, other.shape))
        return matmul(self, other)

    monkeypatch.setattr(RatMat, "__matmul__", counted)
    comm = commutator(x, y)
    assert products == []
    assert comm.blocks is None
    first = comm.block(3)
    assert len(products) == 2
    assert comm.block(3) == first
    assert len(products) == 4
    assert len(x.blocks) == x.max_source + 1


def test_difference_negates_no_block(monkeypatch):
    # a - b subtracts block from block: no scaled(-1) copy of b's blocks
    run = Truncation(Params(3, 4), 8)
    x, y = run.x, run.y
    calls = []
    scaled = RatMat.scaled

    def counted(self, c):
        calls.append(c)
        return scaled(self, c)

    monkeypatch.setattr(RatMat, "scaled", counted)
    comm = commutator(x, y)
    blocks = [comm.block(d) for d in comm.domain()]
    monkeypatch.undo()
    assert calls == []
    for d, block in enumerate(blocks):
        negated = (y @ x).block(d).scaled(-1)
        assert block == (x @ y).block(d) + negated


def test_composition_domains():
    run = Truncation(Params(2, 3), 8)
    x, y = run.x, run.y
    assert x.max_source == 7
    assert y.max_source == 8
    assert (x @ y).max_source == 8
    assert (y @ x).max_source == 7
    assert commutator(x, y).max_source == 7
    # lowering below degree zero lands in the empty stratum
    assert (y @ y).block(0).shape == (0, 1)
    assert (y @ y).block(1).shape == (0, 1)


RANK_TWO_BUILDERS = (
    rank_two.closed_form_x,
    rank_two.closed_form_y,
    rank_two.closed_form_e,
    rank_two.closed_form_f,
    rank_two.closed_form_h,
    rank_two.casimir_diagonal,
)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(0, 10))
def test_stored_operators_have_one_domain_and_shape_rule(pair, D):
    # a stored operator of shift s is total on 0..D - max(0, s), and its
    # block d is dim(d + s) x dim(d), with negative strata empty
    run = Truncation(Params(*pair), D)
    basis = run.basis
    ops = [run.monopole(sign, r) for sign in (1, -1) for r in range(1, pair[0] + 1)]
    ops += [GradedOperator.assemble(basis, s, lambda label: ()) for s in range(-3, 4)]
    ops.append(identity_operator(basis, Fraction(-3, 2)))
    if pair[0] == 2:
        ops += [build(basis) for build in RANK_TWO_BUILDERS]
    for op in ops:
        assert op.domain() == range(D - max(0, op.shift) + 1)
        for d in op.domain():
            assert op.block(d).shape == (basis.dim(d + op.shift), basis.dim(d))


def test_apply_identity_and_truncation():
    run = Truncation(Params(2, 3), 4)
    ident = identity_operator(run.basis)
    vec = {(0, 1): Fraction(2), (1, 1): Fraction(-1, 3)}
    assert ident.apply(vec) == vec
    x = run.x
    with pytest.raises(TruncationError):
        x.apply({(2, 2): 1})  # degree 4 exceeds X's source domain


def test_block_outside_the_domain_raises():
    run = Truncation(Params(2, 3), 4)
    for op in (run.x, run.x @ run.y):
        for d in (-1, op.max_source + 1):
            message = (
                f"operator with shift {op.shift} has no block at source degree {d}"
            )
            with pytest.raises(TruncationError, match=f"^{re.escape(message)}$"):
                op.block(d)


def test_basis_mismatch_rejected():
    a = Truncation(Params(2, 3), 4)
    b = Truncation(Params(2, 5), 4)
    with pytest.raises(DimensionError):
        a.x @ b.x
    with pytest.raises(DimensionError):
        a.x + a.y  # shift mismatch


def test_dress_polynomial_basics():
    e1 = DressPolynomial.elementary(3, 1)
    assert evaluate(e1, (1, 2, 3)) == 6
    e2 = DressPolynomial.elementary(3, 2)
    assert evaluate(e2, (1, 2, 3)) == 11
    # e1 at phi - 1 in three variables is e1 - 3
    shifted = DressPolynomial(3, {**e1.terms, (0, 0, 0): -3})
    assert evaluate(shifted, (1, 2, 3)) == evaluate(e1, (0, 1, 2)) == 3


@pytest.mark.parametrize("expo", [(-1, -1), (0.5, 0.5), (2, -1), (1, 1.0)])
def test_dress_polynomial_refuses_exponents_that_are_not_nonnegative_ints(expo):
    # such a dressing would otherwise crash deep in the monopole assembly
    message = f"exponent tuple {expo} is not of nonnegative integers"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DressPolynomial(2, {expo: 1})


def test_dressing_of_the_wrong_variable_count_raises():
    basis = build_graded_basis(Params(2, 3), 4)
    for nvars in (1, 3):
        with pytest.raises(
            DimensionError, match=r"^dressing polynomial has the wrong variable count$"
        ):
            minuscule_monopole(basis, (1, 0), DressPolynomial.elementary(nvars, 1))


@pytest.mark.parametrize("expo", [(1,), (1, 0, 0)])
def test_dress_polynomial_refuses_exponent_tuples_of_the_wrong_length(expo):
    with pytest.raises(DimensionError, match=r"^exponent tuple has wrong length$"):
        DressPolynomial(2, {expo: 1})


def test_dressing_invariance_enforced():
    basis = build_graded_basis(Params(3, 4), 4)
    bad = variable(3, 1)  # not fixed by the stabilizer of (1,0,0)
    with pytest.raises(ValueError):
        minuscule_monopole(basis, (1, 0, 0), bad)
    good = variable(3, 0)
    minuscule_monopole(basis, (1, 0, 0), good)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_monopole_refuses_exactly_the_dressings_its_stabilizer_moves(data):
    n, k = data.draw(st.sampled_from([(n, k) for n, k in COPRIME_PAIRS if n <= 4 and k <= 5]))
    r = data.draw(st.integers(1, n))
    cw = tuple(data.draw(st.permutations(charge(data.draw(st.sampled_from((1, -1))), r, n))))
    terms = data.draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * n), st.sampled_from((-2, -1, 1, 2)), max_size=4
        )
    )
    # S_r x S_{n-r}: the permutations that keep the slots 0..r-1 among themselves
    stabilizer = [s for s in permutations(range(n)) if set(s[:r]) == set(range(r))]
    if data.draw(st.booleans()):
        # the sum over the stabilizer, so that invariant dressings are drawn often
        summed = {}
        for e, c in terms.items():
            for s in stabilizer:
                key = tuple(e[i] for i in s)
                summed[key] = summed.get(key, 0) + c
        terms = summed
    dress = DressPolynomial(n, terms)
    invariant = all(
        DressPolynomial(n, {tuple(e[i] for i in s): c for e, c in dress.terms.items()}) == dress
        for s in stabilizer
    )
    basis = build_graded_basis(Params(n, k), 2)
    if invariant:
        assert minuscule_monopole(basis, cw, dress).shift == sum(cw)
    else:
        message = "dressing polynomial is not invariant under the coweight stabilizer"
        with pytest.raises(ValueError, match=f"^{message}$"):
            minuscule_monopole(basis, cw, dress)


def test_dressed_full_rank_operators():
    # single-orbit coweights multiply the undressed entry by f at the target
    p = Params(2, 3)
    run = Truncation(p, 6)
    basis = run.basis
    e1 = DressPolynomial.elementary(2, 1)
    dressed = run.monopole(1, 2, e1)
    plain = run.monopole(1, 2)
    for d in range(dressed.max_source + 1):
        for (i, j), value in sorted(dressed.block(d).entries.items()):
            target = basis.stratum(d + 2)[i]
            expected = plain.block(d)[i, j] * evaluate(e1, phi_weights(target, p))
            assert value == expected
    assert dressed.apply({(0, 1): 1}) == {(1, 2): Fraction(-3, 2)}

    lowered = run.monopole(-1, 2, e1)
    assert lowered.apply({(1, 2): 1}) == {(0, 1): Fraction(-3, 4)}


def test_dressing_follows_the_orbit():
    # dressing f = phi_(first) reads phi at the shifted slot of each orbit term
    p = Params(2, 3)
    run = Truncation(p, 6)
    basis = run.basis
    first = variable(2, 0)
    dressed = minuscule_monopole(basis, (1, 0), first)
    plain = run.x
    for d in range(dressed.max_source + 1):
        stratum = basis.stratum(d)
        for (i, j), _ in sorted(plain.block(d).entries.items()):
            source = stratum[j]
            target = basis.stratum(d + 1)[i]
            slot = 0 if target[0] != source[0] else 1
            expected = plain.block(d)[i, j] * phi_weights(target, p)[slot]
            assert dressed.block(d)[i, j] == expected
    # |0,0> -> |0,1> has X entry 2, dressed by phi_2(0,1) = 1/2
    assert dressed.apply({(0, 0): 1}) == {(0, 1): 1}


def test_minuscule_monopole_matches_named_builders():
    run = Truncation(Params(3, 4), 5)
    via_vector = minuscule_monopole(run.basis, (1, 0, 0))
    x = run.x
    for d in range(x.max_source + 1):
        assert via_vector.block(d) == x.block(d)


SWEEP_PAIRS = [(n, k) for n in range(1, 8) for k in range(1, 12) if gcd(n, k) == 1]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_a_permuted_charge_is_its_sorted_charge(data):
    # every coprime n <= 7, both signs, every r and a drawn placement of the
    # charge's nonzero entries
    n, k = data.draw(st.sampled_from(SWEEP_PAIRS))
    r = data.draw(st.integers(1, n))
    sorted_charge = charge(data.draw(st.sampled_from((1, -1))), r, n)
    permuted = tuple(data.draw(st.permutations(sorted_charge)))
    orbit = minuscule_orbit(permuted)
    vectors = [lam for lam, *_ in orbit]
    assert len(set(vectors)) == len(vectors)
    assert set(vectors) == set(permutations(sorted_charge))
    run = Truncation(Params(n, k), 6)
    dress = data.draw(st.sampled_from(_dressings(n, r)))
    via_permuted = minuscule_monopole(run.basis, permuted, dress)
    via_sorted = minuscule_monopole(run.basis, sorted_charge, dress)
    assert via_permuted.shift == via_sorted.shift == sum(sorted_charge)
    assert via_permuted.blocks == via_sorted.blocks
    for sign, bad_r in ((1, 0), (1, n + 1), (2, 1)):
        with pytest.raises(ValueError):
            run.monopole(sign, bad_r)

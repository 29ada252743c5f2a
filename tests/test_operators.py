"""Monopole operator coefficients, operator algebra, and dressing."""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from springer_rca import (
    DimensionError,
    DressPolynomial,
    MinusculeCoweight,
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
    operator_h,
)
from springer_rca.operators import gap_table
from test_core import phi_weights

COPRIME_PAIRS = [(n, k) for n in range(1, 6) for k in range(1, 10) if gcd(n, k) == 1]


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
    ``slots`` come from ``MinusculeCoweight.orbit_factors``.
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


def reference_monopole(basis, coweight, dress=None):
    """Operator entries {(d, i, j): value} assembled over Fraction."""
    p = basis.params
    dress = DressPolynomial.one(p.n) if dress is None else dress
    out = {}
    for d in range(basis.max_degree - max(0, coweight.shift) + 1):
        for j, label in enumerate(basis.stratum(d)):
            for lam, rep in coweight.orbit():
                target = tuple(a + l for a, l in zip(label, lam))
                if not is_admissible(target, p):
                    continue
                phis = phi_weights(target, p)
                value = (
                    evaluate(dress, tuple(phis[rep[i]] for i in range(p.n)))
                    * sca_numerator(lam, phis, p.m)
                    / sca_denominator(lam, phis)
                )
                if value:
                    out[d, basis.index(d + coweight.shift, target), j] = value
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
    cw = MinusculeCoweight.from_vector((0, -1, -1))
    assert (cw.sign, cw.r, cw.n) == (-1, 2, 3)
    assert cw.expansion == (-1, -1, 0)
    assert cw.shift == -2
    assert MinusculeCoweight.from_vector((1, 0)).expansion == (1, 0)
    with pytest.raises(ValueError):
        MinusculeCoweight.from_vector((1, -1))
    with pytest.raises(ValueError):
        MinusculeCoweight.from_vector((0, 0))
    with pytest.raises(ValueError):
        MinusculeCoweight.from_vector((0, 2))
    with pytest.raises(ValueError):
        MinusculeCoweight(1, 0, 2)


def test_orbit_enumeration():
    cw = MinusculeCoweight(1, 2, 3)
    vectors = [v for v, _ in cw.orbit()]
    assert vectors == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    reps = {v: w for v, w in cw.orbit()}
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
                    cw = MinusculeCoweight(sign, r, n)
                    for lam, _rep in cw.orbit():
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
                    for lam, _rep in MinusculeCoweight(sign, r, n).orbit():
                        target = tuple(a + l for a, l in zip(label, lam))
                        if is_admissible(target, p):
                            continue
                        hits += 1
                        assert sca_numerator(lam, phi_weights(target, p), p.m) == 0
    assert hits > 0


def _dressings(n, r):
    """Stabilizer-invariant dressings: 1, e1, e2 and a slot-reading rational one."""
    return [
        None,
        DressPolynomial.elementary(n, 1),
        DressPolynomial.elementary(n, 2),
        DressPolynomial.elementary(n, 1, range(r)).shift_all(Fraction(1, 2))
        * Fraction(2, 3),
    ]


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_integer_kernel_matches_fraction_reference(data):
    n, k = data.draw(st.sampled_from(COPRIME_PAIRS))
    p = Params(n, k)
    label = data.draw(st.sampled_from(enumerate_fixed_points(p, data.draw(st.integers(0, 12)))))
    cw = MinusculeCoweight(data.draw(st.sampled_from((1, -1))), data.draw(st.integers(1, n)), n)
    dress = data.draw(st.sampled_from(_dressings(n, cw.r)))
    lam, rep, pairs, slots, scale = data.draw(st.sampled_from(cw.orbit_factors()))
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
    dress = DressPolynomial.one(n) if dress is None else dress
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
            cw = MinusculeCoweight(sign, r, n)
            got = _entries(minuscule_monopole(basis, cw))
            assert got == reference_monopole(basis, cw), (sign, r)
            for dress in _dressings(n, r)[1:]:
                got = _entries(minuscule_monopole(small, cw, dress))
                assert got == reference_monopole(small, cw, dress), (sign, r, dress)


def test_commutator_examples():
    run = Truncation(Params(2, 3), 8)
    x, y = run.x, run.y
    comm = commutator(x, y)
    block0 = comm.block(0)
    assert block0[0, 0] == 2
    assert commutator(x, x).is_zero()
    assert x.scaled(0).is_zero()
    assert (x - x).is_zero()


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


def test_apply_identity_and_truncation():
    run = Truncation(Params(2, 3), 4)
    ident = identity_operator(run.basis)
    vec = {(0, 1): Fraction(2), (1, 1): Fraction(-1, 3)}
    assert ident.apply(vec) == vec
    x = run.x
    with pytest.raises(TruncationError):
        x.apply({(2, 2): 1})  # degree 4 exceeds X's source domain


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
    shifted = e1.shift_all(1)
    assert evaluate(shifted, (1, 2, 3)) == 3
    swap = (1, 0, 2)
    assert e2.permuted(swap) == e2
    phi2 = variable(3, 1)
    assert phi2.permuted((0, 2, 1)) == variable(3, 2)
    prod = e1 * phi2
    assert evaluate(prod, (1, 2, 3)) == 12
    assert (e1 + e1) == 2 * e1


def test_dressing_invariance_enforced():
    basis = build_graded_basis(Params(3, 4), 4)
    bad = variable(3, 1)  # not fixed by the stabilizer of (1,0,0)
    with pytest.raises(ValueError):
        minuscule_monopole(basis, MinusculeCoweight(1, 1, 3), bad)
    good = variable(3, 0)
    minuscule_monopole(basis, MinusculeCoweight(1, 1, 3), good)


def test_dressed_full_rank_operators():
    # single-orbit coweights multiply the undressed entry by f at the target
    p = Params(2, 3)
    run = Truncation(p, 6)
    basis = run.basis
    e1 = DressPolynomial.elementary(2, 1)
    dressed = run.monopole(1, 2, e1)
    plain = run.monopole(1, 2)
    for d in range(dressed.max_source + 1):
        for (i, j), value in dressed.block(d).sorted_entries():
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
    dressed = minuscule_monopole(basis, MinusculeCoweight(1, 1, 2), first)
    plain = run.x
    for d in range(dressed.max_source + 1):
        stratum = basis.stratum(d)
        for (i, j), _ in plain.block(d).sorted_entries():
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

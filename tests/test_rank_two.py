"""Closed-form rank-two operators against the generic localization route."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from springer_rca import (
    InvariantError,
    Params,
    Truncation,
    UnsupportedParametersError,
    build_graded_basis,
    identity_operator,
)
from springer_rca import rank_two
from springer_rca.linalg import RatMat
from springer_rca.verify import first_mismatch


def casimir_eigenvalue(label, ell):
    """Quadratic Casimir eigenvalue (A_2 - A_1 - k/2)^2 - 1 with k = 2l + 1."""
    a1, a2 = label
    return (a2 - a1 - Fraction(2 * ell + 1, 2)) ** 2 - 1


def fraction_forms(k):
    """The module docstring's formulas in Fractions: builder -> (shift, terms).

    ``terms(a1, a2)`` lists the (target, coefficient) pairs of |a1, a2>.
    """
    h = Fraction(k, 2)
    ell = (k - 1) // 2

    def x(a1, a2):
        s = a2 - a1
        return [((a1, a2 + 1), (s - k) / (s - h)), ((a1 + 1, a2), s / (s - h))]

    def y(a1, a2):
        s = a2 - a1
        return [
            ((a1, a2 - 1), s * (h - a2) / (s - h)),
            ((a1 - 1, a2), a1 * (k - s) / (s - h)),
        ]

    return {
        rank_two.closed_form_x: (1, x),
        rank_two.closed_form_y: (-1, y),
        rank_two.closed_form_e: (2, lambda a1, a2: [((a1 + 1, a2 + 1), Fraction(1))]),
        rank_two.closed_form_f: (
            -2, lambda a1, a2: [((a1 - 1, a2 - 1), a1 * (h - a2))]
        ),
        rank_two.closed_form_h: (0, lambda a1, a2: [((a1, a2), a1 + a2 + 1 - h)]),
        rank_two.casimir_diagonal: (
            0, lambda a1, a2: [((a1, a2), casimir_eigenvalue((a1, a2), ell))]
        ),
    }


def fraction_blocks(basis, shift, terms):
    """The blocks of the operator with Fraction ``terms``, degree by degree."""
    blocks = []
    for d in range(basis.max_degree - max(0, shift) + 1):
        entries = {}
        for j, label in enumerate(basis.stratum(d)):
            for target, value in terms(*label):
                if value:
                    entries[basis.index(d + shift, target), j] = value
        blocks.append(RatMat(basis.dim(d + shift), basis.dim(d), entries))
    return blocks


@pytest.fixture(scope="module")
def basis23():
    return build_graded_basis(Params(2, 3), 8)


def test_closed_form_x_spot_values(basis23):
    x = rank_two.closed_form_x(basis23)
    assert x.apply({(0, 0): 1}) == {(0, 1): 2}
    assert x.apply({(0, 1): 1}) == {(0, 2): 4, (1, 1): -2}
    # the entry |0,1> -> |1,1> is 1/(1 - 3/2) = -2
    assert x.block(1)[basis23.index(2, (1, 1)), 0] == -2


def test_closed_form_y_spot_values(basis23):
    y = rank_two.closed_form_y(basis23)
    assert y.apply({(0, 0): 1}) == {}
    assert y.apply({(0, 1): 1}) == {(0, 0): -1}
    assert y.apply({(1, 1): 1}) == {(0, 1): -2}


@pytest.mark.parametrize(
    "shift,step,term",
    [
        (1, (0, 1), r"\(0, 3\) -> \(0, 4\)"),  # the gap 4 exceeds k = 3
        (-2, (-1, -1), r"\(0, 0\) -> \(-1, -1\)"),  # a target of degree -2
    ],
)
def test_closed_form_term_leaving_the_moduli_raises(shift, step, term):
    basis = build_graded_basis(Params(2, 3), 4)

    def terms(label):
        yield tuple(a + b for a, b in zip(label, step)), 1, 1

    with pytest.raises(InvariantError, match=term + " leaves the moduli"):
        rank_two._from_terms(basis, shift, terms)


def test_term_of_another_degree_raises():
    # a shift-1 operator whose terms stay in their source's stratum: each
    # target is a label, but not of the degree the block's rows index
    basis = build_graded_basis(Params(2, 3), 6)
    with pytest.raises(InvariantError, match=r"\(0, 0\) -> \(0, 0\) leaves the moduli"):
        rank_two._from_terms(basis, 1, lambda label: [(label, 1, 1)])


def test_closed_form_e_f_h(basis23):
    e = rank_two.closed_form_e(basis23)
    f = rank_two.closed_form_f(basis23)
    h = rank_two.closed_form_h(basis23)
    assert e.apply({(1, 2): 1}) == {(2, 3): 1}
    assert f.apply({(1, 2): 1}) == {(0, 1): Fraction(-1, 2)}
    assert f.apply({(0, 3): 1}) == {}
    assert h.apply({(0, 0): 1}) == {(0, 0): Fraction(-1, 2)}
    assert h.apply({(1, 2): 1}) == {(1, 2): Fraction(5, 2)}


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_closed_forms_match_generic(ell):
    params = Params(2, 2 * ell + 1)
    run = Truncation(params, 8)
    basis = run.basis
    pairs = [
        (run.x, rank_two.closed_form_x(basis)),
        (run.y, rank_two.closed_form_y(basis)),
        (run.e, rank_two.closed_form_e(basis)),
        (run.f, rank_two.closed_form_f(basis)),
        (run.h, rank_two.closed_form_h(basis)),
    ]
    for generic, closed in pairs:
        assert first_mismatch(generic, closed) is None


def test_closed_forms_require_rank_two():
    with pytest.raises(UnsupportedParametersError):
        rank_two.closed_form_x(build_graded_basis(Params(3, 4), 4))


def test_casimir_eigenvalues(basis23):
    assert casimir_eigenvalue((0, 0), 1) == Fraction(5, 4)
    assert casimir_eigenvalue((0, 1), 1) == Fraction(-3, 4)
    diagonal = rank_two.casimir_diagonal(basis23)
    assert diagonal.apply({(0, 0): 1}) == {(0, 0): Fraction(5, 4)}
    assert diagonal.apply({(0, 1): 1}) == {(0, 1): Fraction(-3, 4)}


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 20), st.integers(0, 40))
def test_integer_closed_forms_match_fraction_formulas(ell, D):
    # each builder's integer ratios give, block for block, the matrices of
    # the docstring's Fraction formulas
    k = 2 * ell + 1
    basis = build_graded_basis(Params(2, k), D)
    for build, (shift, terms) in fraction_forms(k).items():
        op = build(basis)
        want = fraction_blocks(basis, shift, terms)
        assert op.shift == shift
        assert [op.block(d) for d in op.domain()] == want, build.__name__


def test_integer_builders_make_no_fraction(monkeypatch):
    basis = build_graded_basis(Params(2, 21), 30)
    builders = list(fraction_forms(21))
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    ops = [build(basis) for build in builders]
    ops.append(identity_operator(basis))
    monkeypatch.undo()
    assert made == []
    assert sum(len(op.block(d).num) for op in ops for d in op.domain()) > 0


def test_lowest_weights():
    assert [rank_two.lowest_weight(a2, 1) for a2 in range(4)] == [
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(3, 2),
        Fraction(5, 2),
    ]


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_y_kernel_vectors_annihilate(ell):
    params = Params(2, 2 * ell + 1)
    y = Truncation(params, 2 * ell + 1).y
    vectors = rank_two.y_kernel_vectors(ell)
    assert len(vectors) == ell + 1
    for number, vec in enumerate(vectors):
        assert {sum(label) for label in vec} == {2 * number}
        assert y.apply(vec) == {}


def test_y_kernel_vector_ell1_explicit():
    # N = 1 at ell = 1 is |1,1> - |0,2>
    vectors = rank_two.y_kernel_vectors(1)
    assert vectors[0] == {(0, 0): 1}
    assert vectors[1] == {(1, 1): 1, (0, 2): -1}

"""Closed-form rank-two operators against the generic localization route."""

from fractions import Fraction

import pytest

from springer_rca import (
    InvariantError,
    Params,
    Truncation,
    UnsupportedParametersError,
    build_graded_basis,
)
from springer_rca import rank_two
from springer_rca.verify import first_mismatch


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
        yield tuple(a + b for a, b in zip(label, step)), Fraction(1)

    with pytest.raises(InvariantError, match=term + " leaves the moduli"):
        rank_two._from_terms(basis, shift, terms)


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


def test_casimir_eigenvalues():
    assert rank_two.casimir_eigenvalue((0, 0), 1) == Fraction(5, 4)
    assert rank_two.casimir_eigenvalue((0, 1), 1) == Fraction(-3, 4)


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

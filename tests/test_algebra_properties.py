"""Property tests for the two algebra targets (hypothesis): the group algebra
of B_n and the Temperley-Lieb algebra satisfy the algebra axioms on random
elements at n = 3, 4, with symbolic and with integer coefficients.  Elements
of the two algebras do not mix.  Every image of a word, in either algebra, as
an LKB extension matrix or as an Artin automorphism, is the product of its
letters' images in word order."""

import operator
from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidrep.braid import BraidWord, FreeAuto, artin_of_braid
from braidrep.matrix import RingMatrix
from braidrep.reps import GroupAlgebraElem, birman_image, lkb_ext, rep_apply
from braidrep.ring import integer, variable
from braidrep.tl import TLElem, tl_basis, tl_rho

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def singular_words(n, max_len):
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1, 0)))
    return st.lists(letter, max_size=max_len).map(lambda ls: BraidWord(n, tuple(ls)))


# None leaves a parameter symbolic; an integer pins it.
params = st.one_of(st.none(), st.integers(-3, 3))


def small_coeffs(names):
    """A nonzero integer, or a short Laurent polynomial in `names`."""
    nonzero = st.integers(-3, 3).filter(bool)
    monomial = st.tuples(nonzero, st.sampled_from(names), st.integers(-2, 2))
    poly = st.lists(monomial, min_size=1, max_size=2).map(
        lambda ms: sum((integer(c) * variable(v, e) for c, v, e in ms), integer(0))
    )
    return st.one_of(nonzero.map(integer), poly)


@st.composite
def ga_elems(draw, n):
    """A scaled sum of one or two group-algebra images of singular words."""
    elem = None
    for _ in range(draw(st.integers(1, 2))):
        word = draw(singular_words(n, 2))
        image = birman_image(word, draw(params), draw(params), draw(params))
        image = image.scalar_mul(draw(small_coeffs(("q", "a"))))
        elem = image if elem is None else elem + image
    return elem


@st.composite
def tl_elems(draw, n):
    """An image of a singular word plus a combination of basis diagrams."""
    word = draw(singular_words(n, 3))
    elem = tl_rho(n, word, draw(params), draw(params))
    basis = tl_basis(n)
    picks = draw(st.lists(st.integers(0, len(basis) - 1), max_size=3))
    terms = {basis[k]: draw(small_coeffs(("t", "a"))) for k in picks}
    return elem + TLElem(n, terms)


@st.composite
def triples(draw, elems):
    n = draw(st.sampled_from((3, 4)))
    return n, draw(elems(n)), draw(elems(n)), draw(elems(n))


def check_algebra_axioms(unit, x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert unit * x == x
    assert x * unit == x
    assert (x - x).is_zero()


@SETTINGS
@given(triples(ga_elems))
def test_group_algebra_axioms(case):
    n, x, y, z = case
    check_algebra_axioms(GroupAlgebraElem.unit(n), x, y, z)


@SETTINGS
@given(triples(tl_elems))
def test_temperley_lieb_axioms(case):
    n, x, y, z = case
    check_algebra_axioms(TLElem.unit(n), x, y, z)


def test_elements_of_different_algebras_do_not_mix():
    ga, tl = GroupAlgebraElem.unit(3), TLElem.unit(3)
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(ga, tl)
        with pytest.raises(TypeError):
            op(tl, ga)
    assert ga != tl


lkb_ext_rep = cache(lkb_ext)

IMAGES = {
    "birman": (lambda n, w: birman_image(w), GroupAlgebraElem.unit),
    "tl": (lambda n, w: tl_rho(n, w), TLElem.unit),
    "lkb-ext": (lambda n, w: rep_apply(lkb_ext_rep(n), w),
                lambda n: RingMatrix.identity(lkb_ext_rep(n).dim, lkb_ext_rep(n).ring)),
}


@st.composite
def image_cases(draw):
    n = draw(st.sampled_from((3, 4)))
    return draw(st.sampled_from(sorted(IMAGES))), n, draw(singular_words(n, 4))


@SETTINGS
@given(image_cases())
@example(("birman", 3, BraidWord(3)))
@example(("tl", 4, BraidWord(4)))
@example(("lkb-ext", 3, BraidWord(3)))
@example(("lkb-ext", 4, BraidWord.parse(4, "1 -3 2")))
@example(("birman", 4, BraidWord.parse(4, "t1 -2 t3")))
def test_word_image_is_the_product_of_letter_images(case):
    name, n, word = case
    image, unit = IMAGES[name]
    expected = unit(n)
    for k, letter in enumerate(word.letters):
        factor = image(n, BraidWord(n, (letter,)))
        expected = factor if k == 0 else expected * factor
    assert image(n, word) == expected


@SETTINGS
@given(st.sampled_from((3, 4)).flatmap(lambda n: singular_words(n, 6)))
def test_artin_image_of_a_word_times_its_inverse_is_the_identity(word):
    classical = BraidWord(word.n, tuple(letter for letter in word.letters if letter[1]))
    assert artin_of_braid(classical * classical.inverse()) == FreeAuto.identity(word.n)

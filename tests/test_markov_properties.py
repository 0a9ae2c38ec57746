"""The Markov search against a link invariant it shares no code with: the
Alexander polynomial of a braid's closure, from the unreduced Burau matrix.

With B the unreduced Burau image of a braid on n strands and B' the reduced
one, det(w*I - B) = (w - 1) * det(w*I - B'), and the closure's Alexander
polynomial is det(I - B') * (1 - t) / (1 - t^n) up to a unit +-t^k (Burau
1935; Birman, Braids, Links and Mapping Class Groups, 1974).  Every witness
of enumerate_markov_class closes to the seed's link, so it has the seed's
polynomial.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.braid import BraidWord
from braidrep.invariants import MarkovBounds, enumerate_markov_class
from braidrep.reps import burau, rep_apply
from braidrep.ring import ZERO, parse_poly, variable

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
t, w = variable("t"), variable("w")


def alexander(word: BraidWord):
    """The closure's Alexander polynomial, normalised: times t^k so that its
    lowest power of t is 1, and with a positive leading coefficient."""
    # det(B - w*I) / (w - 1) is +-det(w*I - B'); at w = 1 each term keeps its t power.
    quotient = rep_apply(burau(word.n), word).charpoly().exact_div(w - 1)
    at_one = sum((c * variable("t", (exps + (0, 0))[1])
                  for exps, c in quotient.exponent_terms().items()), ZERO)
    delta = (at_one * (1 - t)).exact_div(1 - variable("t", word.n))
    if not delta:
        return delta
    delta = delta.unshift(delta.monomial_gcd())
    return -delta if delta.leading()[1] < 0 else delta


@pytest.mark.parametrize("n, text, expected", [
    (2, "1 1 1", "t^2 - t + 1"),  # trefoil
    (3, "1 -2 1 -2", "t^2 - 3*t + 1"),  # figure-eight knot
    (3, "1 2", "1"),  # unknot
    (2, "", "0"),  # two-component unlink
])
def test_alexander_polynomials_of_known_closures(n, text, expected):
    assert alexander(BraidWord.parse(n, text)) == parse_poly(expected)


@st.composite
def seeds(draw):
    n = draw(st.integers(2, 3))
    letters = draw(st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))),
                            max_size=5))
    return BraidWord(n, tuple(letters))


@SETTINGS
@given(seeds())
def test_markov_witnesses_share_the_seeds_alexander_polynomial(seed):
    sample = enumerate_markov_class(seed, MarkovBounds(2, seed.n + 1, 8))
    expected = alexander(seed)
    for poly, witness in sample.witnesses:
        assert alexander(witness) == expected, (seed.text(), witness.text(), poly)

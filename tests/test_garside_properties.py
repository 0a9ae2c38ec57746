"""Property tests for the Garside normal form (hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.braid import BraidWord
from braidrep.garside import nf_equal, nf_mul, to_normal_form
from braidrep.reps import lkb, rep_apply

REPS = {n: lkb(n) for n in (3, 4)}
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def words(n, max_len):
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_len).map(lambda ls: BraidWord(n, tuple(ls)))


@st.composite
def word_pairs(draw):
    """Two words on the same strands; the second is often the first with a
    cancelling pair or a braid relator spliced in, so both outcomes occur."""
    n = draw(st.sampled_from((3, 4)))
    x = draw(words(n, 6))
    if draw(st.booleans()):
        return x, draw(words(n, 6))
    i = draw(st.integers(1, n - 2))
    k = draw(st.integers(0, len(x)))
    rel = draw(st.sampled_from((
        ((i, 1), (i, -1)),
        ((i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)),
        ((i, 1), (i + 1, 1), (i, 1)),  # not a relator: a near miss
    )))
    return x, BraidWord(n, x.letters[:k] + rel + x.letters[k:])


@SETTINGS
@given(word_pairs())
def test_nf_equal_iff_lkb_images_equal(pair):
    # LKB is faithful (Bigelow 2001, Krammer 2002), so it decides equality too.
    x, y = pair
    assert nf_equal(x, y) == (rep_apply(REPS[x.n], x) == rep_apply(REPS[x.n], y))


@SETTINGS
@given(st.sampled_from((3, 4)).flatmap(lambda n: st.tuples(*[words(n, 8)] * 3)))
def test_nf_mul_associative(triple):
    a, b, c = (to_normal_form(w) for w in triple)
    assert nf_mul(nf_mul(a, b), c) == nf_mul(a, nf_mul(b, c))

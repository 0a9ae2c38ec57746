import random

import pytest

from braidrep.braid import BraidWord, relation_set
from braidrep.garside import (
    NormalForm,
    finishing_set,
    is_left_weighted,
    nf_equal,
    nf_inverse,
    nf_mul,
    perm_delta,
    perm_inverse,
    perm_mult,
    perm_transposition,
    starting_set,
    to_normal_form,
)
from braidrep.reps import lkb, rep_apply
from conftest import rand_classical_word

B = BraidWord.parse


def test_trivial_words():
    assert to_normal_form(B(3, "1 -1")) == NormalForm.identity(3)
    assert to_normal_form(B(4, "")) == NormalForm.identity(4)


def test_half_twist():
    # Oracle: LKB images of sigma1 sigma2 sigma1 and of the half twist agree.
    word = B(3, "1 2 1")
    rep = lkb(3)
    assert rep_apply(rep, word) == rep_apply(rep, B(3, "2 1 2"))
    nf = to_normal_form(word)
    assert nf == NormalForm(3, 1, ())
    assert str(nf) == "D^1"


def test_braid_relation_normal_forms_agree():
    assert nf_equal(B(3, "1 2 1"), B(3, "2 1 2"))
    assert not nf_equal(B(3, "1"), B(3, "2"))
    with pytest.raises(ValueError):
        nf_equal(B(3, "1"), B(4, "1"))
    with pytest.raises(ValueError):
        to_normal_form(B(3, "t1"))


def test_normal_forms_factor_through_relations():
    for n in range(2, 6):
        for rel in relation_set(n, "Bn"):
            assert nf_equal(rel.lhs, rel.rhs), rel.label


def test_descent_sets():
    d3 = perm_delta(3)
    assert starting_set(d3) == {1, 2} == finishing_set(d3)
    assert starting_set((0, 1, 2)) == frozenset()


def test_left_weightedness_of_produced_forms():
    rng = random.Random(101)
    for _ in range(150):
        n = rng.randint(2, 5)
        nf = to_normal_form(rand_classical_word(rng, n, rng.randint(0, 10)))
        if nf.canonical_length() >= 2:
            assert is_left_weighted(nf)


def test_nf_mul_matches_concatenation():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(2, 5)
        x = rand_classical_word(rng, n, rng.randint(0, 8))
        y = rand_classical_word(rng, n, rng.randint(0, 8))
        assert nf_mul(to_normal_form(x), to_normal_form(y)) == to_normal_form(x * y)


def test_nf_mul_associative():
    rng = random.Random(56)
    for _ in range(100):
        n = rng.randint(2, 4)
        a, b, c = (
            to_normal_form(rand_classical_word(rng, n, rng.randint(0, 6)))
            for _ in range(3)
        )
        assert nf_mul(nf_mul(a, b), c) == nf_mul(a, nf_mul(b, c))


def test_inverse_normal_form():
    rng = random.Random(57)
    for _ in range(100):
        n = rng.randint(2, 5)
        x = to_normal_form(rand_classical_word(rng, n, rng.randint(0, 8)))
        assert nf_mul(x, nf_inverse(x)) == NormalForm.identity(n)
        assert nf_mul(nf_inverse(x), x) == NormalForm.identity(n)


def test_word_problem_against_faithful_representation():
    # Soundness and completeness against symbolic LKB equality.
    rng = random.Random(404)
    reps = {n: lkb(n) for n in (2, 3, 4)}
    for _ in range(100):
        n = rng.randint(2, 4)
        x = rand_classical_word(rng, n, rng.randint(0, 10))
        y = rand_classical_word(rng, n, rng.randint(0, 10))
        lkb_equal = rep_apply(reps[n], x) == rep_apply(reps[n], y)
        assert nf_equal(x, y) == lkb_equal, (x.text(), y.text())


def test_normal_form_text():
    nf = to_normal_form(B(4, "1 3"))
    assert str(nf) == "D^0 | 2 1 4 3"


# -- reference: the global fixpoint normalisation the library used to run -------
#
# Slow but simple: a word becomes one factor per letter (every earlier factor
# flipped by Delta at each negative letter), then sweeps fold Delta factors,
# drop trivial ones and left-weight every adjacent pair until nothing moves.


def _ref_flip(p):
    d = perm_delta(len(p))
    return tuple(d[p[d[i]]] for i in range(len(p)))


def _ref_left_weight_pair(a, b):
    n = len(a)
    changed = False
    while True:
        movable = starting_set(b) - finishing_set(a)
        if not movable:
            return a, b, changed
        t = perm_transposition(n, min(movable))
        a = perm_mult(a, t)
        b = perm_mult(t, b)
        changed = True


def _ref_normalize(n, inf, factors):
    ident = tuple(range(n))
    delta = perm_delta(n)
    factors = [f for f in factors if f != ident]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(factors):
            if factors[i] == delta:
                for j in range(i):
                    factors[j] = _ref_flip(factors[j])
                factors.pop(i)
                inf += 1
                changed = True
            elif factors[i] == ident:
                factors.pop(i)
                changed = True
            else:
                i += 1
        for k in range(len(factors) - 1):
            a, b, moved = _ref_left_weight_pair(factors[k], factors[k + 1])
            if moved:
                factors[k], factors[k + 1] = a, b
                changed = True
    return NormalForm(n, inf, tuple(factors))


def _ref_normal_form(word):
    n = word.n
    delta = perm_delta(n)
    inf = 0
    factors = []
    for i, s in word.letters:
        t = perm_transposition(n, i)
        if s > 0:
            factors.append(t)
        else:
            inf -= 1
            factors = [_ref_flip(f) for f in factors]
            factors.append(perm_mult(delta, t))
    return _ref_normalize(n, inf, factors)


def _ref_mul(x, y):
    xf = [_ref_flip(f) for f in x.factors] if y.inf % 2 else list(x.factors)
    return _ref_normalize(x.n, x.inf + y.inf, xf + list(y.factors))


def _ref_inverse(x):
    delta = perm_delta(x.n)
    factors = [perm_mult(delta, perm_inverse(f)) for f in reversed(x.factors)]
    k = len(factors)
    out = [_ref_flip(f) if (x.inf + k - idx - 1) % 2 else f for idx, f in enumerate(factors)]
    return _ref_normalize(x.n, -x.inf - k, out)


def test_agrees_with_fixpoint_reference():
    rng = random.Random(2024)
    for n in range(2, 9):
        for length in (0, 1, 2, 7, 15, 30, 45, 60) * 2:
            x = rand_classical_word(rng, n, length)
            y = rand_classical_word(rng, n, rng.randint(0, 30))
            nx, ny = to_normal_form(x), to_normal_form(y)
            assert nx == _ref_normal_form(x), (n, x.text())
            assert ny == _ref_normal_form(y), (n, y.text())
            assert nf_mul(nx, ny) == _ref_mul(nx, ny), (n, x.text(), y.text())
            assert nf_inverse(nx) == _ref_inverse(nx), (n, x.text())


# -- long words, at the shapes the word-problem benchmark uses --------------------


def _positive_word(p):
    """A positive word for the permutation braid of p: peel off a starting
    generator until nothing is left."""
    p, letters = list(p), []
    while True:
        i = next((i for i in range(len(p) - 1) if p[i] > p[i + 1]), None)
        if i is None:
            return letters
        letters.append((i + 1, 1))
        p[i], p[i + 1] = p[i + 1], p[i]


def _expand(nf):
    """A word for Delta^inf * f_1 ... f_s."""
    delta = _positive_word(perm_delta(nf.n))
    if nf.inf >= 0:
        letters = delta * nf.inf
    else:
        letters = [(i, -s) for i, s in reversed(delta)] * -nf.inf
    for f in nf.factors:
        letters += _positive_word(f)
    return BraidWord(nf.n, tuple(letters))


def _rewrite(rng, word, moves):
    """An equal word: insert cancelling pairs and conjugated braid relators,
    and swap adjacent far-apart letters."""
    n, letters = word.n, list(word.letters)
    for _ in range(moves):
        k = rng.randint(0, len(letters))
        i = rng.randint(1, n - 1)
        kind = rng.randrange(3)
        if kind == 0:
            s = rng.choice((1, -1))
            letters[k:k] = [(i, s), (i, -s)]
        elif kind == 1 and n >= 3:
            i = min(i, n - 2)
            rel = [(i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)]
            letters[k:k] = rel if rng.random() < 0.5 else [(j, -s) for j, s in reversed(rel)]
        elif 0 < k < len(letters) and abs(letters[k - 1][0] - letters[k][0]) >= 2:
            letters[k - 1], letters[k] = letters[k], letters[k - 1]
    return BraidWord(n, tuple(letters))


@pytest.mark.parametrize("n,length", [(4, 200), (8, 120)])
def test_long_words_at_benchmark_shapes(n, length):
    rng = random.Random(n * 1000 + length)
    for _ in range(3):
        word = rand_classical_word(rng, n, length)
        nf = to_normal_form(word)
        assert is_left_weighted(nf)
        same = to_normal_form(_rewrite(rng, word, 40))
        assert str(same) == str(nf)
        k = rng.randrange(length)
        i, s = word.letters[k]
        near = word.letters[:k] + ((i, -s),) + word.letters[k + 1:]
        assert to_normal_form(BraidWord(n, near)) != nf


def test_round_trip_through_expanded_word():
    rng = random.Random(88)
    for _ in range(4):
        nf = to_normal_form(rand_classical_word(rng, 8, 200))
        assert nf.canonical_length() > 10
        assert to_normal_form(_expand(nf)) == nf

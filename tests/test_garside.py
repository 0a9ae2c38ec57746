import random
from collections import Counter

import pytest

from braidrep import garside
from braidrep.braid import BraidWord, relation_set
from braidrep.garside import (
    NormalForm,
    Perm,
    nf_equal,
    nf_inverse,
    nf_mul,
    perm_delta,
    perm_identity,
    perm_inverse,
    perm_mult,
    to_normal_form,
)
from braidrep.reps import lkb, rep_apply
from conftest import rand_classical_word, reduced_classical_word as _reduced_word

B = BraidWord.parse


# -- descent sets and the defining condition, checked directly -------------------


def perm_transposition(n: int, i: int) -> Perm:
    """The permutation of sigma_i (1-based generator index)."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def starting_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i that left-divide the permutation braid of p."""
    return frozenset(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def finishing_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i that right-divide the permutation braid of p."""
    return starting_set(perm_inverse(p))


def canonical_length(x: NormalForm) -> int:
    return len(x.factors)


def is_left_weighted(x: NormalForm) -> bool:
    """Check the defining condition on every adjacent factor pair."""
    ident, delta = perm_identity(x.n), perm_delta(x.n)
    return all(f != ident and f != delta for f in x.factors) and all(
        starting_set(b) <= finishing_set(a) for a, b in zip(x.factors, x.factors[1:]))


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
        if canonical_length(nf) >= 2:
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


# -- the left-weighting kernel against the reference slide loop ------------------


def _kernel_agrees(a, b):
    """_left_weight_pair(a, b) is the reference's pair, or None where the
    reference slides nothing."""
    ref_a, ref_b, moved = _ref_left_weight_pair(a, b)
    got = garside._left_weight_pair(a, b)
    assert got == ((ref_a, ref_b) if moved else None), (a, b)
    return got


def test_left_weight_pair_matches_reference():
    rng = random.Random(2207)
    outcomes = Counter()
    for n in range(2, 10):
        ident, delta = perm_identity(n), perm_delta(n)
        for _ in range(150):
            a, b = tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))
            got = _kernel_agrees(a, b)
            outcomes[got is None] += 1
            if got is not None:
                assert _kernel_agrees(*got) is None  # a left-weighted pair stays put
            _kernel_agrees(_ref_flip(a), _ref_flip(b))
            _kernel_agrees(ident, b)
            _kernel_agrees(a, ident)
            _kernel_agrees(delta, b)
            _kernel_agrees(a, delta)
        for i in range(1, n):
            near_delta = perm_mult(delta, perm_transposition(n, i))  # Delta sigma_i^-1
            for j in range(1, n):
                s_j = perm_transposition(n, j)
                _kernel_agrees(s_j, near_delta)
                _kernel_agrees(near_delta, s_j)
                _kernel_agrees(near_delta, _ref_flip(near_delta))
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("n,i,j", [(20, 1, 3), (20, 10, 19), (31, 30, 1), (40, 7, 22)])
def test_left_weight_pair_cascades_at_large_n(n, i, j):
    """sigma_j against Delta sigma_i^-1: all but at most one crossing of the
    second factor slides into the first, O(n^2) slides that keep stepping back."""
    near_delta = perm_mult(perm_delta(n), perm_transposition(n, i))
    a, b = _kernel_agrees(perm_transposition(n, j), near_delta)
    assert len(starting_set(b)) <= 1 and len(finishing_set(a)) >= n - 2


# -- simple runs: letters enter the product one maximal simple run at a time ----

RUN_WORDS = [
    (2, "1 1"), (3, "1 1"), (2, "-1 -1 -1"),
    (3, "1 2 1 2 1"), (4, "1 2 1 2 1"), (3, "-1 -2 -1 -2"), (3, "2 1 2 1"),
    (5, "1 2 3 4"), (5, "4 3 2 1 4 3 2 1"), (6, "1 3 5 2 4"), (5, "-1 -3 -2 -4"),
    (3, "1 2 -1 -2 1 2 -1 -2"), (4, "1 1 -2 -2 3 3 -1 -1"), (4, "-3 -2 -1 1 2 3"),
]


def _run_heavy_word(rng, n, runs):
    """Runs of 1 to 2n letters of one sign; half the time the next run keeps
    the sign, so one same-sign stretch spans several simple runs."""
    letters, sign = [], rng.choice((1, -1))
    for _ in range(runs):
        letters += [(rng.randint(1, n - 1), sign) for _ in range(rng.randint(1, 2 * n))]
        if rng.random() < 0.5:
            sign = -sign
    return BraidWord(n, tuple(letters))


def _check_against_reference(word):
    nf = to_normal_form(word)
    assert nf == _ref_normal_form(word), (word.n, word.text())
    assert nf_inverse(nf) == _ref_inverse(nf), (word.n, word.text())
    return nf


@pytest.mark.parametrize("n,text", RUN_WORDS)
def test_simple_runs_agree_with_reference(n, text):
    word = B(n, text)
    nf = _check_against_reference(word)
    inverse = _check_against_reference(word.inverse())
    assert nf_mul(nf, inverse) == _ref_mul(nf, inverse) == NormalForm.identity(n)


def test_half_twist_runs_agree_with_reference():
    for n in range(2, 9):
        delta = BraidWord(n, tuple(_positive_word(perm_delta(n))))
        assert _check_against_reference(delta) == NormalForm(n, 1, ())
        assert _check_against_reference(delta.inverse()) == NormalForm(n, -1, ())


def test_run_heavy_words_agree_with_reference():
    rng = random.Random(2025)
    for n in range(2, 9):
        for runs in (1, 2, 5, 12) * 2:
            x = _check_against_reference(_run_heavy_word(rng, n, runs))
            y = _check_against_reference(_run_heavy_word(rng, n, rng.randint(1, 6)))
            assert nf_mul(x, y) == _ref_mul(x, y), (n, x, y)


# _left_weight_pair calls for _reduced_word(Random(8200), 8, 200) when every
# letter entered the product as a step of its own.
PER_LETTER_CALLS_8_200 = 2099


def test_a_simple_run_enters_in_one_step(monkeypatch):
    calls = []
    inner = garside._left_weight_pair
    monkeypatch.setattr(garside, "_left_weight_pair", lambda a, b: calls.append(1) or inner(a, b))
    delta = BraidWord(6, tuple(_positive_word(perm_delta(6))))
    assert len(delta.letters) == 15
    assert to_normal_form(delta) == NormalForm(6, 1, ())
    assert to_normal_form(delta.inverse()) == NormalForm(6, -1, ())
    assert not calls
    word = _reduced_word(random.Random(8200), 8, 200)
    assert to_normal_form(word) == _ref_normal_form(word)
    assert 0 < len(calls) < PER_LETTER_CALLS_8_200


def test_a_pair_is_left_weighted_at_most_twice_per_form(monkeypatch):
    """_right_multiply keeps a pair's result from its second sighting on, so no
    factor pair reaches _left_weight_pair a third time within one form, and the
    forms still equal the fixpoint reference."""
    seen = Counter()
    inner = garside._left_weight_pair
    monkeypatch.setattr(garside, "_left_weight_pair",
                        lambda a, b: seen.update([(a, b)]) or inner(a, b))

    peaks = []

    def once(fn, *args):
        seen.clear()
        result = fn(*args)
        peaks.append(max(seen.values(), default=0))
        assert peaks[-1] <= 2, (fn.__name__, args)
        return result

    rng = random.Random(2026)
    for n in range(2, 9):
        words = [_run_heavy_word(rng, n, 20)]
        if n in (3, 4, 5):
            words.append(_reduced_word(rng, n, 300))
        forms = [once(to_normal_form, word) for word in words]
        for word, nf in zip(words, forms):
            assert nf == _ref_normal_form(word), (n, word.text())
            assert once(nf_inverse, nf) == _ref_inverse(nf), (n, word.text())
        assert once(nf_mul, forms[-1], forms[0]) == _ref_mul(forms[-1], forms[0]), n
    assert 2 in peaks


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
        assert canonical_length(nf) > 10
        assert to_normal_form(_expand(nf)) == nf

import random
from collections import deque

import pytest

from braidrep.braid import BraidWord, conjugate, destabilize, free_reduce, stabilize
from braidrep.garside import to_normal_form
from braidrep.invariants import (
    MarkovBounds,
    MarkovClassSample,
    charpoly_invariant,
    enumerate_markov_class,
    verify_reference_examples,
)
from braidrep.ring import canonical_string, parse_poly, variable
from conftest import rand_classical_word

q = variable("q")
t = variable("t")
w = variable("w")
B = BraidWord.parse


def test_reference_examples_all_match():
    report = verify_reference_examples()
    assert report.all_match, report.summary()
    assert len(report.checks) == 7
    for check in report.checks:
        assert check.diff().is_zero()


def test_trivial_knot_and_friends():
    assert charpoly_invariant(3, B(3, "1 2")).poly == q ** 6 * t ** 2 - w ** 3
    hopf = charpoly_invariant(3, B(3, "1 1 2")).poly
    assert hopf == -q ** 9 * t ** 3 - w ** 3 + q ** 3 * t * w ** 2 + q ** 6 * t ** 2 * w
    assert charpoly_invariant(3, B(3, "1 1 1 2")).poly == q ** 12 * t ** 4 - w ** 3


def test_mixed_sign_values_agree():
    a = charpoly_invariant(3, B(3, "-1 2")).poly
    b = charpoly_invariant(3, B(3, "1 -2")).poly
    assert a == b


def test_negative_braid_value():
    f = charpoly_invariant(3, B(3, "-1 -2")).poly
    assert f * q ** 6 * t ** 2 == -(q ** 6) * t ** 2 * w ** 3 + 1


def test_invariant_degree_and_leading_coefficient():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = n * (n - 1) // 2
        word = rand_classical_word(rng, n, rng.randint(0, 6))
        poly = charpoly_invariant(n, word).poly
        assert poly.degree("w") == m
        top = {mono for mono in poly.terms
               if (mono[2] if len(mono) > 2 else 0) == m}
        assert len(top) == 1
        mono = top.pop()
        assert poly.terms[mono] == (-1) ** m and sum(mono) == m


def test_conjugation_invariance_explicit():
    beta = B(3, "2 2 1")
    alpha = B(3, "1 2")
    assert (
        charpoly_invariant(3, conjugate(beta, alpha)).poly
        == charpoly_invariant(3, beta).poly
    )


def test_conjugation_invariance_random():
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(2, 4)
        beta = rand_classical_word(rng, n, rng.randint(1, 5))
        alpha = rand_classical_word(rng, n, rng.randint(1, 3))
        assert (
            charpoly_invariant(n, conjugate(beta, alpha)).poly
            == charpoly_invariant(n, beta).poly
        )


def test_rejects_singular_words():
    with pytest.raises(ValueError):
        charpoly_invariant(3, B(3, "t1"))


def test_markov_stabilization_reaches_trivial_knot_polynomial():
    sample = enumerate_markov_class(B(2, "1"), MarkovBounds(1, 3, 8))
    assert "q^6*t^2 - w^3" in sample.polys
    witness = sample.witness("q^6*t^2 - w^3")
    assert witness.n == 3


def test_markov_depth_zero():
    sample = enumerate_markov_class(B(2, "1"), MarkovBounds(0, 3, 8))
    assert sample.polys == ("q^2*t - w",)


def test_markov_deterministic_and_monotone():
    seed = B(2, "1")
    small = enumerate_markov_class(seed, MarkovBounds(1, 3, 8))
    again = enumerate_markov_class(seed, MarkovBounds(1, 3, 8))
    assert small.witnesses == again.witnesses
    bigger = enumerate_markov_class(seed, MarkovBounds(2, 3, 10))
    assert set(small.polys) <= set(bigger.polys)
    deeper = enumerate_markov_class(seed, MarkovBounds(2, 4, 10))
    assert set(bigger.polys) <= set(deeper.polys)


def test_markov_conjugates_add_no_new_polynomials():
    # Stabilization is blocked by max_strands == n and no reachable word has
    # the destabilization shape, so only conjugates are visited and a single
    # polynomial remains.
    seed = B(3, "1 1 2 -2")
    base = canonical_string(charpoly_invariant(3, seed).poly)
    sample = enumerate_markov_class(seed, MarkovBounds(2, 3, 10))
    assert sample.polys == (base,)


def test_markov_witnesses_reproduce_their_polynomials():
    sample = enumerate_markov_class(B(2, "1"), MarkovBounds(2, 3, 10))
    for poly_text, witness in sample.witnesses:
        value = charpoly_invariant(witness.n, witness).poly
        assert canonical_string(value) == poly_text
        assert parse_poly(poly_text) == value


def _reference_markov_class(seed, bounds):
    # Plain BFS over Markov moves that computes the invariant of every state.
    seen = {(seed.n, to_normal_form(seed))}
    witnesses = {}
    queue = deque([(seed, 0)])
    while queue:
        word, depth = queue.popleft()
        key = canonical_string(charpoly_invariant(word.n, word).poly)
        witnesses.setdefault(key, word)
        if depth >= bounds.depth:
            continue
        n = word.n
        children = [
            free_reduce(conjugate(word, BraidWord(n, ((i, s),))))
            for i in range(1, n) for s in (1, -1)
        ]
        if n < bounds.max_strands:
            children += [stabilize(word, 1), stabilize(word, -1)]
        top = [k for k, (i, _) in enumerate(word.letters) if i == n - 1]
        if n >= 3 and top == [len(word.letters) - 1]:
            children.append(destabilize(word))
        for child in children:
            state = (child.n, to_normal_form(child))
            if len(child) <= bounds.max_word_length and state not in seen:
                seen.add(state)
                queue.append((child, depth + 1))
    return MarkovClassSample(seed, bounds, tuple(sorted(witnesses.items())))


def test_markov_inheritance_matches_reference_bfs():
    rng = random.Random(314)
    cases = [(B(3, "1 2"), MarkovBounds(2, 4, 8)), (B(4, "1 2 3"), MarkovBounds(2, 4, 6))]
    for _ in range(6):
        n = rng.randint(2, 4)
        word = rand_classical_word(rng, n, rng.randint(1, 3))
        if n >= 3 and rng.random() < 0.5:
            # end on the only sigma_{n-1} so that destabilization is reachable
            head = rand_classical_word(rng, n - 1, rng.randint(0, 2))
            word = BraidWord(n, head.letters + ((n - 1, rng.choice((1, -1))),))
        cases.append((word, MarkovBounds(rng.randint(1, 2), 4, len(word) + 3)))
    destabilized = False
    for seed, bounds in cases:
        sample = enumerate_markov_class(seed, bounds)
        assert sample == _reference_markov_class(seed, bounds)
        destabilized |= any(w.n < seed.n for _, w in sample.witnesses)
    assert destabilized


def test_markov_bounds_reject_negative_values():
    with pytest.raises(ValueError):
        MarkovBounds(-1, 3, 8)
    with pytest.raises(ValueError):
        MarkovBounds(1, 3, -1)
    for max_strands in (-1, 0, 1):
        with pytest.raises(ValueError, match="max_strands"):
            MarkovBounds(1, max_strands, 8)


def test_markov_seed_must_lie_within_bounds():
    with pytest.raises(ValueError, match="max_strands"):
        enumerate_markov_class(B(3, "1"), MarkovBounds(1, 2, 8))
    with pytest.raises(ValueError, match="max_word_length"):
        enumerate_markov_class(B(3, "1 2 1"), MarkovBounds(1, 3, 2))
    assert enumerate_markov_class(B(3, "1 2"), MarkovBounds(0, 3, 2)).polys

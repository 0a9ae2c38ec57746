import pytest

from braidrep.braid import (
    BraidWord,
    FreeAuto,
    artin_generator,
    artin_of_braid,
    auto_apply,
    auto_compose,
    conjugate,
    destabilize,
    free_reduce,
    relation_set,
    sigma,
    stabilize,
    tau,
    word_image,
)


def test_parse_and_text():
    word = BraidWord.parse(3, "1 2 -1 t1")
    assert word.letters == ((1, 1), (2, 1), (1, -1), (1, 0))
    assert word.text() == "1 2 -1 t1"
    assert BraidWord.parse(3, "").letters == ()
    assert not word.is_classical
    assert BraidWord.parse(3, "1 -2").is_classical


def test_parse_rejects_bad_tokens():
    for bad in ("0", "x", "t0", "t-1", "3"):
        with pytest.raises(ValueError):
            BraidWord.parse(3, bad)
    with pytest.raises(ValueError):
        BraidWord(1, ())


def test_inverse_and_concat():
    word = BraidWord.parse(3, "1 -2")
    assert word.inverse().text() == "2 -1"
    assert (word * word.inverse()).text() == "1 -2 2 -1"
    with pytest.raises(ValueError):
        BraidWord.parse(3, "t1").inverse()


def test_relation_set_small():
    rs = relation_set(2, "Bn")
    assert len(rs) == 2
    assert all(r.label.startswith("inv") for r in rs)
    rs3 = relation_set(3, "SMn")
    pairs = {(r.lhs.text(), r.rhs.text()) for r in rs3}
    assert ("t1 1", "1 t1") in pairs


def test_relation_set_counts_by_enumeration():
    # Independent index enumeration per relation family.
    for n in range(2, 7):
        far = sum(1 for i in range(1, n) for j in range(i + 2, n))
        expected_bn = 2 * (n - 1) + (n - 2) + far
        assert len(relation_set(n, "Bn")) == expected_bn
        mixed_far = sum(
            1 for i in range(1, n) for j in range(1, n) if abs(i - j) >= 2
        )
        expected_smn = expected_bn + far + mixed_far + (n - 1) + 2 * (n - 2)
        assert len(relation_set(n, "SMn")) == expected_smn


def test_relation_set_rejects_bad_input():
    with pytest.raises(ValueError):
        relation_set(1, "Bn")
    with pytest.raises(ValueError):
        relation_set(3, "Xn")


def test_artin_generator_images():
    """sigma_i: x_i -> x_i x_(i+1) x_i^-1, x_(i+1) -> x_i; sigma_i^-1: x_i -> x_(i+1),
    x_(i+1) -> x_(i+1)^-1 x_i x_(i+1); both fix every other strand and are inverse."""
    for n in range(2, 7):
        identity = FreeAuto.identity(n)
        for i in range(1, n):
            up, down = artin_generator(n, i), artin_generator(n, i, -1)
            x, y = (i, 1), (i + 1, 1)
            assert auto_apply(up, (x,)) == (x, y, (i, -1)) and auto_apply(up, (y,)) == (x,)
            assert auto_apply(down, (x,)) == (y,)
            assert auto_apply(down, (y,)) == ((i + 1, -1), x, y)
            for g in set(range(1, n + 1)) - {i, i + 1}:
                assert auto_apply(up, ((g, 1),)) == auto_apply(down, ((g, 1),)) == ((g, 1),)
            assert auto_compose(up, down) == identity and auto_compose(down, up) == identity


def test_artin_satisfies_braid_relations():
    for n in range(2, 7):
        for rel in relation_set(n, "Bn"):
            assert artin_of_braid(rel.lhs) == artin_of_braid(rel.rhs), rel.label


def test_markov_moves():
    word = BraidWord.parse(2, "1")
    up = stabilize(word)
    assert up.n == 3 and up.text() == "1 2"
    assert destabilize(up) == word
    down = stabilize(word, -1)
    assert destabilize(down) == word
    conj = conjugate(BraidWord.parse(3, "1 2"), BraidWord.parse(3, "2"))
    assert conj.text() == "-2 1 2 2"
    with pytest.raises(ValueError):
        destabilize(conj)
    with pytest.raises(ValueError):
        destabilize(BraidWord.parse(2, "1"))
    with pytest.raises(ValueError):
        stabilize(BraidWord.parse(2, "t1"))


def test_stabilize_destabilize_round_trip():
    import random

    from conftest import rand_classical_word

    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 5)
        word = rand_classical_word(rng, n, rng.randint(0, 6))
        for s in (1, -1):
            assert destabilize(stabilize(word, s)) == word


def test_free_reduce():
    assert free_reduce(BraidWord.parse(2, "1 -1")).letters == ()
    assert free_reduce(BraidWord.parse(3, "1 2 -2 1")).text() == "1 1"
    with pytest.raises(ValueError):
        free_reduce(BraidWord.parse(3, "t1"))


class Concat:
    """A product that records its factors in order."""

    def __init__(self, factors):
        self.factors = factors

    def __mul__(self, other):
        return Concat(self.factors + other.factors)


def test_word_image_folds_left_to_right_and_builds_the_unit_only_for_the_empty_word():
    units = []
    word = BraidWord.parse(4, "1 t2 -3 1")
    image = word_image(word, lambda letter: Concat((letter,)), lambda: units.append(1))
    assert image.factors == word.letters and units == []
    assert word_image(BraidWord(4), lambda letter: Concat((letter,)),
                      lambda: units.append(1) or "unit") == "unit"
    assert units == [1]


def test_artin_of_braid_builds_only_the_letters_it_uses(monkeypatch):
    from braidrep import braid
    calls = []
    build = braid.artin_generator
    monkeypatch.setattr(braid, "artin_generator",
                        lambda n, i, s: calls.append((i, s)) or build(n, i, s))
    word = BraidWord.parse(1000, "1 -2 1 1 -2")
    assert artin_of_braid(word) == auto_compose(
        auto_compose(build(1000, 1), build(1000, 2, -1)),
        auto_compose(auto_compose(build(1000, 1), build(1000, 1)), build(1000, 2, -1)))
    assert sorted(calls) == [(1, 1), (2, -1)]


def test_free_automorphisms_multiply_by_composition():
    a1, a2 = artin_generator(3, 1), artin_generator(3, 2, -1)
    assert a1 * a2 == auto_compose(a1, a2)

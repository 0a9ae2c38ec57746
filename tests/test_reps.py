import random
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidrep import reps
from braidrep.braid import BraidWord, relation_set
from braidrep.garside import NormalForm, nf_equal, nf_inverse, to_normal_form
from braidrep.matrix import ONES, RingMatrix, sparse_mul, sparse_rows
from braidrep.reps import (
    DegeneratePointError,
    GroupAlgebraElem,
    MatrixRep,
    _resolve_param,
    birman_image,
    burau,
    burau_ext,
    det_tau_all_equal,
    det_tau_b4_diff,
    det_tau_symbolic,
    exterior_square_burau,
    lkb,
    lkb_ext,
    pair_basis,
    rep_apply,
    singular_extension_by_affine_combination,
    solve_extension_space,
    verify_group_algebra_relations,
    verify_relations,
    wedge_square,
)
from braidrep.ring import LaurentPoly, RatFunc, integer, variable
from conftest import rand_classical_word, rand_poly, zero_matrix

q, t, u, v, a = (variable(x) for x in "qtuva")
B = BraidWord.parse


# -- Burau ----------------------------------------------------------------------

def test_burau_generator_golden():
    rep = burau(2)
    assert rep.sigma_image(1) == RingMatrix([[1 - t, t], [1, 0]])
    assert rep_apply(rep, B(2, "1 -1")) == RingMatrix.identity(2)


def test_burau_relations():
    for n in range(2, 7):
        assert verify_relations(burau(n)).all_ok


def test_burau_in_another_variable():
    rep = burau(3, "q")
    assert rep.sigma_image(1) == RingMatrix(
        [[1 - q, q, 0], [1, 0, 0], [0, 0, 1]]
    )


def test_burau_ext_golden_and_relations():
    rep = burau_ext(2)
    assert rep.tau_image(1) == RingMatrix([[1 - t + a * t, t - a * t], [1 - a, a]])
    assert burau_ext(3, 1).tau_image(1) == RingMatrix.identity(3)
    for n in range(2, 6):
        assert verify_relations(burau_ext(n)).all_ok


def test_burau_ext_affine_identity():
    # tau image equals (1 - a) * sigma image + a * identity, symbolically.
    for n in range(2, 6):
        rep = burau_ext(n)
        base = burau(n)
        ident = RingMatrix.identity(n)
        for i in range(1, n):
            combo = base.sigma_image(i).scalar_mul(1 - a) + ident.scalar_mul(a)
            assert rep.tau_image(i) - combo == zero_matrix(n)


def test_burau_ext_rational_parameter():
    rep = burau_ext(2, Fraction(1, 3))
    assert rep.ring == "ratfunc"
    assert verify_relations(rep).all_ok


# -- LKB -------------------------------------------------------------------------

LKB3 = {
    1: RingMatrix([[t * q ** 2, 0, 0], [t * q * (q - 1), 1 - q, q], [0, 1, 0]]),
    2: RingMatrix([[1 - q, q, q * (q - 1)], [1, 0, 0], [0, 0, t * q ** 2]]),
}

LKB4 = {
    1: RingMatrix(
        [
            [t * q ** 2, 0, 0, 0, 0, 0],
            [t * q * (q - 1), 1 - q, 0, q, 0, 0],
            [t * q * (q - 1), 0, 1 - q, 0, q, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    ),
    2: RingMatrix(
        [
            [1 - q, q, 0, q * (q - 1), 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, t * q ** 2, 0, 0],
            [0, 0, 0, t * q * (q - 1), 1 - q, q],
            [0, 0, 0, 0, 1, 0],
        ]
    ),
    3: RingMatrix(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1 - q, q, 0, 0, q * (q - 1)],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1 - q, q, q * (q - 1)],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, t * q ** 2],
        ]
    ),
}


def test_lkb_generator_goldens():
    rep3 = lkb(3)
    for i, expected in LKB3.items():
        assert rep3.sigma_image(i) == expected, f"n=3 sigma{i}"
    rep4 = lkb(4)
    for i, expected in LKB4.items():
        assert rep4.sigma_image(i) == expected, f"n=4 sigma{i}"


def _krammer_terms(i, k, l):
    """Krammer's image of v_{kl} under sigma_i as (pair, entry) terms, pairs ascending."""
    if not {k, l} & {i, i + 1}:
        return [((k, l), 1)]
    if k == i + 1:
        return [((i, l), 1)]
    if (k, l) == (i, i + 1):
        return [((i, i + 1), t * q ** 2)]
    if k == i:
        return [((i, i + 1), t * q * (q - 1)), ((i, l), 1 - q), ((i + 1, l), q)]
    if l == i + 1:
        return [((k, i), 1)]
    return [((k, i), 1 - q), ((k, i + 1), q), ((i, i + 1), q * (q - 1))]


@pytest.mark.parametrize("n", range(2, 10))
def test_lkb_rows_follow_krammers_formula(n):
    """Every stored sigma_i row equals Krammer's formula, entry by entry and in
    column order, at every accepted strand count."""
    basis = pair_basis(n)
    for i in range(1, n):
        for (k, l), row in zip(basis, lkb(n).letter_rows((i, 1)), strict=True):
            terms = _krammer_terms(i, k, l)
            assert list(row) == [basis.index(pair) for pair, _ in terms], (n, i, k, l)
            assert list(row.values()) == [entry for _, entry in terms], (n, i, k, l)


def test_lkb_inverse_by_multiplication():
    rep = lkb(3)
    for i in (1, 2):
        prod = rep.sigma_image(i) * rep.letter_image((i, -1))
        assert prod == RingMatrix.identity(3)


def test_generators_satisfy_their_minimal_polynomials():
    """Burau's (S - 1)(S + t) = 0 and LKB's (S - 1)(S + q)(S - tq^2) = 0 hold
    for every generator, and each stored inverse is the inverse."""
    for n in range(2, 10):
        for rep, roots in ((burau(n), (1, -t)), (lkb(n), (1, -q, t * q ** 2))):
            one = RingMatrix.identity(rep.dim)
            for i in range(1, n):
                s = rep.sigma_image(i)
                product = one
                for root in roots:
                    product = product * (s - root * one)
                assert product.is_zero(), (rep.name, n, i)
                assert s * rep.letter_image((i, -1)) == one, (rep.name, n, i)


def test_lkb_generator_determinants():
    """det LKB(sigma_i) = (-q)^(n-2) * t*q^2 and det LKB(sigma_i^-1) is its
    inverse: the monomial from which the invariant's mirror takes det(A)."""
    for n in range(2, 10):
        rep = lkb(n)
        det = (-q) ** (n - 2) * t * q ** 2
        det_inv = (-1) ** n * variable("q", -n) * variable("t", -1)
        assert det * det_inv == 1
        for i in range(1, n):
            assert rep.sigma_image(i).det() == det, (n, i)
            assert rep.letter_image((i, -1)).det() == det_inv, (n, i)


def test_lkb_relations():
    for n in range(2, 6):
        assert verify_relations(lkb(n)).all_ok


def test_lkb_ext_tau_goldens_n3():
    rep = lkb_ext(3)
    assert rep.tau_image(1) == RingMatrix(
        [
            [u * q ** 2 * t + v, 0, 0],
            [u * t * q * (q - 1), u * (1 - q) + v, u * q],
            [0, u, v],
        ]
    )
    assert rep.tau_image(2) == RingMatrix(
        [
            [u * (1 - q) + v, u * q, u * q * (q - 1)],
            [u, v, 0],
            [0, 0, u * q ** 2 * t + v],
        ]
    )


def test_lkb_ext_tau_goldens_n4():
    rep = lkb_ext(4)
    ident = RingMatrix.identity(6)
    for i in (1, 2, 3):
        expected = LKB4[i].scalar_mul(u) + ident.scalar_mul(v)
        assert rep.tau_image(i) == expected
    # The third singular image written out entrywise.
    assert rep.tau_image(3) == RingMatrix(
        [
            [u + v, 0, 0, 0, 0, 0],
            [0, u * (1 - q) + v, u * q, 0, 0, u * q * (q - 1)],
            [0, u, v, 0, 0, 0],
            [0, 0, 0, u * (1 - q) + v, u * q, u * q * (q - 1)],
            [0, 0, 0, u, v, 0],
            [0, 0, 0, 0, 0, u * t * q ** 2 + v],
        ]
    )


def test_lkb_ext_unit_parameters_recover_lkb():
    rep = lkb_ext(3, 1, 0)
    base = lkb(3)
    for i in (1, 2):
        assert rep.tau_image(i) == base.sigma_image(i)


def test_lkb_ext_relations_symbolic():
    for n in (2, 3, 4):
        assert verify_relations(lkb_ext(n)).all_ok


def test_lkb_ext_rational_parameters():
    rep = lkb_ext(3, Fraction(1, 2), Fraction(2, 3))
    assert rep.ring == "ratfunc"
    assert verify_relations(rep).all_ok
    half = lkb_ext(3, Fraction(1, 2))
    assert all(half.letter_image((i, -1)) == lkb(3).letter_image((i, -1)) for i in (1, 2))


# Zero and unit parameters: the taus equal the affine formula coefficient for
# coefficient, with the same ring and the same text, including all-zero
# parameters, which give the zero matrix over the Laurent ring.
ZERO_PARAMETER_CASES = [
    # (extension, base, coefficient of S_i, coefficient of I)
    (lambda n: burau_ext(n, 0), burau, 1, 0),
    (lambda n: burau_ext(n, Fraction(0)), burau, 1, 0),
    (lambda n: burau_ext(n, 1), burau, 0, 1),
    (lambda n: lkb_ext(n, 0, 0), lkb, 0, 0),
    (lambda n: lkb_ext(n, Fraction(0), Fraction(0)), lkb, 0, 0),
    (lambda n: lkb_ext(n, 0, Fraction(1, 2)), lkb, 0, Fraction(1, 2)),
    (lambda n: lkb_ext(n, Fraction(1, 2), 0), lkb, Fraction(1, 2), 0),
]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("case", range(len(ZERO_PARAMETER_CASES)))
def test_zero_parameters_match_the_affine_formula(n, case):
    build, base_of, x, y = ZERO_PARAMETER_CASES[case]
    rep, base = build(n), base_of(n)
    ident = RingMatrix.identity(base.dim)
    expected = [base.sigma_image(i).scalar_mul(x) + ident.scalar_mul(y) for i in range(1, n)]
    assert rep.ring == expected[0].ring
    assert [rep.tau_image(i).to_json_dict() for i in range(1, n)] == \
        [m.to_json_dict() for m in expected]
    _assert_entries_in_the_ring(rep)


def _assert_entries_in_the_ring(rep):
    """Every stored entry, crossings' included, is Laurent, and a tau's rows are
    the representation's scale times its image; every letter image holds
    entries of the representation's ring."""
    kind = LaurentPoly if rep.ring == "laurent" else RatFunc
    assert rep.ring == "ratfunc" or rep.scale == 1
    for letter, rows in rep.rows.items():
        assert all(type(e) is LaurentPoly for row in rows for e in row.values()), rep.name
        image = rep.letter_image(letter)
        assert all(type(e) is kind for row in image.sparse for e in row.values()), rep.name
        assert rows == image.scalar_mul(rep.scale if letter[1] == 0 else 1).sparse, \
            (rep.name, letter)


def test_affine_extension_with_zero_coefficients():
    base = burau(3)
    zero = singular_extension_by_affine_combination(base, 0, 0, 0)
    assert zero.ring == "laurent"
    assert all(m == zero_matrix(3) and m.ring == "laurent"
               for m in map(zero.tau_image, (1, 2)))
    inverse_only = singular_extension_by_affine_combination(base, 0, Fraction(2, 3), 0)
    assert inverse_only.ring == "ratfunc"
    for i in (1, 2):
        assert inverse_only.tau_image(i) == base.letter_image((i, -1)).scalar_mul(Fraction(2, 3))


@pytest.fixture
def inverse_calls(monkeypatch):
    """The matrices passed to RingMatrix.inverse while the test runs."""
    calls = []
    inverse = RingMatrix.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(RingMatrix, "inverse", counting)
    return calls


def test_each_generator_inverted_once(inverse_calls):
    """A cold build forms each generator's inverse once, from its minimal
    polynomial, so RingMatrix.inverse is never called."""
    calls = inverse_calls
    for build in (lkb, lkb_ext, exterior_square_burau, burau_ext,
                  lambda n: singular_extension_by_affine_combination(burau(n))):
        for cached in (burau, lkb, exterior_square_burau):
            cached.cache_clear()
        calls.clear()
        build(4)
        assert calls == []


@pytest.mark.parametrize("build", [lkb, lkb_ext])
def test_rebuild_inverts_nothing(inverse_calls, build):
    build(4)
    inverse_calls.clear()
    build(4)
    assert inverse_calls == []


@pytest.fixture
def from_sparse_calls(monkeypatch):
    """The sparse rows passed to RingMatrix.from_sparse while the test runs."""
    calls = []
    from_sparse = RingMatrix.from_sparse

    def counting(rows, ring):
        calls.append(rows)
        return from_sparse(rows, ring)

    monkeypatch.setattr(RingMatrix, "from_sparse", staticmethod(counting))
    return calls


def test_no_build_densifies(from_sparse_calls, dense_views):
    """Cold builds store sparse rows only and form no matrix, dense or sparse;
    two equal builds compare equal and hash alike, and one corrupted letter
    makes a representation unequal."""
    for build in (burau, lkb, exterior_square_burau, burau_ext, lkb_ext,
                  lambda n: burau_ext(n, Fraction(1, 3)), lambda n: lkb_ext(n, Fraction(1, 2)),
                  lambda n: lkb_ext(n, 2, -1),
                  lambda n: singular_extension_by_affine_combination(lkb(n), 1, Fraction(-2, 3))):
        for cached in (burau, lkb, exterior_square_burau):
            cached.cache_clear()
        build(4)
    assert from_sparse_calls == [] and dense_views == []
    x, y = lkb_ext(3, 2, -1), lkb_ext(3, 2, -1)
    assert x is not y and x == y and hash(x) == hash(y)
    bad = [dict(row) for row in x.letter_rows((1, 0))]
    bad[0][1] = bad[0].get(1, integer(0)) + 1
    assert MatrixRep(x.name, x.n, x.dim, x.ring, {**x.rows, (1, 0): bad}) != x


def test_extension_shares_its_base_crossing_rows():
    """Every extension reuses the base's sparse crossing rows, also over the
    fraction field, where only its taus carry the scale."""
    for letter in ((1, 1), (3, -1)):
        assert lkb_ext(4).letter_rows(letter) is lkb(4).letter_rows(letter)
        assert burau_ext(4).letter_rows(letter) is burau(4, "t").letter_rows(letter)
        assert burau_ext(4).letter_rows(letter) is burau(4).letter_rows(letter)
        assert lkb_ext(4, Fraction(1, 2)).letter_rows(letter) is lkb(4).letter_rows(letter)
    half = lkb_ext(4, Fraction(1, 2))
    assert half.scale == 2 and all(
        RingMatrix.from_sparse(half.letter_rows((i, 0)), "laurent") == half.tau_image(i) * 2
        for i in (1, 2, 3))
    assert {rep.scale for rep in (lkb(4), burau(4), exterior_square_burau(4), lkb_ext(4),
                                  burau_ext(4), lkb_ext(4, 2, Fraction(-3)),
                                  singular_extension_by_affine_combination(lkb(4), 1, -1, 0))} == {1}


def test_burau_default_variable_is_one_cache_entry():
    for n in (2, 4):
        assert burau(n) is burau(n, "t")
    assert burau(4) is not burau(4, "q")


@pytest.mark.parametrize("build, base_of, coeffs", [
    (lkb_ext, lkb, (u, 0, v)), (burau_ext, burau, (1 - a, 0, a)),
    (lambda n: lkb_ext(n, Fraction(1, 2)), lkb, (Fraction(1, 2), 0, v)),
    (lambda n: burau_ext(n, Fraction(1, 3)), burau, (Fraction(2, 3), 0, Fraction(1, 3))),
    (lambda n: lkb_ext(n, 2, -1), lkb, (integer(2), 0, integer(-1))),
    (lambda n: lkb_ext(n, Fraction(2, 3), Fraction(-1, 3)), lkb,
     (Fraction(2, 3), 0, Fraction(-1, 3))),
], ids=["lkb-ext", "burau-ext", "lkb-ext-half", "burau-ext-third", "lkb-ext-ints",
        "lkb-ext-rational"])
def test_letter_rows_are_the_sparse_images(build, base_of, coeffs):
    """Every letter's stored rows are Laurent: the nonzero entries of its image,
    times the scale D, the lcm of the rational coefficients' denominators, for
    a tau; each unit entry is the shared ONE.  letter_image gives the image
    itself in the ring's entry type: for a tau the dense reference
    _dense_extension, for a crossing the base's image."""
    scale = lcm(*(x.denominator for x in coeffs if isinstance(x, Fraction)))
    for n in (2, 3, 4):
        rep, base = build(n), base_of(n)
        assert rep.scale == scale and rep.ring == ("laurent" if scale == 1 else "ratfunc")
        taus = _dense_extension(base, *coeffs)
        kind = LaurentPoly if rep.ring == "laurent" else RatFunc
        for i in range(1, n):
            for s, image, d in ((1, base.sigma_image(i), 1),
                                (-1, base.letter_image((i, -1)), 1), (0, taus[i - 1], scale)):
                rows = rep.letter_rows((i, s))
                assert rows == sparse_rows(image.scalar_mul(d).rows), (rep.name, n, (i, s))
                assert all(type(e) is LaurentPoly for row in rows for e in row.values())
                assert all(e is ONES["laurent"] for row in rows for e in row.values()
                           if e.is_one())
                got = rep.letter_image((i, s))
                assert got == image and got.ring == rep.ring, (rep.name, n, (i, s))
                assert all(type(e) is kind for row in got.sparse for e in row.values())


def test_stored_inverses_match_berkowitz():
    """Each inverse from the minimal polynomial equals the Berkowitz and
    Cayley-Hamilton inverse of its generator, over the Laurent ring.  Both
    run matrix.horner_rows, on different polynomials; s * s_inv = I is the
    check that shares no code with it."""
    for n in range(2, 8):
        for rep in (burau(n), burau(n, "q"), lkb(n)):
            one = RingMatrix.identity(rep.dim)
            for i in range(1, n):
                s, s_inv = rep.sigma_image(i), rep.letter_image((i, -1))
                assert s_inv.ring == "laurent"
                assert s_inv == s.inverse().map_entries(RatFunc.as_laurent, "laurent"), \
                    (rep.name, n, i)
                assert s * s_inv == one, (rep.name, n, i)


def _dense_extension(base, a, b, c) -> list[RingMatrix]:
    """The reference taus: dense a*S + b*S^-1 + c*I, zero coefficients left out."""
    ident = RingMatrix.identity(base.dim, base.ring)
    taus = []
    for i in range(1, base.n):
        s, s_inv = base.sigma_image(i), base.letter_image((i, -1))
        terms = [m.scalar_mul(x) for m, x in ((s, a), (s_inv, b), (ident, c)) if x]
        taus.append(sum(terms[1:], terms[0]) if terms else zero_matrix(base.dim, base.ring))
    return taus


@pytest.mark.parametrize("coeffs", [
    (None, None, None), (1, -1, 0), (0, 0, 0), (0, Fraction(2, 3), 0), (Fraction(-1, 2), 0, 3),
    ("u", 0, Fraction(1, 2)), (2, "v", -3), (Fraction(4), 1, Fraction(0)),
])
def test_extension_matches_the_dense_affine_formula(coeffs):
    """Same entries, text and ring tag as the dense formula, also on a base
    over the fraction field; the crossing images keep their values."""
    a, b, c = (_resolve_param(x, name) for x, name in zip(coeffs, "abc"))
    for n in (2, 3, 4):
        for base in (burau(n), lkb(n), exterior_square_burau(n), lkb_ext(n, Fraction(1, 2))):
            rep = singular_extension_by_affine_combination(base, *coeffs)
            expected = _dense_extension(base, a, b, c)
            assert rep.ring == expected[0].ring
            assert [rep.tau_image(i).to_json_dict() for i in range(1, n)] == \
                [m.to_json_dict() for m in expected], (base.name, n)
            assert all(rep.letter_image((i, s)) == base.letter_image((i, s))
                       for i in range(1, n) for s in (1, -1))
            _assert_entries_in_the_ring(rep)


def _dense_fold(rep, word) -> RingMatrix:
    """The reference rep_apply: RingMatrix products of the letter images in word order."""
    return reduce(RingMatrix.__mul__, map(rep.letter_image, word.letters),
                  RingMatrix.identity(rep.dim, rep.ring))


@pytest.mark.parametrize("build", [
    burau, lkb, exterior_square_burau, burau_ext, lkb_ext,
    lambda n: burau_ext(n, Fraction(1, 2)), lambda n: lkb_ext(n, Fraction(1, 2)),
    lambda n: lkb_ext(n, 0, 0),
], ids=["burau", "lkb", "wedge-burau", "burau-ext", "lkb-ext", "burau-ext-half",
        "lkb-ext-half", "lkb-ext-zero"])
def test_rep_apply_matches_the_dense_fold(build):
    """Words with singular letters, and words w w^-1 and w tau_1 w^-1 whose
    entries cancel, give the dense fold's matrix, text and ring tag."""
    rng = random.Random(2101)
    for n in range(2, 6):
        rep = build(n)
        signs = (1, -1, 0) if rep.has_tau else (1, -1)
        words = [BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice(signs))
                                    for _ in range(rng.randint(0, 6)))) for _ in range(4)]
        for _ in range(2):
            w = rand_classical_word(rng, n, rng.randint(1, 4))
            words.append(w * w.inverse())
            if rep.has_tau:
                words.append(w * B(n, "t1") * w.inverse())
        for word in words:
            got, want = rep_apply(rep, word), _dense_fold(rep, word)
            assert got.to_json_dict() == want.to_json_dict(), (rep.name, n, word.text())


def test_rep_apply_homomorphism():
    rng = random.Random(77)
    reps = [burau(3), lkb(3), exterior_square_burau(4)]
    for rep in reps:
        for _ in range(20):
            x = rand_classical_word(rng, rep.n, rng.randint(0, 5))
            y = rand_classical_word(rng, rep.n, rng.randint(0, 5))
            assert rep_apply(rep, x * y) == rep_apply(rep, x) * rep_apply(rep, y)


def test_rep_apply_homomorphism_with_singular_letters():
    rng = random.Random(78)

    def rand_singular_word(n, length):
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1, 0))) for _ in range(length)
        )
        return BraidWord(n, letters)

    for rep in (burau_ext(3), lkb_ext(3)):
        for _ in range(15):
            x = rand_singular_word(rep.n, rng.randint(0, 4))
            y = rand_singular_word(rep.n, rng.randint(0, 4))
            assert rep_apply(rep, x * y) == rep_apply(rep, x) * rep_apply(rep, y)


def test_rep_apply_long_relation_with_tau():
    rep = lkb_ext(3)
    assert rep_apply(rep, B(3, "1 2 t1")) == rep_apply(rep, B(3, "t2 1 2"))


def test_rep_apply_short_words():
    rep = lkb_ext(3)
    assert rep_apply(rep, B(3, "")) == RingMatrix.identity(3)
    assert rep_apply(rep, B(3, "")).ring == "laurent"
    for text, letter in (("1", (1, 1)), ("-2", (2, -1)), ("t2", (2, 0))):
        assert rep_apply(rep, B(3, text)) == rep.letter_image(letter)


def test_rep_apply_errors():
    with pytest.raises(ValueError):
        rep_apply(lkb(3), B(4, "1"))
    with pytest.raises(ValueError):
        rep_apply(lkb(3), B(3, "t1"))


# -- exterior square ---------------------------------------------------------------

WEDGE3 = {
    1: RingMatrix([[-q, 0, 0], [0, 1 - q, q], [0, 1, 0]]),
    2: RingMatrix([[1 - q, q, 0], [1, 0, 0], [0, 0, -q]]),
}


def test_wedge_generator_matrices():
    rep = exterior_square_burau(3)
    for i, expected in WEDGE3.items():
        assert rep.sigma_image(i) == expected


def test_wedge_direct_formula_equals_functorial():
    for n in (3, 4, 5):
        rep = exterior_square_burau(n)
        base = burau(n, "q")
        for i in range(1, n):
            assert rep.sigma_image(i) == wedge_square(base.sigma_image(i))


def _case_table_wedge(n, i):
    """sigma_i on the exterior square of Burau in q, row by row from the six-case table.

    A test-only reference with its own pair basis, independent of wedge_square:
    row (k, l) is the image of v_k ^ v_l, as the sum of its (pair, coefficient)
    terms.
    """
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    index = {p: r for r, p in enumerate(pairs)}
    rows = [[0] * len(pairs) for _ in pairs]
    for r, (k, l) in enumerate(pairs):
        if k not in (i, i + 1) and l not in (i, i + 1):
            terms = [((k, l), 1)]
        elif (k, l) == (i, i + 1):
            terms = [((i, i + 1), -q)]  # det of the local Burau block [[1-q, q], [1, 0]]
        elif l == i:
            terms = [((k, i), 1 - q), ((k, i + 1), q)]
        elif l == i + 1 and k < i:
            terms = [((k, i), 1)]
        elif k == i:
            terms = [((i, l), 1 - q), ((i + 1, l), q)]
        else:
            assert k == i + 1 < l
            terms = [((i, l), 1)]
        for pair, value in terms:
            rows[r][index[pair]] = rows[r][index[pair]] + value
    return RingMatrix(rows)


def test_wedge_generators_match_the_case_table():
    for n in range(2, 8):
        rep = exterior_square_burau(n)
        identity = RingMatrix.identity(rep.dim)
        for i in range(1, n):
            assert rep.sigma_image(i) == _case_table_wedge(n, i)
            assert rep.sigma_image(i) * rep.letter_image((i, -1)) == identity


def _all_minors(m: RingMatrix) -> RingMatrix:
    """The reference exterior square: every 2x2 minor on the pair basis."""
    pairs = [(i, j) for i in range(m.dim) for j in range(i + 1, m.dim)]
    return RingMatrix([[m[a, c] * m[b, d] - m[a, d] * m[b, c] for (c, d) in pairs]
                       for (a, b) in pairs], m.ring)


def test_wedge_square_matches_every_minor():
    """Only the minors on nonzero columns are formed; on generator and word
    images and on sparse matrices with zero and unit rows they give the
    matrix of all minors, over both rings."""
    rng = random.Random(2102)
    cases = []
    for n in (2, 3, 4, 5):
        base = burau(n, "q")
        cases += [base.letter_image((i, s)) for s in (1, -1) for i in range(1, n)]
        cases += [rep_apply(base, rand_classical_word(rng, n, 4)) for _ in range(3)]
        for _ in range(4):
            rows = [[rand_poly(rng, terms=2) if rng.random() < 0.3 else integer(0)
                     for _ in range(n)] for _ in range(n)]
            unit, zero = rng.sample(range(n), 2)
            rows[unit] = [integer(int(j == unit)) for j in range(n)]
            rows[zero] = [integer(0)] * n
            cases.append(RingMatrix(rows))
    cases += [m.to_ratfunc().scalar_mul(Fraction(1, 3)) for m in cases[-4:]]
    for m in cases:
        got = wedge_square(m)
        assert got.to_json_dict() == _all_minors(m).to_json_dict()


def test_wedge_relations():
    for n in range(2, 6):
        assert verify_relations(exterior_square_burau(n)).all_ok


def test_wedge_functoriality_random_words():
    rng = random.Random(88)
    for n in (3, 4, 5):
        rep = exterior_square_burau(n)
        base = burau(n, "q")
        for _ in range(12):
            word = rand_classical_word(rng, n, rng.randint(0, 6))
            assert wedge_square(rep_apply(base, word)) == rep_apply(rep, word)


def test_published_diagonal_variant_violates_braid_relation():
    # Negative control: replacing the (i,i+1)-diagonal coefficient -q by the
    # published 1-q breaks sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2, which
    # pins that coefficient as a typo.
    g1 = RingMatrix([[1 - q, 0, 0], [0, 1 - q, q], [0, 1, 0]])
    g2 = RingMatrix([[1 - q, q, 0], [1, 0, 0], [0, 0, 1 - q]])
    assert g1 * g2 * g1 != g2 * g1 * g2
    # and the corrected matrices satisfy it
    c1, c2 = WEDGE3[1], WEDGE3[2]
    assert c1 * c2 * c1 == c2 * c1 * c2


def test_corrupted_representation_fails_verification():
    rep = lkb(3)
    rows = [list(r) for r in rep.sigma_image(1).rows]
    rows[0][1] = rows[0][1] + 1
    corrupted = MatrixRep("corrupted", 3, 3, rep.ring, {**rep.rows, (1, 1): sparse_rows(rows)})
    report = verify_relations(corrupted)
    assert not report.all_ok
    assert any(c.difference is not None and not c.difference.is_zero()
               for c in report.failures)
    _assert_failures_carry_the_difference(corrupted, report, "Bn")


def _assert_failures_carry_the_difference(rep, report, monoid):
    relations = relation_set(rep.n, monoid)
    assert [c.label for c in report.checks] == [rel.label for rel in relations]
    for rel, check in zip(relations, report.checks):
        if check.ok:
            assert check.difference is None
        else:
            expected = rep_apply(rep, rel.lhs) - rep_apply(rep, rel.rhs)
            assert check.difference == expected and not expected.is_zero()
            assert type(check.difference) is RingMatrix and check.difference.ring == rep.ring


def test_corrupted_tau_over_the_fraction_field_fails_verification():
    """A stored tau row off by 1/3 in one entry, a RatFunc among Laurent
    entries, over the fraction field: with the representation's scale the
    image is off in that entry only, and the failing relations report
    rep_apply(lhs) - rep_apply(rhs)."""
    rep = lkb_ext(3, Fraction(1, 2))
    assert rep.ring == "ratfunc" and rep.scale == 2 and verify_relations(rep).all_ok
    rows = [dict(row) for row in rep.letter_rows((1, 0))]
    rows[0][1] = RatFunc(rows[0].get(1, integer(0))) + Fraction(1, 3)
    corrupted = MatrixRep("corrupted", 3, 3, rep.ring, {**rep.rows, (1, 0): rows},
                          scale=rep.scale)
    difference = corrupted.tau_image(1) - rep.tau_image(1)
    assert difference.sparse == [{1: RatFunc(1, 6)}, {}, {}]
    report = verify_relations(corrupted)
    assert report.failures
    _assert_failures_carry_the_difference(corrupted, report, "SMn")



# The extensions with rational parameters, by the parameter names they take;
# None leaves every parameter symbolic.
SCALE_CASES = {
    "lkb-ext": ("uv", lambda n, p: lkb_ext(n, *p)),
    "burau-ext": ("a", lambda n, p: burau_ext(n, *p)),
    "burau-affine": ("abc", lambda n, p: singular_extension_by_affine_combination(burau(n), *p)),
    "wedge-affine": ("abc", lambda n, p: singular_extension_by_affine_combination(
        exterior_square_burau(n), *p)),
    "birman": ("abc", None),
}
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def scale_cases(draw):
    """An extension, n = 2..5, rational parameters, an SM_n word of at most
    three crossings and three taus in any order, and a nonzero rational (q, t)."""
    name, n = draw(st.sampled_from(sorted(SCALE_CASES))), draw(st.integers(2, 5))
    params = {x: draw(RATIONALS) for x in SCALE_CASES[name][0]}
    crossings = draw(st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))),
                              max_size=3))
    taus = draw(st.lists(st.tuples(st.integers(1, n - 1), st.just(0)), max_size=3))
    word = BraidWord(n, tuple(draw(st.permutations(crossings + taus))))
    point = {"q": draw(RATIONALS.filter(bool)), "t": draw(RATIONALS.filter(bool))}
    return name, params, word, point


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scale_cases())
@example(("lkb-ext", {"u": Fraction(2, 3), "v": Fraction(-1, 6)},
          B(3, "t1 t2 t1 -1 t2"), {"q": Fraction(-3, 2), "t": Fraction(5, 7)}))
@example(("birman", {"a": Fraction(1, 2), "b": Fraction(-2, 3), "c": Fraction(3)},
          B(4, "t1 -2 t3 t1"), {"q": Fraction(2), "t": Fraction(1, 3)}))
def test_rational_parameters_evaluate_like_the_symbolic_image(case):
    """Every entry of a word's image with rational parameters, evaluated at
    (q, t), is the symbolic extension's image evaluated at (q, t) and those
    parameters; for birman_image every coefficient.  The check reads only
    values, never how the taus' scale is stored."""
    name, params, word, point = case
    full = {**point, **params}
    names, build = SCALE_CASES[name]
    if build is None:
        got, symbolic = birman_image(word, *params.values()), birman_image(word)
        assert {k: c.evaluate(full) for k, c in got.terms.items()} == \
            {k: x for k, c in symbolic.terms.items() if (x := c.evaluate(full))}
    else:
        got = rep_apply(build(word.n, params.values()), word)
        symbolic = rep_apply(build(word.n, [None] * len(names)), word)
        assert got.evaluate(point) == symbolic.evaluate(full)

# -- determinants of the singular images ---------------------------------------------

def test_det_tau_golden_n3():
    expected = (u * q ** 2 * t + v) * (v ** 2 + v * u * (1 - q) - u ** 2 * q)
    assert det_tau_symbolic(3) == expected


def test_det_tau_all_generators_agree():
    for n in (3, 4, 5):
        assert det_tau_all_equal(n)


def test_det_tau_u_zero():
    for n in (3, 4):
        m = n * (n - 1) // 2
        assert lkb_ext(n, u=0).tau_image(1).det() == v ** m


def test_det_tau_b4_diff_is_the_u6_typo():
    cmp = det_tau_b4_diff()
    assert cmp["only_u6_terms"]
    assert cmp["diff"] == q ** 4 * t * u ** 6 - 4 * t * u ** 6
    # coefficient of u^6 independently fixed by det of the sigma1 image
    assert lkb(4).sigma_image(1).det() == t * q ** 4


def test_det_tau_factorization_structure():
    # det factors as (quadratic block)^(n-2) * (u q^2 t + v) * (u + v)^binom(n-2, 2)
    for n in (3, 4, 5):
        block = v ** 2 + v * u * (1 - q) - u ** 2 * q
        expected = (u * q ** 2 * t + v) * block ** (n - 2) * (u + v) ** (
            (n - 2) * (n - 3) // 2
        )
        assert det_tau_symbolic(n) == expected


# -- group algebra -------------------------------------------------------------------

def test_birman_image_golden():
    g = birman_image(B(2, "t1"), 1, -1, 0)
    s1 = to_normal_form(B(2, "1"))
    assert g.terms == {s1: RatFunc(1), nf_inverse(s1): RatFunc(-1)}


def test_birman_image_trivial_word():
    assert birman_image(B(2, "1 -1"), 1, -1, 0) == GroupAlgebraElem.unit(2)


def test_birman_image_two_term_product():
    # (sigma1 - sigma1^-1) * sigma1^-1 = e - sigma1^-2
    g = birman_image(B(2, "t1 -1"), 1, -1, 0)
    s1m2 = to_normal_form(B(2, "-1 -1"))
    assert g.terms == {NormalForm.identity(2): RatFunc(1), s1m2: RatFunc(-1)}


def test_group_algebra_product_distinct_keys():
    one = GroupAlgebraElem(3, {to_normal_form(B(3, "1")): 1})
    two = GroupAlgebraElem(3, {to_normal_form(B(3, "2")): 1})
    product = (one + two) * (one - two)
    # sigma1 sigma2 and sigma2 sigma1 are distinct normal forms, so 4 terms.
    assert len(product) == 4
    assert GroupAlgebraElem.unit(3) * product == product


def test_group_algebra_relations_symbolic():
    for n in (2, 3, 4):
        report = verify_group_algebra_relations(n)
        assert report.all_ok, report.summary()


def test_affine_extension_of_matrix_rep():
    rep = singular_extension_by_affine_combination(burau(3), 1, -1, 0)
    base = burau(3)
    for i in (1, 2):
        assert rep.tau_image(i) == base.sigma_image(i) - base.letter_image((i, -1))
    assert verify_relations(rep).all_ok


# -- extension solution space ----------------------------------------------------------

def _affine_span_checks(solution):
    assert solution.contains_generator_image and solution.contains_identity


@pytest.mark.parametrize("n", range(3, 10))
def test_extension_reduction_braid_identities(n):
    # The braid identities that let the solver constrain T_1 by its own
    # relations: with a_1 = e and a_{i+1} = s_i s_{i+1} a_i, conjugating by a_i
    # takes every linear SM_n constraint on T_i to one on T_1, or to a
    # conjugate of one by c_i = s_{i+1} s_i ... s_3, which T_1 commutes with.
    def inv(word):
        return [-x for x in reversed(word)]

    def equal(x, y):
        return nf_equal(B(n, " ".join(map(str, x))), B(n, " ".join(map(str, y))))

    a_word = [None, []]
    for i in range(1, n - 1):
        a_word.append([i, i + 1] + a_word[i])
    for i in range(1, n):
        def conj(word):
            return inv(a_word[i]) + word + a_word[i]

        assert equal(conj([i]), [1])
        for j in range(1, n):
            if j >= i + 2:
                assert equal(conj([j]), [j])
            elif j <= i - 2:
                assert equal(conj([j]), [j + 2])
        if i <= n - 2:
            c = list(range(i + 1, 2, -1))
            assert equal(conj([i + 1, i, i, i + 1]), c + [2, 1, 1, 2] + inv(c))


def test_extension_space_structure():
    # The constraint system is solved exactly; its nullspace is the span of
    # I, S1 and S1^2 (the image of the squared crossing also extends), so the
    # dimension is 3.  The published dimension-2 claim fails; see the
    # acceptance suite and the analysis accompanying it.
    point = {"q": Fraction(2), "t": Fraction(3)}
    solution = solve_extension_space(3, point)
    assert solution.dimension == 3
    _affine_span_checks(solution)

    point4 = {"q": Fraction(3), "t": Fraction(2)}
    solution4 = solve_extension_space(4, point4)
    assert solution4.dimension == 3
    assert solution4.quadratic_ok
    _affine_span_checks(solution4)


def test_extension_space_contains_squared_generator():
    point = {"q": Fraction(5), "t": Fraction(2)}
    solution = solve_extension_space(3, point)
    rep = lkb(3)
    s1 = [list(row) for row in rep.sigma_image(1).evaluate(point)]
    m = 3
    s1sq = [
        [sum(s1[i][k] * s1[k][j] for k in range(m)) for j in range(m)]
        for i in range(m)
    ]
    basis_vecs = [
        [mat[r][c] for r in range(m) for c in range(m)]
        for mat in solution.basis_matrices
    ]
    flat = [s1sq[r][c] for r in range(m) for c in range(m)]
    assert _lib_in_span(3, point, flat)
    assert _fraction_in_span(basis_vecs, flat)


def test_squared_crossing_is_an_extension():
    # tau_i -> sigma_i image squared satisfies every defining relation, which
    # is why the solution space above is three-dimensional.
    for n in (3, 4):
        base = lkb(n)
        taus = {(i, 0): sparse_rows((base.sigma_image(i) * base.sigma_image(i)).rows)
                for i in range(1, n)}
        rep = MatrixRep("lkb+tau=sigma^2", n, base.dim, base.ring, {**base.rows, **taus})
        assert verify_relations(rep).all_ok


def _fraction_rref(rows):
    """Gauss-Jordan elimination in Fraction arithmetic: the reference for the
    library's integer elimination, with which it shares no code."""
    rows = [row[:] for row in rows]
    pivots = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _fraction_nullspace(rows, cols):
    rref, pivots = _fraction_rref(rows or [[Fraction(0)] * cols])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def _fraction_in_span(basis, target):
    return len(_fraction_rref(basis + [target])[1]) == len(basis)


def _mul(x, y):
    """The dense product x * y, skipping the zero entries of x."""
    return [[sum((a * y[k][j] for k, a in enumerate(row) if a), Fraction(0))
             for j in range(len(y[0]))] for row in x]


def _fraction_images(n, point):
    """S_i, A_i and B_i = A_i^-1 as dense Fraction matrices, A_i the image of
    a_i (a_1 = e, a_{i+1} = s_i s_{i+1} a_i), each list indexed from 1."""
    rep = lkb(n)
    m = rep.dim
    S = [None] + [[list(r) for r in rep.sigma_image(i).evaluate(point)] for i in range(1, n)]
    S_inv = [None] + [[list(r) for r in rep.letter_image((i, -1)).evaluate(point)]
                      for i in range(1, n)]
    ident = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    A, B = [None, ident], [None, ident]
    for i in range(1, n - 1):
        A.append(_mul(_mul(S[i], S[i + 1]), A[i]))
        B.append(_mul(B[i], _mul(S_inv[i + 1], S_inv[i])))
    return S, A, B


def _fraction_quadratic_ok(n, A, B, matrices):
    """Whether tau_i tau_j = tau_j tau_i, |i - j| >= 2, holds on the span of
    the matrices X, with T_i = A_i X B_i, in dense Fraction arithmetic."""
    lifted = {(i, r): _mul(_mul(A[i], x), B[i])
              for i in range(1, n) for r, x in enumerate(matrices)}

    def comm(i, r, j, s):
        x, y = lifted[i, r], lifted[j, s]
        return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(_mul(x, y), _mul(y, x))]

    k = len(matrices)
    return all(
        not any(map(any, comm(i, r, j, r)))
        and all(not any(a + b for ra, rb in zip(comm(i, r, j, s), comm(i, s, j, r))
                        for a, b in zip(ra, rb))
                for s in range(r + 1, k))
        for i in range(1, n) for j in range(i + 2, n) for r in range(k)
    )


def _kronecker_solution(n, point):
    """The extension solver with every product dense, each constraint row
    built by the Kronecker loop over A_i, B_i, B_i M and M A_i (entry (r, s)
    of A_i X B_i M - M A_i X B_i puts A_i[r][j] (B_i M)[k][s] - (M A_i)[r][j]
    B_i[k][s] at X[j][k]) and the nullspace taken by the Fraction Gauss-Jordan
    elimination above."""
    m = lkb(n).dim
    S, A, B = _fraction_images(n, point)
    identity = A[1]
    constraints = [(i, S[j]) for i in range(1, n) for j in range(1, n) if abs(i - j) != 1]
    constraints += [(i, _mul(_mul(S[i + 1], S[i]), _mul(S[i], S[i + 1])))
                    for i in range(1, n - 1)]
    rows = []
    for i, M in constraints:
        BM, MA = _mul(B[i], M), _mul(M, A[i])
        for r in range(m):
            for s in range(m):
                row = [Fraction(0)] * (m * m)
                for j in range(m):
                    for k in range(m):
                        row[j * m + k] += A[i][r][j] * BM[k][s] - MA[r][j] * B[i][k][s]
                if any(row):
                    rows.append(row)
    vectors = _fraction_nullspace(rows, m * m)
    matrices = [[vec[r * m:(r + 1) * m] for r in range(m)] for vec in vectors]
    return {
        "dimension": len(vectors),
        "basis_matrices": tuple(tuple(map(tuple, x)) for x in matrices),
        "contains_generator_image": _fraction_in_span(vectors, [x for row in S[1] for x in row]),
        "contains_identity": _fraction_in_span(vectors, [x for row in identity for x in row]),
        "quadratic_ok": _fraction_quadratic_ok(n, A, B, matrices) if n >= 4 else None,
    }


@pytest.mark.parametrize("n", [3, 4])
def test_extension_space_matches_kronecker_rows(n):
    rng = random.Random(f"solve-ext/{n}")
    for _ in range(10):
        qv = tv = Fraction(0)
        while qv in (0, 1, -1):
            qv = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        while tv == 0:
            tv = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        point = {"q": qv, "t": tv}
        solution = solve_extension_space(n, point)
        expected = _kronecker_solution(n, point)
        assert {key: getattr(solution, key) for key in expected} == expected, point


@pytest.mark.parametrize("n", [3, 4])
def test_extension_space_with_large_coefficients(n):
    # Six- and seven-digit numerators and denominators make the elimination's
    # integers grow; the result still matches the Fraction reference exactly.
    point = {"q": Fraction(1000003, 999983), "t": Fraction(-999979, 1000033)}
    solution = solve_extension_space(n, point)
    expected = _kronecker_solution(n, point)
    assert {key: getattr(solution, key) for key in expected} == expected
    assert solution.dimension == 3
    _affine_span_checks(solution)


def _random_rational_matrices(rng):
    """Seeded rational matrices covering the shapes an elimination can get
    wrong: rank-deficient products, duplicate and zero rows, one row, one
    column, and 12-digit numerators and denominators."""

    def entry(digits):
        if rng.random() < 0.3:
            return Fraction(0)
        top = 10 ** digits
        return Fraction(rng.randint(-top, top), rng.randint(1, top))

    def matrix(r, c, digits=1):
        return [[entry(digits) for _ in range(c)] for _ in range(r)]

    for _ in range(8):
        r, c, k = rng.randint(3, 7), rng.randint(3, 7), rng.randint(1, 2)
        left, right = matrix(r, k), matrix(k, c)
        yield [[sum(left[i][j] * right[j][s] for j in range(k)) for s in range(c)]
               for i in range(r)]
    for _ in range(8):
        rows = matrix(rng.randint(1, 5), rng.randint(1, 6))
        rows.insert(rng.randint(0, len(rows)), rows[rng.randrange(len(rows))][:])
        rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * len(rows[0]))
        yield rows
    for _ in range(4):
        yield matrix(1, rng.randint(1, 7))
        yield matrix(rng.randint(1, 7), 1)
    for _ in range(6):
        yield matrix(rng.randint(1, 6), rng.randint(1, 6), digits=12)
    yield [[Fraction(0)] * 4 for _ in range(3)]


def _sympy_rref(rows):
    """sympy's reduced row echelon form of rows of ints or Fractions, as _rref returns it."""
    sympy = pytest.importorskip("sympy")
    reduced, pivots = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    ).rref()
    return [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)]
            for i in range(len(pivots))], list(pivots)


def _integer_row(row):
    """A rational row as {column: int}: its nonzero entries times the lcm of
    their denominators, the form reps._echelon takes."""
    d = lcm(*(Fraction(x).denominator for x in row))
    return {c: int(x * d) for c, x in enumerate(row) if x}


def _rref_view(echelon, cols):
    """reps._echelon's (pivot, row) pairs as _sympy_rref returns its form:
    dense Fraction rows with pivot 1, and the pivot columns."""
    return ([[Fraction(p.get(j, 0), p[c]) for j in range(cols)] for c, p in echelon],
            [c for c, _ in echelon])


def _lib_rref(rows):
    return _rref_view(reps._echelon(map(_integer_row, rows)), len(rows[0]) if rows else 0)


def _lib_nullspace(rows, cols):
    return [[vec.get(j, 0) for j in range(cols)]
            for vec in reps._nullspace(map(_integer_row, rows), cols)]


def _solver_rows(n, point):
    """The extension solver's constraint rows at the point."""
    S, _ = reps._lkb_letters_over_z(n, Fraction(point["q"]), Fraction(point["t"]))
    return reps._constraint_rows(S, lkb(n).dim)


def _lib_in_span(n, point, target):
    """The solver's span test: whether the flattened rational matrix target lies
    in the solution span at the point, read from the constraint rows."""
    return reps._in_nullspace(_solver_rows(n, point), _integer_row(target))


def test_rref_and_nullspace_match_sympy():
    rng = random.Random("rref-oracle")
    for rows in _random_rational_matrices(rng):
        cols = len(rows[0])
        expected = _sympy_rref(rows)
        assert _lib_rref(rows) == expected, rows
        basis = _lib_nullspace(rows, cols)
        assert len(basis) == cols - len(expected[1])
        for vec in basis:
            assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in rows), rows


def _tall_sparse_systems(rng):
    """Integer systems shaped like the solver's: tall, sparse and rank-deficient
    (rows x cols of rank at most `rank`, from factors with two and three nonzero
    entries per row), with a zero row and a repeated row."""
    for rows, cols, rank in ((106, 36, 33), (100, 36, 33), (60, 36, 20), (24, 9, 6)):
        left = [{k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in rng.sample(range(rank), 2)}
                for _ in range(rows)]
        right = [{j: rng.choice((-9, -4, -1, 1, 2, 7)) for j in rng.sample(range(cols), 3)}
                 for _ in range(rank)]
        system = [[sum(x * right[k].get(j, 0) for k, x in row.items()) for j in range(cols)]
                  for row in left]
        system[rng.randrange(rows)] = [0] * cols
        system.insert(rng.randrange(rows), system[rng.randrange(rows)][:])
        yield system


def test_rref_matches_sympy_on_tall_sparse_systems():
    rng = random.Random("rref-tall-sparse")
    ranks = []
    for rows in _tall_sparse_systems(rng):
        expected = _sympy_rref(rows)
        assert _lib_rref(rows) == expected
        ranks.append((len(expected[1]), len(rows[0])))
    assert ranks[0] == (33, 36) and all(rank < cols for rank, cols in ranks)


@pytest.mark.parametrize("n", [3, 4])
def test_rref_matches_sympy_on_the_solver_systems(monkeypatch, n):
    """Every system the extension solver reduces, one per call (its constraint
    rows), at seeded points."""
    systems, echelon = [], reps._echelon

    def recording(rows):
        rows = list(rows)
        systems.append(rows)
        return echelon(rows)

    monkeypatch.setattr(reps, "_echelon", recording)
    rng = random.Random(f"rref-solver/{n}")
    for _ in range(3):
        point = {"q": rng.choice((2, -3, Fraction(5, 2), Fraction(-7, 3))),
                 "t": rng.choice((3, -1, Fraction(2, 5), Fraction(-9, 4)))}
        solve_extension_space(n, point)
    assert len(systems) == 3
    cols = lkb(n).dim ** 2
    for rows in systems:
        dense = [[row.get(j, 0) for j in range(cols)] for row in rows]
        assert _rref_view(echelon(rows), cols) == _sympy_rref(dense), rows


def test_in_span_rejects_a_matrix_outside_the_span():
    # The row (0, 1) has nullspace span{(1, 0)}, which (0, 1) is outside.
    assert not reps._in_nullspace([{1: 1}], {1: 1})
    assert reps._in_nullspace([{1: 1}], {0: 5})
    point = {"q": Fraction(2), "t": Fraction(3)}
    # I, S1 and S1^2 all have a zero (0, 1) entry at n = 3, so the matrix unit
    # E_01 is outside their span; E_00 + E_11 + E_22 is inside.
    unit = [Fraction(int(k == 1)) for k in range(9)]
    assert not _lib_in_span(3, point, unit)
    assert _lib_in_span(3, point, [Fraction(int(k in (0, 4, 8))) for k in range(9)])


@pytest.mark.parametrize("n", [3, 4])
def test_span_test_from_the_constraint_rows_matches_the_reference(n):
    # The solver reads span membership off its constraint rows; the Fraction
    # reference reduces the solution basis with the target appended.
    m = lkb(n).dim
    for point in ({"q": Fraction(2), "t": Fraction(3)},
                  {"q": Fraction(-7, 3), "t": Fraction(2, 5)}):
        rows = _solver_rows(n, point)
        vectors = [[x for row in mat for x in row]
                   for mat in solve_extension_space(n, point).basis_matrices]
        S, A, _ = _fraction_images(n, point)
        powers = [A[1]]
        for _ in range(3):
            powers.append(_mul(powers[-1], S[1]))
        units = [[Fraction(int(k == e)) for k in range(m * m)] for e in range(m * m)]
        targets = [[x for row in p for x in row] for p in powers] + units
        verdicts = []
        for target in targets:
            verdict = reps._in_nullspace(rows, _integer_row(target))
            assert verdict == _fraction_in_span(vectors, target), (point, target)
            verdicts.append(verdict)
        # I, S1, S1^2 and S1^3 are in the span, and no matrix unit is.
        assert verdicts[:4] == [True] * 4 and not any(verdicts[4:])


def test_quadratic_check_rejects_a_span_that_breaks_far_commutation():
    """At n = 4 the check tests tau_1 tau_3 = tau_3 tau_1 on a span: each X_r
    against T_3(X_r), and each X_r - X_s against T_3(X_r) - T_3(X_s); spans made
    of the solution basis and a matrix unit E_rc break each, and the library
    agrees with the dense Fraction reference on every span."""
    n, m, point = 4, 6, {"q": Fraction(3), "t": Fraction(2)}
    S, S_inv = reps._lkb_letters_over_z(n, point["q"], point["t"])
    _, A, B = _fraction_images(n, point)
    basis = [[list(row) for row in mat] for mat in solve_extension_space(n, point).basis_matrices]

    def unit(r, c):
        return [[Fraction(int((i, j) == (r, c))) for j in range(m)] for i in range(m)]

    def holds(span):
        vectors = [_integer_row([x for row in mat for x in row]) for mat in span]
        ok = reps._quadratic_commutations_hold(S, S_inv, vectors, m)
        assert ok == _fraction_quadratic_ok(n, A, B, span)
        return ok

    assert holds(basis)
    # A span of one matrix is tested by X_0 against T_3(X_0) alone.
    assert not holds([unit(0, 1)])
    assert not holds([unit(0, 1), *basis])
    # Each of these passes alone, so every X_r commutes with T_3(X_r) and the
    # span fails through a difference X_r - X_s.
    assert all(holds([x]) for x in [*basis, unit(1, 0)])
    assert not holds([*basis, unit(1, 0)])


@pytest.mark.parametrize("n", [5, 6])
def test_reduced_quadratic_check_matches_every_far_pair(n):
    """Past n = 4 the check still tests the single pair (1, 3): on span{I, S1,
    S1^2}, whose matrices commute with S_1 and each S_k, k >= 3, it agrees with
    the dense Fraction reference over every pair |i - j| >= 2."""
    m = lkb(n).dim
    for point in ({"q": Fraction(2), "t": Fraction(3)},
                  {"q": Fraction(-3), "t": Fraction(1, 2)}):
        S, S_inv = reps._lkb_letters_over_z(n, point["q"], point["t"])
        square = sparse_mul(S[1], S[1])
        vectors = [{r * m + r: 1 for r in range(m)},
                   *({r * m + c: x for r, row in enumerate(M) for c, x in row.items()}
                     for M in (S[1], square))]
        S_frac, A, B = _fraction_images(n, point)
        span = [A[1], S_frac[1], _mul(S_frac[1], S_frac[1])]
        ok = reps._quadratic_commutations_hold(S, S_inv, vectors, m)
        assert ok == _fraction_quadratic_ok(n, A, B, span), point
        assert ok


def test_degenerate_points_rejected():
    for bad in ({"q": 1, "t": 2}, {"q": 0, "t": 2}, {"q": -1, "t": 2}, {"q": 2, "t": 0}):
        with pytest.raises(DegeneratePointError):
            solve_extension_space(3, bad)
    with pytest.raises(ValueError):
        solve_extension_space(5, {"q": 2, "t": 3})
    with pytest.raises(ValueError, match="no value for t"):
        solve_extension_space(3, {"q": 2})
    with pytest.raises(ValueError, match="unknown coordinate x"):
        solve_extension_space(3, {"q": 2, "t": 3, "x": 5})


@pytest.fixture
def generator_nfs(monkeypatch):
    """The generator index of every normal form the group-algebra map builds."""
    from braidrep import reps
    calls = []
    build = reps.to_normal_form

    def counting(word):
        calls.append(word.letters[0][0])
        return build(word)

    monkeypatch.setattr(reps, "to_normal_form", counting)
    return calls


def test_birman_image_builds_only_the_letters_it_uses(generator_nfs):
    birman_image(B(1000, "1 -2 t3"))
    assert sorted(generator_nfs) == [1, 2, 3]
    generator_nfs.clear()
    birman_image(B(4, "1 1 t2 -1 t2 1"))
    assert sorted(generator_nfs) == [1, 1, 2]


def test_group_algebra_verifier_builds_each_letter_image_once(generator_nfs):
    assert verify_group_algebra_relations(4).all_ok
    assert sorted(generator_nfs) == [1, 1, 1, 2, 2, 2, 3, 3, 3]


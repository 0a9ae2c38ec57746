import random

import pytest

from braidrep.braid import BraidWord
from braidrep.defects import additive_defect, defect, defect_between, multiplicative_defect
from braidrep.matrix import RingMatrix
from braidrep.reps import burau, exterior_square_burau, lkb, pair_basis, rep_apply
from braidrep.ring import RatFunc, variable
from conftest import rand_classical_word, zero_matrix

q = variable("q")
t = variable("t")
B = BraidWord.parse


def RF(num, den=1):
    return RatFunc(num, den)


# Corrected generator defects for n=3.  Relative to the published matrices the
# only changed entries sit on the (i, i+1) diagonal, where the published
# exterior-square coefficient 1-q must be -q (see the wedge typo tests):
# published d has q^2*t + q - 1 there (corrected q^2*t + q), published k has
# -t*q^2/(q-1) (corrected -t*q).
D1_N3 = RingMatrix([
    [q ** 2 * t + q, 0, 0],
    [q * t * (q - 1), 0, 0],
    [0, 0, 0],
])
K1_N3 = RingMatrix(
    [
        [RF(-t * q), RF(0), RF(0)],
        [RF(0), RF(1), RF(0)],
        [RF(t * (q - 1)), RF(0), RF(1)],
    ],
    "ratfunc",
)
D2_N3 = RingMatrix([
    [0, 0, q * (q - 1)],
    [0, 0, 0],
    [0, 0, q ** 2 * t + q],
])
K2_N3 = RingMatrix(
    [
        [RF(1), RF(0), RF(0)],
        [RF(0), RF(1), RF(q - 1)],
        [RF(0), RF(0), RF(-t * q)],
    ],
    "ratfunc",
)

# Published counterparts, used to pin the exact diff.
D1_N3_PUBLISHED = RingMatrix([
    [q ** 2 * t + q - 1, 0, 0],
    [q * t * (q - 1), 0, 0],
    [0, 0, 0],
])
K1_N3_PUBLISHED = RingMatrix(
    [
        [RF(-t * q ** 2, q - 1), RF(0), RF(0)],
        [RF(0), RF(1), RF(0)],
        [RF(t * (q - 1)), RF(0), RF(1)],
    ],
    "ratfunc",
)


def test_generator_defects_n3():
    assert additive_defect(3, B(3, "1")) == D1_N3
    assert multiplicative_defect(3, B(3, "1")) == K1_N3
    assert additive_defect(3, B(3, "2")) == D2_N3
    assert multiplicative_defect(3, B(3, "2")) == K2_N3


def test_diff_against_published_n3():
    d_diff = additive_defect(3, B(3, "1")) - D1_N3_PUBLISHED
    expected = zero_matrix(3) + RingMatrix(
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    )
    assert d_diff == expected
    k_diff = multiplicative_defect(3, B(3, "1")) - K1_N3_PUBLISHED
    # -t*q - (-t*q^2/(q-1)) = t*q/(q-1)
    assert k_diff[0, 0] == RF(t * q, q - 1)
    assert all(
        k_diff[i, j].is_zero() for i in range(3) for j in range(3) if (i, j) != (0, 0)
    )


def test_generator_defects_n4():
    d1 = additive_defect(4, B(4, "1"))
    assert d1 == RingMatrix([
        [q ** 2 * t + q, 0, 0, 0, 0, 0],
        [q * t * (q - 1), 0, 0, 0, 0, 0],
        [q * t * (q - 1), 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ])
    k1 = multiplicative_defect(4, B(4, "1"))
    z, one = RF(0), RF(1)
    assert k1 == RingMatrix(
        [
            [RF(-t * q), z, z, z, z, z],
            [z, one, z, z, z, z],
            [z, z, one, z, z, z],
            [RF(t * (q - 1)), z, z, one, z, z],
            [RF(t * (q - 1)), z, z, z, one, z],
            [z, z, z, z, z, one],
        ],
        "ratfunc",
    )
    d2 = additive_defect(4, B(4, "2"))
    assert d2 == RingMatrix([
        [0, 0, 0, q * (q - 1), 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, q ** 2 * t + q, 0, 0],
        [0, 0, 0, q * t * (q - 1), 0, 0],
        [0, 0, 0, 0, 0, 0],
    ])
    k2 = multiplicative_defect(4, B(4, "2"))
    assert k2[1, 3] == RF(q - 1)
    assert k2[3, 3] == RF(-t * q)
    assert k2[5, 3] == RF(t * (q - 1))
    d3 = additive_defect(4, B(4, "3"))
    assert d3[1, 5] == q * (q - 1)
    assert d3[3, 5] == q * (q - 1)
    assert d3[5, 5] == q ** 2 * t + q
    k3 = multiplicative_defect(4, B(4, "3"))
    assert k3[2, 5] == RF(q - 1)
    assert k3[4, 5] == RF(q - 1)
    assert k3[5, 5] == RF(-t * q)


def test_disjoint_rows_are_trivial():
    # Basis vectors not meeting {i, i+1}: zero row in the additive defect,
    # identity row in the multiplicative one.
    for n in (3, 4, 5):
        basis = pair_basis(n)
        for i in range(1, n):
            d = additive_defect(n, B(n, str(i)))
            k = multiplicative_defect(n, B(n, str(i)))
            for r, (kk, ll) in enumerate(basis):
                if {kk, ll} & {i, i + 1}:
                    continue
                assert all(d[r, c].is_zero() for c in range(d.dim))
                assert all(
                    (k[r, c] == RF(1)) == (r == c) and (bool(k[r, c]) == (r == c))
                    for c in range(k.dim)
                )


def test_empty_word_defects():
    assert additive_defect(3, B(3, "")) == zero_matrix(3)
    assert multiplicative_defect(3, B(3, "")) == RingMatrix.identity(3, "ratfunc")


def test_reconstruction_identities_random():
    rng = random.Random(2024)
    reps = {n: (lkb(n), exterior_square_burau(n)) for n in (3, 4)}
    for _ in range(30):
        n = rng.choice((3, 4))
        word = rand_classical_word(rng, n, rng.randint(0, 5))
        phi, psi = reps[n]
        lk = rep_apply(phi, word)
        dg = rep_apply(psi, word)
        add = additive_defect(n, word)
        mul = multiplicative_defect(n, word)
        assert dg + add == lk
        assert dg.to_ratfunc() * mul == lk.to_ratfunc()


def test_generic_pair_defects():
    # The generic utilities accept any pair on the same space.
    word = B(2, "1")
    phi = burau(2)
    psi = burau(2, "q")
    add = defect_between(phi, psi, word).additive
    assert add == RingMatrix([[q - t, t - q], [0, 0]])
    mul = defect_between(phi, phi, word).multiplicative
    assert mul == RingMatrix.identity(2, "ratfunc")


def test_defect_rejects_singular_words():
    with pytest.raises(ValueError):
        additive_defect(3, B(3, "t1"))
    with pytest.raises(ValueError):
        multiplicative_defect(3, B(3, "t1"))


def test_defect_result_bundle():
    result = defect(3, B(3, "1"))
    assert result.additive == D1_N3
    assert result.multiplicative == K1_N3
    assert result.word == B(3, "1")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_defect_between_matches_the_inverse_formula(n):
    # psi(w)^-1 from the stored inverse images equals the inverted matrix.
    rng = random.Random(7000 + n)
    pairs = [(lkb(n), exterior_square_burau(n)), (burau(n), burau(n, "q"))]
    for phi, psi in pairs:
        for _ in range(3):
            word = rand_classical_word(rng, n, rng.randint(2, 5))
            if all(s == 1 for _, s in word.letters):
                (i, _), *rest = word.letters
                word = BraidWord(n, ((i, -1), *rest))
            result = defect_between(phi, psi, word)
            phi_w, psi_w = rep_apply(phi, word), rep_apply(psi, word)
            expected = psi_w.inverse() * phi_w.to_ratfunc()
            assert result.multiplicative.to_json_dict() == expected.to_json_dict()
            assert result.additive.to_json_dict() == (phi_w - psi_w).to_json_dict()
            assert result.word == word


def test_defect_between_rejects_singular_words():
    with pytest.raises(ValueError):
        defect_between(burau(3), burau(3, "q"), B(3, "1 t2"))


def test_defect_rejects_a_singular_word_before_building():
    lkb.cache_clear()
    with pytest.raises(ValueError, match="classical"):
        defect(6, B(6, "1 t2"))
    assert lkb.cache_info().currsize == 0

import json
import random
from fractions import Fraction

import pytest

from braidrep import matrix
from braidrep.braid import BraidWord
from braidrep.defects import defect
from braidrep.invariants import charpoly_invariant
from braidrep.matrix import RingMatrix, SingularMatrixError, coerce_entry, sparse_rows
from braidrep.reps import (
    GroupAlgebraElem,
    MatrixRep,
    burau,
    exterior_square_burau,
    lkb,
    lkb_ext,
    rep_apply,
    verify_relations,
)
from braidrep.ring import ONE, ZERO, LaurentPoly, RatFunc, integer, variable
from conftest import rand_classical_word, rand_poly, zero_matrix

q = variable("q")
t = variable("t")
u = variable("u")
v = variable("v")
w = variable("w")

LKB3_SIGMA1 = RingMatrix(
    [[t * q ** 2, 0, 0], [t * q * (q - 1), 1 - q, q], [0, 1, 0]]
)
LKB3_SIGMA2 = RingMatrix(
    [[1 - q, q, q * (q - 1)], [1, 0, 0], [0, 0, t * q ** 2]]
)
# Dense, with row denominators that do not divide each other (q + 1 and
# t + 1 in the first row).
MIXED_DENOMINATORS = RingMatrix(
    [
        [RatFunc(1, q + 1), RatFunc(1, t + 1), RatFunc(q, (q + 1) * (t + 1))],
        [RatFunc(q, q - t), RatFunc(1), RatFunc(t)],
        [RatFunc(1), RatFunc(1, q + 2), RatFunc(2)],
    ],
    "ratfunc",
)


def test_identity_and_arithmetic():
    ident = RingMatrix.identity(3)
    assert ident * LKB3_SIGMA1 == LKB3_SIGMA1
    assert LKB3_SIGMA1 * ident == LKB3_SIGMA1
    assert LKB3_SIGMA1 - LKB3_SIGMA1 == zero_matrix(3)


def test_affine_combination_matches_singular_image():
    # u * L + v * I reproduces the singular generator image of the extension.
    combo = LKB3_SIGMA1.scalar_mul(u) + RingMatrix.identity(3).scalar_mul(v)
    expected = RingMatrix(
        [
            [u * q ** 2 * t + v, 0, 0],
            [u * t * q * (q - 1), u * (1 - q) + v, u * q],
            [0, u, v],
        ]
    )
    assert combo == expected


def _dense_product(a, b):
    """Sum-of-products reference over every entry, zeros included."""
    dim = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(1, dim)), a[i][0] * b[0][j])
             for j in range(dim)] for i in range(dim)]


def _random_sparse_rows(rng, dim, entry):
    return [[entry() if rng.random() < 0.4 else 0 for _ in range(dim)] for _ in range(dim)]


@pytest.mark.parametrize("seed", range(8))
def test_product_matches_dense_reference(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)

    def poly():
        return rand_poly(rng, terms=2, laurent=True)

    def ratfunc():
        return RatFunc(poly(), rng.choice((q + 1, t - 2, q * t + 1, q ** 2)))

    lau = [RingMatrix(_random_sparse_rows(rng, dim, poly), "laurent") for _ in range(2)]
    rat = [RingMatrix(_random_sparse_rows(rng, dim, ratfunc), "ratfunc") for _ in range(2)]
    for a, b in (lau, rat, (lau[0], rat[1]), (rat[0], lau[1])):
        ring = "laurent" if a.ring == b.ring == "laurent" else "ratfunc"
        product = a * b
        assert product.ring == ring
        expected = _dense_product(a.rows, b.rows)
        assert product == RingMatrix(expected, ring)
        assert product.to_json_dict() == RingMatrix(expected, ring).to_json_dict()


def test_product_entries_that_cancel_are_the_ring_zero():
    a = RingMatrix([[1, 1, 0], [q, 0, 1], [0, 0, 1]])
    b = RingMatrix([[t, q, 0], [-t, 1, 0], [-q * t, 0, 0]])
    for x, y in ((a, b), (a.to_ratfunc(), b.to_ratfunc()), (a, b.to_ratfunc())):
        product = x * y
        kind = LaurentPoly if product.ring == "laurent" else RatFunc
        # (0, 0) is t - t, (1, 0) is q*t - q*t; the last column has no terms.
        for i, j in ((0, 0), (1, 0), (0, 2), (1, 2), (2, 2)):
            entry = product[i, j]
            assert type(entry) is kind and entry == 0 and not entry
            assert entry == zero_matrix(3, product.ring)[i, j]
            assert product.to_json_dict()["rows"][i][j] == "0"
        assert product[0, 1] == q + 1
    assert zero_matrix(3) * a == zero_matrix(3)


@pytest.mark.parametrize("ring", ["laurent", "ratfunc"])
def test_sparse_mul_copies_the_left_entry_across_a_shared_one(ring):
    """Where the right entry is the ring's shared one, the product entry is the
    left entry itself; a unit that is another object is multiplied, as is
    every other entry."""
    lift = (lambda e: e) if ring == "laurent" else (lambda e: RatFunc(e, q + 1))
    one = matrix.ONES[ring]
    other_one = integer(1) if ring == "laurent" else RatFunc(integer(1))
    assert other_one == one and other_one is not one
    a, b, c = lift(q + 2 * t), lift(variable("t", -1) - q), lift(u * v)
    left = [{0: a, 1: b}, {1: c}]
    out = matrix.sparse_mul(left, [{0: one}, {0: b, 1: other_one}])
    assert out == [{0: a + b * b, 1: b}, {0: c * b, 1: c}]
    assert out[1][1] is not c
    assert matrix.sparse_mul(left, [{0: b}, {1: one}])[1][1] is c


def test_sparse_mul_of_integer_rows():
    """Integer rows, as the extension solver multiplies them, hold no shared
    one: every entry is a plain product."""
    left = [{0: 2, 1: -3}, {1: 1}]
    right = [{0: 1, 1: 5}, {0: 7, 1: 1}]
    assert matrix.sparse_mul(left, right) == [{0: 2 - 21, 1: 10 - 3}, {0: 7, 1: 1}]
    assert matrix.sparse_mul([{0: 2, 1: 1}], [{0: 1}, {0: -2}]) == [{}]


def _dense_horner(a, coeffs):
    """A^(d-1) + c_1 A^(d-2) + ... + c_(d-1) I as dense lists, from powers of A
    formed by dense products and summed term by term."""
    dim = len(a)
    power = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
    total = [[ZERO] * dim for _ in range(dim)]
    for c in reversed(coeffs[:-1]):  # c_(d-1) with A^0 first, c_0 = 1 with A^(d-1) last
        total = [[x + c * y for x, y in zip(tr, pr)] for tr, pr in zip(total, power)]
        power = _dense_product(power, a)
    return total


@pytest.mark.parametrize("seed", range(8))
def test_horner_rows_match_dense_evaluation(seed):
    """horner_rows against dense powers, for random coefficients and for
    Berkowitz's, where A * B = -c_d I (Cayley-Hamilton)."""
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    a = [[integer(e) if isinstance(e, int) else e for e in row]
         for row in _random_sparse_rows(rng, dim, lambda: rand_poly(rng, terms=2, laurent=True))]
    rows = sparse_rows(a)
    randoms = [ONE] + [rand_poly(rng, terms=2, laurent=True) for _ in range(rng.randint(1, 4))]
    charpoly = matrix._berkowitz(rows)
    for coeffs in (randoms, charpoly):
        assert matrix.horner_rows(rows, coeffs) == sparse_rows(_dense_horner(a, coeffs)), coeffs
    b = RingMatrix.from_sparse(matrix.horner_rows(rows, charpoly), "laurent")
    assert RingMatrix(a) * b == RingMatrix.identity(dim).scalar_mul(-charpoly[-1])


def test_det_golden():
    assert LKB3_SIGMA1.det() == -t * q ** 3
    assert RingMatrix.identity(4).det() == 1


def test_det_multiplicative_random():
    rng = random.Random(13)
    for _ in range(200):
        dim = rng.randint(2, 3)
        a = RingMatrix(
            [[rand_poly(rng, terms=2, max_exp=1) for _ in range(dim)] for _ in range(dim)]
        )
        b = RingMatrix(
            [[rand_poly(rng, terms=2, max_exp=1) for _ in range(dim)] for _ in range(dim)]
        )
        assert (a * b).det() == a.det() * b.det()


def test_bareiss_and_cofactor_agree():
    rng = random.Random(23)
    for dim in range(2, 7):
        for _ in range(6):
            a = RingMatrix(
                [
                    [rand_poly(rng, terms=2, max_exp=1, max_coeff=2) for _ in range(dim)]
                    for _ in range(dim)
                ]
            )
            assert RatFunc(a.det()) == a.to_ratfunc().det()


def test_inverse():
    ident = RingMatrix.identity(3, "ratfunc")
    for m in (LKB3_SIGMA1, MIXED_DENOMINATORS):
        inv = m.inverse()
        assert m * inv == ident
        assert inv * m == ident
    # determinant is a unit, so the inverse stays Laurent
    assert all(e.den.is_one() for row in LKB3_SIGMA1.inverse().rows for e in row)
    assert RingMatrix.identity(3).inverse() == ident
    assert RingMatrix([[q]]).inverse() == RingMatrix([[RatFunc(1, q)]])
    rank_one = RingMatrix([[q, 1], [q ** 2, q]])
    for singular in (zero_matrix(3), rank_one, rank_one.to_ratfunc()):
        with pytest.raises(SingularMatrixError):
            singular.inverse()


def test_inverse_of_word_images():
    rng = random.Random(5)
    for make in (lkb, exterior_square_burau):
        for n in (3, 4):
            rep = make(n)
            ident = RingMatrix.identity(rep.dim)
            for _ in range(3):
                word = BraidWord(
                    n, tuple((rng.randint(1, n - 1), rng.choice((1, -1)))
                             for _ in range(rng.randint(1, 5)))
                )
                image = rep_apply(rep, word)
                assert image * image.inverse() == ident
                assert image.inverse() == rep_apply(rep, word.inverse())


def test_inverse_of_wedge_generator():
    # Exterior-square generator image for n=3 and its exact inverse.  The
    # (1,1) entry is -1/q; the corresponding published matrix has -1/(q-1)
    # there, following its (1-q) diagonal typo (see the golden diff tests).
    g1 = RingMatrix([[-q, 0, 0], [0, 1 - q, q], [0, 1, 0]])
    inv = g1.inverse()
    expected = RingMatrix(
        [
            [RatFunc(-1, q), RatFunc(0), RatFunc(0)],
            [RatFunc(0), RatFunc(0), RatFunc(1)],
            [RatFunc(0), RatFunc(1, q), RatFunc(q - 1, q)],
        ],
        "ratfunc",
    )
    assert inv == expected


def test_ratfunc_det_with_mixed_row_denominators():
    # The inverse has rows over q + 2 and (q + 2)(q^2 - 1) (one multiple of
    # the other) and over q^2 - 1, so rows carry different denominators.
    a = RingMatrix([[q + 2, 1, 0], [0, q, 1], [0, 1, q]])
    assert a.inverse().det() == RatFunc(1) / a.det()
    m = MIXED_DENOMINATORS
    (a, b, c), (d, e, f), (g, h, i) = m.rows
    assert m.det() == a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_det_and_charpoly_match_sympy_on_lkb_images():
    """Also checks the LKB invariant, which shares _berkowitz with
    RingMatrix.charpoly, against sympy."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(99)
    x = sympy.Symbol("x")

    def rational(f: Fraction):
        return sympy.Rational(f.numerator, f.denominator)

    for n in (3, 4):
        rep = lkb(n)
        words = [
            BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1)))
                               for _ in range(rng.randint(1, 4))))
            for _ in range(3)
        ]
        # Single letters give the sparse generator images and their inverses.
        words += [BraidWord(n, ((i, s),)) for i in range(1, n) for s in (1, -1)]
        for word in words:
            image = rep_apply(rep, word)
            cp, det, dim = image.charpoly(), image.det(), image.dim
            invariant = charpoly_invariant(n, word).poly
            point = {"q": Fraction(rng.randint(2, 9), rng.randint(1, 5)),
                     "t": Fraction(-rng.randint(2, 9), rng.randint(1, 5))}
            numeric = sympy.Matrix([[rational(e) for e in row]
                                    for row in image.evaluate(point)])
            assert rational(det.evaluate(point)) == numeric.det()
            # sympy gives det(x*I - A), ours is det(A - w*I); agreement at
            # dim + 1 values of w fixes every coefficient.
            ref = numeric.charpoly(x).as_expr()
            for wv in range(dim + 1):
                expected = (-1) ** dim * ref.subs(x, wv)
                assert rational(cp.evaluate({**point, "w": wv})) == expected
                assert rational(invariant.evaluate({**point, "w": wv})) == expected


def test_charpoly_goldens():
    m = LKB3_SIGMA1 * LKB3_SIGMA2
    assert m.charpoly() == q ** 6 * t ** 2 - w ** 3
    assert RingMatrix.identity(3).charpoly() == (1 - w) ** 3
    trefoil = LKB3_SIGMA1 * LKB3_SIGMA1 * LKB3_SIGMA1 * LKB3_SIGMA2
    assert trefoil.charpoly() == q ** 12 * t ** 4 - w ** 3


def test_charpoly_degree_and_leading_coefficient():
    m = LKB3_SIGMA1 * LKB3_SIGMA2
    cp = m.charpoly()
    assert cp.degree("w") == 3
    w_cubed = {mono: c for mono, c in cp.exponent_terms().items() if len(mono) > 2 and mono[2] == 3}
    assert w_cubed == {(0, 0, 3): -1}


def test_charpoly_rejects_entries_in_w():
    with pytest.raises(ValueError):
        RingMatrix([[w]]).charpoly()


def test_charpoly_similarity_at_random_points():
    rng = random.Random(41)

    def fraction_charpoly(rows, at_w):
        dim = len(rows)
        m = [[rows[i][j] - (at_w if i == j else 0) for j in range(dim)] for i in range(dim)]
        det = Fraction(1)
        for col in range(dim):
            pivot = next((r for r in range(col, dim) if m[r][col]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, dim):
                f = m[r][col] * inv
                if f:
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return det

    for _ in range(20):
        a = RingMatrix(
            [[rand_poly(rng, terms=2, max_exp=1) for _ in range(3)] for _ in range(3)]
        )
        cp = a.charpoly()
        point = {"q": Fraction(rng.randint(2, 7)), "t": Fraction(rng.randint(2, 7))}
        a_num = [list(row) for row in a.evaluate(point)]
        # random invertible rational conjugator
        while True:
            p = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            dim = 3
            if fraction_charpoly(p, Fraction(0)):
                break
        p_inv_rows = RingMatrix(
            [[RatFunc.from_fraction(x) for x in row] for row in p], "ratfunc"
        ).inverse()
        p_inv = [[e.evaluate({}) for e in row] for row in p_inv_rows.rows]
        conj = [
            [
                sum(
                    p_inv[i][k] * a_num[k][l] * p[l][j]
                    for k in range(3)
                    for l in range(3)
                )
                for j in range(3)
            ]
            for i in range(3)
        ]
        for wv in (Fraction(0), Fraction(1), Fraction(3, 2)):
            expected = cp.evaluate({**point, "w": wv})
            assert fraction_charpoly(conj, wv) == expected


def _ref_sparse_dot(pairs, vec):
    """Sum of x * vec[j] over the (j, x) pairs."""
    acc = ZERO
    for j, x in pairs:
        y = vec[j]
        if y:
            acc = acc + x * y
    return acc


def _ref_berkowitz(rows):
    """Berkowitz's algorithm with every product a LaurentPoly * and every sum
    a +: the reference for the library's one-accumulator version."""
    dim = len(rows)
    nonzero = sparse_rows(rows)
    poly = [ONE, -rows[-1][-1]]
    for k in range(dim - 2, -1, -1):
        m = dim - k - 1
        r = [(j, e) for j, e in nonzero[k].items() if j > k]
        # vec is indexed by column; its first k + 1 entries are never read.
        vec = [ZERO] * (k + 1) + [row[k] for row in rows[k + 1:]]
        s = [rows[k][k]] + [ZERO] * m
        if r and any(vec):
            block = [[(j, e) for j, e in nonzero[i].items() if j > k]
                     for i in range(k + 1, dim)]
            s[1] = _ref_sparse_dot(r, vec)
            for i in range(2, m + 1):
                vec[k + 1:] = [_ref_sparse_dot(row, vec) for row in block]
                s[i] = _ref_sparse_dot(r, vec)
        s_nonzero = [(j, x) for j, x in enumerate(s) if x]
        new = [ONE]
        for i in range(1, m + 2):
            acc = _ref_sparse_dot([(i - 1 - j, x) for j, x in s_nonzero if j < i], poly)
            new.append(poly[i] - acc if i <= m else -acc)
        poly = new
    return poly


def _dense(rows):
    """The dense rows of a matrix given by its sparse rows."""
    return [[row.get(j, ZERO) for j in range(len(rows))] for row in rows]


def _ref_berkowitz_sparse(rows):
    """_ref_berkowitz on the library kernel's argument, sparse rows."""
    return _ref_berkowitz(_dense(rows))


def _assert_berkowitz_matches_reference(rows):
    """On sparse rows, the full run and the run truncated at every top give
    the reference's coefficients c_0 .. c_top, and leave the rows as they were."""
    before = [dict(row) for row in rows]
    ref = _ref_berkowitz(_dense(rows))
    assert matrix._berkowitz(rows) == ref
    for top in range(len(rows) + 1):
        assert matrix._berkowitz(rows, top) == ref[:top + 1], top
    assert rows == before


@pytest.mark.parametrize("seed", range(8))
def test_det_factors_out_rows_with_only_a_diagonal_entry(seed):
    """Such rows planted in random sparse Laurent matrices, up to all of them,
    which leaves no Berkowitz run: the determinant is the sign-corrected last
    coefficient of an untruncated _berkowitz run on the whole matrix, and the
    rows are left as they were.  So is the first tau's of lkb_ext(n)."""
    rng = random.Random(seed)
    dim = rng.randint(1, 7)
    rows = sparse_rows(_random_sparse_rows(rng, dim, lambda: rand_poly(rng, terms=2, laurent=True)))
    for k in rng.sample(range(dim), rng.randint(1, dim)):
        rows[k] = {k: rand_poly(rng, terms=2, laurent=True) or q}
    cases = [rows, lkb_ext(seed % 4 + 2).letter_rows((1, 0))]
    for rows in cases:
        before = [dict(row) for row in rows]
        c = matrix._berkowitz(rows)[-1]
        assert matrix._det_laurent(rows) == (-c if len(rows) % 2 else c)
        assert rows == before

def test_berkowitz_matches_reference_on_word_images(monkeypatch):
    """On rep_apply images, whose unit entries are the ring's shared one, and
    through det and inverse, against the reference put in the kernel's place."""
    rng = random.Random(13)
    for make in (burau, lkb, exterior_square_burau):
        for n in range(2, 6):
            # An 8-letter LKB image at n = 5 takes seconds per Berkowitz run.
            top = 5 if make is lkb and n == 5 else 8
            for length in (rng.randint(1, top - 1), top):
                image = rep_apply(make(n), rand_classical_word(rng, n, length))
                _assert_berkowitz_matches_reference(image.sparse)
                det, inverse = image.det(), image.inverse()
                with monkeypatch.context() as patch:
                    patch.setattr(matrix, "_berkowitz", _ref_berkowitz_sparse)
                    assert image.det() == det and image.inverse() == inverse
            # One-letter words give the letters' stored rows themselves.
            for letter in ((i, s) for i in range(1, n) for s in (1, -1)):
                rows = rep_apply(make(n), BraidWord(n, (letter,))).sparse
                assert rows is make(n).letter_rows(letter)
                _assert_berkowitz_matches_reference(rows)


@pytest.mark.parametrize("seed", range(10))
def test_berkowitz_matches_reference_on_random_sparse_matrices(seed):
    rng = random.Random(seed)
    dim = rng.randint(2, 6)
    rows = _random_sparse_rows(rng, dim, lambda: rand_poly(rng, terms=2, laurent=True))
    rows = [[integer(e) if isinstance(e, int) else e for e in row] for row in rows]
    i, j = rng.sample(range(dim), 2)
    zero_row = [row[:] for row in rows]
    zero_row[i] = [ZERO] * dim
    zero_column = [[ZERO if c == j else e for c, e in enumerate(row)] for row in rows]
    # Row i is -x times row j, so the determinant's terms cancel to zero.
    x = rand_poly(rng, terms=2, laurent=True) or ONE
    cancelling = [row[:] for row in rows]
    cancelling[i] = [-x * e for e in rows[j]]
    for variant in (rows, zero_row, zero_column, cancelling):
        _assert_berkowitz_matches_reference(sparse_rows(variant))
    assert not matrix._berkowitz(sparse_rows(cancelling))[-1]


def _json_round_trip(m: RingMatrix) -> RingMatrix:
    return RingMatrix.from_json_dict(json.loads(json.dumps(m.to_json_dict(), sort_keys=True)))


def test_json_round_trip():
    assert _json_round_trip(LKB3_SIGMA1) == LKB3_SIGMA1
    rat = LKB3_SIGMA1.inverse()
    assert _json_round_trip(rat) == rat
    data = LKB3_SIGMA1.to_json_dict()
    assert data["dim"] == 3 and data["ring"] == "laurent"


def test_equal_values_hash_alike():
    pairs = [
        (RingMatrix.identity(2), RingMatrix.identity(2).to_ratfunc()),
        (integer(3), 3),
        (integer(0), 0),
        (RatFunc(q + 1), q + 1),
        (RatFunc.from_fraction(Fraction(1, 2)), Fraction(1, 2)),
        (RatFunc(-3, 4), Fraction(-3, 4)),
    ]
    for a, b in pairs:
        assert a == b
        assert b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    # Seeded sparse matrices, built from dense rows, from their sparse rows and
    # over the fraction field; one changed entry makes each of them unequal.
    rng = random.Random(7)
    for _ in range(12):
        dim = rng.randint(1, 4)
        dense = _random_sparse_rows(rng, dim, lambda: rand_poly(rng, terms=2, laurent=True))
        built = RingMatrix(dense, "laurent")
        same = (built, RingMatrix.from_sparse(sparse_rows(dense), "laurent"), built.to_ratfunc())
        assert all(a == b and hash(a) == hash(b) for a in same for b in same)
        assert len(set(same)) == 1
        i, j = rng.randrange(dim), rng.randrange(dim)
        dense[i][j] = dense[i][j] + 1
        changed = RingMatrix(dense, "laurent")
        for m in (changed, changed.to_ratfunc()):
            assert all(a != m and m != a for a in same)


def test_index_reads_the_ring_zero_inside_and_raises_outside():
    for m in (LKB3_SIGMA1, LKB3_SIGMA1.to_ratfunc()):
        kind = LaurentPoly if m.ring == "laurent" else RatFunc
        for i, j in ((0, 1), (0, 2), (2, 0), (2, 2)):
            assert type(m[i, j]) is kind and m[i, j] == 0 and not m[i, j]
        assert m[2, 1] == m[-1, -2] == 1 and m[0, 0] == t * q ** 2
        for index in ((3, 0), (0, 3), (-4, 0), (0, -4)):
            with pytest.raises(IndexError):
                m[index]


def test_from_sparse_keeps_its_rows():
    rows = [{0: q}, {1: t}]
    m = RingMatrix.from_sparse(rows, "laurent")
    assert m.sparse is rows and m == RingMatrix([[q, 0], [0, t]])


def _stored_in_its_ring(m: RingMatrix) -> bool:
    """Every stored entry is nonzero and of the matrix ring's type."""
    kind = LaurentPoly if m.ring == "laurent" else RatFunc
    return all(type(e) is kind and e for row in m.sparse for e in row.values())


def test_to_ratfunc_and_scalar_mul_match_a_dense_reference():
    rng = random.Random(5)
    for _ in range(8):
        dim = rng.randint(1, 4)
        m = RingMatrix(_random_sparse_rows(rng, dim, lambda: rand_poly(rng, terms=2, laurent=True)),
                       "laurent")
        rat = RingMatrix([[RatFunc(e) for e in row] for row in m.rows], "ratfunc")
        results = [(m.to_ratfunc(), rat)]
        results += [(m.scalar_mul(s), RingMatrix([[s * e for e in row] for row in m.rows],
                                                 "laurent"))
                    for s in (0, 2, q - t)]
        results += [(m.scalar_mul(s), RingMatrix([[coerce_entry("ratfunc", s) * e for e in row]
                                                  for row in rat.rows], "ratfunc"))
                    for s in (RatFunc(1, q + 1), Fraction(-1, 3))]
        for got, expected in results:
            assert got == expected and got.ring == expected.ring
            assert got.to_json_dict() == expected.to_json_dict()
            assert _stored_in_its_ring(got)
        assert m.scalar_mul(0).sparse == [{}] * dim


def test_library_matrices_store_entries_of_their_ring():
    """The multiplicative defect, an image over the fraction field and the
    differences of failing relations, in either ring."""
    result = defect(3, BraidWord.parse(3, "1 -2"))
    image = rep_apply(lkb_ext(3, Fraction(1, 2)), BraidWord.parse(3, "t1 2 -1 t2"))
    assert (result.multiplicative.ring, image.ring) == ("ratfunc", "ratfunc")
    matrices = [result.additive, result.multiplicative, image]
    for rep in (lkb(3), lkb_ext(3, Fraction(1, 2))):
        rows = [dict(row) for row in rep.letter_rows((1, 1))]
        rows[0] = {**rows[0], 1: coerce_entry(rep.ring, 1)}
        corrupted = MatrixRep("corrupted", 3, 3, rep.ring, {**rep.rows, (1, 1): rows},
                              scale=rep.scale)
        report = verify_relations(corrupted)
        assert report.failures
        matrices += [c.difference for c in report.failures]
    assert all(_stored_in_its_ring(m) for m in matrices)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        RingMatrix([[q, q]])
    a2 = RingMatrix.identity(2)
    with pytest.raises(ValueError):
        a2 + RingMatrix.identity(3)


def test_entries_outside_the_ring_rejected():
    for rows, ring in (([[Fraction(1, 2)]], "laurent"), ([[RatFunc(q)]], "laurent"),
                       ([["q"]], "laurent"), ([[1.5]], "ratfunc")):
        with pytest.raises(TypeError):
            RingMatrix(rows, ring)
    with pytest.raises(TypeError):
        RingMatrix.identity(2).scalar_mul("q")
    # Group-algebra coefficients are coerced into the fraction field the same way.
    unit = GroupAlgebraElem.unit(3)
    assert unit.scalar_mul(Fraction(1, 2)) == unit.scalar_mul(RatFunc(1, 2))
    for bad in ("q", 1.5, None):
        with pytest.raises(TypeError):
            unit.scalar_mul(bad)

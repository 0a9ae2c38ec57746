import math
import random
import time
from fractions import Fraction

import pytest

from braidrep.braid import BraidWord
from braidrep.matrix import RingMatrix
from braidrep.ring import integer, variable
from braidrep.tl import (
    TLDiagram,
    TLElem,
    compose_diagrams,
    invertibility_check,
    is_planar,
    tl_basis,
    tl_generator,
    tl_rho,
    tl_unit,
    verify_tl_relations,
)

t = variable("t")
a = variable("a")
b = variable("b")
DELTA = -variable("t", 2) - variable("t", -2)
B = BraidWord.parse


def test_diagram_construction():
    u1 = TLDiagram.cup_cap(2, 1)
    assert u1.match == (1, 0, 3, 2)
    ident = TLDiagram.identity(3)
    assert ident.match == (3, 4, 5, 0, 1, 2)
    assert u1.text() == "(1,2) (1',2')"
    with pytest.raises(ValueError):
        TLDiagram(2, (3, 2, 1, 0))  # crossing strands
    with pytest.raises(ValueError):
        TLDiagram.cup_cap(3, 3)


def test_planarity_predicate():
    assert is_planar(2, (1, 0, 3, 2))
    assert is_planar(2, (2, 3, 0, 1))
    assert not is_planar(2, (3, 2, 1, 0))  # crossing


def test_catalan_dimension():
    for n in range(2, 7):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert len(tl_basis(n)) == catalan


def test_generator_square_and_absorption():
    for n in range(2, 7):
        e = tl_unit(n)
        for i in range(1, n):
            u = tl_generator(n, i)
            assert u * u == u.scalar_mul(DELTA)
            assert e * u == u and u * e == u
            for j in range(1, n):
                w = tl_generator(n, j)
                if abs(i - j) == 1:
                    assert u * w * u == u
                elif abs(i - j) > 1:
                    assert u * w == w * u


def test_products_with_the_unit_skip_the_composition(monkeypatch):
    """A term pair with the identity diagram on either side gives the other
    diagram without a composition: the relation checks at n = 4 and 5 compose
    180 pairs (600 without the shortcut), none with the identity, and every
    product equals the one that composes every pair."""
    pairs, compose = [], TLElem._basis_mul
    monkeypatch.setattr(TLElem, "_basis_mul",
                        staticmethod(lambda d1, d2: pairs.append((d1, d2)) or compose(d1, d2)))
    assert verify_tl_relations(4).all_ok and verify_tl_relations(5).all_ok
    assert len(pairs) == 180
    assert not any(TLDiagram.identity(d.n) == d for pair in pairs for d in pair)

    rng = random.Random("tl-unit-products")
    for n in (2, 3, 4):
        basis = tl_basis(n)
        for _ in range(10):
            x, y = (TLElem(n, {d: rng.randint(-3, 3) for d in rng.sample(basis, 2)})
                    + tl_unit(n).scalar_mul(rng.randint(1, 3)) for _ in range(2))
            expected = TLElem(n)
            for d1, c1 in x.terms.items():
                for d2, c2 in y.terms.items():
                    d, loops = compose_diagrams(d1, d2)
                    expected = expected + TLElem(n, {d: c1 * c2 * DELTA ** loops})
            assert x * y == expected


def test_compose_counts_loops():
    u1 = TLDiagram.cup_cap(2, 1)
    diagram, loops = compose_diagrams(u1, u1)
    assert diagram == u1 and loops == 1


def test_multiplication_associative_on_random_elements():
    rng = random.Random(31415)
    for n in (3, 4, 5):
        basis = tl_basis(n)
        for _ in range(25):
            x, y, z = (TLElem(n, {rng.choice(basis): 1}) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_rho_generator_images():
    r = tl_rho(2, B(2, "1"))
    expected = tl_generator(2, 1).scalar_mul(variable("t", -1)) + tl_unit(2).scalar_mul(t)
    assert r == expected
    rt = tl_rho(2, B(2, "t1"))
    assert rt == tl_generator(2, 1).scalar_mul(a) + tl_unit(2).scalar_mul(b)


def test_rho_inverse_crossings_cancel():
    for n in (2, 3, 5):
        for i in range(1, n):
            assert tl_rho(n, B(n, f"{i} -{i}")) == tl_unit(n)
            assert tl_rho(n, B(n, f"-{i} {i}")) == tl_unit(n)


def test_rho_relation_suites():
    for n in (2, 3, 4, 5):
        report = verify_tl_relations(n)
        assert report.all_ok, f"n={n}: {report.summary()}"


def test_rho_rational_parameters():
    elem = tl_rho(2, B(2, "t1"), Fraction(2), Fraction(-3))
    assert elem == tl_generator(2, 1).scalar_mul(2) + tl_unit(2).scalar_mul(-3)


def test_invertibility_checker():
    ident = invertibility_check(3, 0, 1)
    assert ident.invertible_over_field and ident.invertible_over_ring
    bare = invertibility_check(3, 1, 0)  # a cup-cap alone is never invertible
    assert not bare.invertible_over_field
    generic = invertibility_check(4, Fraction(1, 2), Fraction(1, 3))
    assert generic.invertible_over_field
    crossing_like = invertibility_check(3, 1, 1)
    assert isinstance(crossing_like.invertible_over_field, bool)


def _left_multiplication_det(n, a, b):
    """Reference for invertibility_check: the determinant of left
    multiplication by the scaled a*u_1 + b*e on the diagram basis, and the scale."""
    af, bf = Fraction(a), Fraction(b)
    scale = math.lcm(af.denominator, bf.denominator)
    ai, bi = int(af * scale), int(bf * scale)
    elem = TLElem.generator(n, 1).scalar_mul(ai) + TLElem.unit(n).scalar_mul(bi)
    basis = tl_basis(n)
    index = {d: k for k, d in enumerate(basis)}
    dim = len(basis)
    rows = [[integer(0)] * dim for _ in range(dim)]
    for col, diag in enumerate(basis):
        product = elem * TLElem(n, {diag: 1})
        for d, c in product.terms.items():
            rows[index[d]][col] = c
    return RingMatrix(rows).det(), scale


def test_invertibility_matches_the_left_multiplication_determinant():
    rng = random.Random("tl-invertibility")
    values = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]
    for n in range(2, 7):
        pairs = [(0, 0), (0, -2), (1, 0), (-1, 1)]
        pairs += [(rng.choice(values), rng.choice(values)) for _ in range(2 if n == 6 else 6)]
        for x, y in pairs:
            det, scale = _left_multiplication_det(n, x, y)
            report = invertibility_check(n, x, y)
            assert (report.det_scaled, report.scale) == (det, scale), (n, x, y)
            assert report.invertible_over_field == (not det.is_zero()), (n, x, y)
    with pytest.raises(ValueError):
        invertibility_check(1, 1, 1)  # u_1 needs two strands


def test_u1_is_triangular_on_the_diagram_basis():
    # u_1 D = DELTA*D for the Catalan(n-1) diagrams D with top arc (1, 2), and
    # u_1 D is one such diagram for every other D.
    for n in range(2, 8):
        u1 = tl_generator(n, 1)
        with_arc = [d for d in tl_basis(n) if d.match[0] == 1]
        assert len(with_arc) == len(tl_basis(n - 1)) == math.comb(2 * n - 2, n - 1) // n
        for d in tl_basis(n):
            product = u1 * TLElem(n, {d: 1})
            if d.match[0] == 1:
                assert product == TLElem(n, {d: 1}).scalar_mul(DELTA)
            else:
                (image, coeff), = product.terms.items()
                assert image.match[0] == 1 and coeff == 1


@pytest.mark.parametrize("x,y,unit", [
    (0, 1, True), (0, -1, True),
    (0, 2, False), (0, Fraction(1, 2), False), (1, 0, False), (1, 1, False),
])
def test_invertibility_over_the_laurent_ring(x, y, unit):
    # Only +-t^k are units of Z[t^+-1]; an element with a rational coefficient
    # that is not an integer is not in the ring's algebra at all.
    assert invertibility_check(3, x, y).invertible_over_ring is unit


def test_invertibility_check_on_eight_strands_is_fast():
    start = time.perf_counter()
    report = invertibility_check(8, 3, -2)
    assert time.perf_counter() - start < 2
    assert report.invertible_over_field and not report.invertible_over_ring


def test_invertibility_verdicts_expand_no_determinant():
    # Catalan(11) = 58786: the determinant would have 117573 terms, and the
    # verdicts read only the scaled a and b.
    start = time.perf_counter()
    report = invertibility_check(12, 3, -2)
    verdicts = (report.invertible_over_field, report.invertible_over_ring)
    assert time.perf_counter() - start < 0.5
    assert verdicts == (True, False)
    assert invertibility_check(12, 0, -1).invertible_over_ring
    assert not invertibility_check(12, 3, 0).invertible_over_field


def test_elem_string_is_deterministic():
    elem = tl_rho(3, B(3, "1 t2"))
    assert str(elem) == str(tl_rho(3, B(3, "1 t2")))


@pytest.mark.parametrize("match", [
    (3, 2, 1, 0),        # crossing strands
    (1, 0),              # too few points
    (0, 1, 2, 3),        # a point matched to itself
    (1, 0, 3, 4),        # a partner out of range
    (1, 2, 3, 0),        # not an involution
])
def test_public_diagram_rejects_non_planar_or_malformed_matchings(match):
    with pytest.raises(ValueError):
        TLDiagram(2, match)


def test_products_of_diagrams_are_planar():
    basis = tl_basis(4)
    for top in basis:
        for bottom in basis:
            diagram, _ = compose_diagrams(top, bottom)
            assert is_planar(4, diagram.match)
            assert diagram == TLDiagram(4, diagram.match) and diagram in basis


@pytest.fixture
def generator_builds(monkeypatch):
    """The index of every generator u_i the algebra map builds."""
    calls = []
    build = TLElem.generator

    def counting(cls, n, i):
        calls.append(i)
        return build(n, i)

    monkeypatch.setattr(TLElem, "generator", classmethod(counting))
    return calls


def test_tl_rho_builds_only_the_letters_it_uses(generator_builds):
    tl_rho(1000, B(1000, "1 -2 t3"))
    assert sorted(generator_builds) == [1, 2, 3]
    generator_builds.clear()
    tl_rho(4, B(4, "1 1 t2 -1 t2 1"))
    assert sorted(generator_builds) == [1, 1, 2]


def test_tl_verifier_builds_each_letter_image_once(generator_builds):
    assert verify_tl_relations(4).all_ok
    assert sorted(generator_builds) == [1, 1, 1, 2, 2, 2, 3, 3, 3]

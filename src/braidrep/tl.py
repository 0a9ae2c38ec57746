"""Temperley-Lieb algebra on planar diagrams and its singular-braid image.

A diagram on n strands is a noncrossing perfect matching of 2n boundary
points: indices 0..n-1 are the top points left to right, indices n..2n-1
the bottom points left to right (bottom point j' has index n + j - 1).
Reading the boundary cyclically (top left to right, then bottom right to
left) a matching is planar exactly when it is a balanced bracket sequence,
which is also how diagrams are enumerated; their number is the n-th Catalan
number.

Multiplication concatenates diagrams (left factor on top), and every closed
loop produced in the middle contributes the scalar -t^2 - t^-2.  The map

    sigma_i   ->  t^-1 u_i + t e
    sigma_i^-1->  t u_i + t^-1 e
    tau_i     ->  a u_i + b e

sends singular braid words to elements of the algebra, each letter's image
built once per call.  An element is a TLElem, the reps.LinComb whose keys are
diagrams and whose coefficients are Laurent polynomials.  A diagram given to
TLDiagram is checked for planarity; a product of diagrams is planar by
construction and is not re-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator

from .braid import BraidWord, Letter, word_image
from .reps import LinComb, Param, RelationReport, _resolve_param, _verify
from .ring import LaurentPoly, integer, variable

# Loop scalar of the algebra, fixed by the square of a generator.
LOOP = -variable("t", 2) - variable("t", -2)


def _boundary_order(n: int) -> list[int]:
    """Diagram indices in cyclic boundary order: top 0..n-1, then bottom reversed."""
    return list(range(n)) + list(range(2 * n - 1, n - 1, -1))


def is_planar(n: int, match: tuple[int, ...]) -> bool:
    if len(match) != 2 * n:
        return False
    if any(match[i] == i or not 0 <= match[i] < 2 * n or match[match[i]] != i
           for i in range(2 * n)):
        return False
    order = _boundary_order(n)
    position = {idx: k for k, idx in enumerate(order)}
    stack: list[int] = []
    for idx in order:
        partner = match[idx]
        if position[partner] > position[idx]:
            stack.append(partner)
        elif stack.pop() != idx:
            return False
    return True


@dataclass(frozen=True)
class TLDiagram:
    """Noncrossing perfect matching on 2n boundary points."""

    n: int
    match: tuple[int, ...]

    def __post_init__(self):
        if not is_planar(self.n, self.match):
            raise ValueError("matching is not a planar perfect matching")

    @classmethod
    def _planar(cls, n: int, match: tuple[int, ...]) -> TLDiagram:
        """A diagram planar by construction, such as a product, built without the check."""
        diagram = object.__new__(cls)
        diagram.__dict__.update(n=n, match=match)
        return diagram

    @classmethod
    def identity(cls, n: int) -> TLDiagram:
        return cls._planar(n, tuple(list(range(n, 2 * n)) + list(range(n))))

    @classmethod
    def cup_cap(cls, n: int, i: int) -> TLDiagram:
        """The generator diagram u_i: arcs (i, i+1) on top and on the bottom."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for n={n}")
        match = list(range(n, 2 * n)) + list(range(n))
        match[i - 1], match[i] = i, i - 1
        match[n + i - 1], match[n + i] = n + i, n + i - 1
        return cls(n, tuple(match))

    def arcs(self) -> list[tuple[int, int]]:
        return sorted((i, p) for i, p in enumerate(self.match) if i < p)

    def text(self) -> str:
        """Arcs as point pairs, top points 1..n and bottom points 1'..n'."""
        def name(idx: int) -> str:
            return str(idx + 1) if idx < self.n else f"{idx - self.n + 1}'"

        return " ".join(f"({name(i)},{name(j)})" for i, j in self.arcs())

    def __lt__(self, other: TLDiagram):
        return (self.n, self.match) < (other.n, other.match)

    def __str__(self):
        return self.text()


@cache
def tl_basis(n: int) -> tuple[TLDiagram, ...]:
    """All diagrams on n strands; there are Catalan(n) of them."""
    order = _boundary_order(n)

    def nested(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not points:
            yield ()
            return
        first = points[0]
        for k in range(1, len(points), 2):
            inside, outside = points[1:k], points[k + 1:]
            for left in nested(inside):
                for right in nested(outside):
                    yield ((first, points[k]),) + left + right

    diagrams = []
    for pairing in nested(tuple(order)):
        match = [0] * (2 * n)
        for x, y in pairing:
            match[x], match[y] = y, x
        diagrams.append(TLDiagram(n, tuple(match)))
    return tuple(sorted(diagrams))


def compose_diagrams(top: TLDiagram, bottom: TLDiagram) -> tuple[TLDiagram, int]:
    """Stack top over bottom, gluing the middle; returns (diagram, closed loops)."""
    if top.n != bottom.n:
        raise ValueError("strand count mismatch")
    n = top.n
    m1, m2 = top.match, bottom.match
    result = [-1] * (2 * n)
    visited_mid = [False] * n

    def walk(side: int, idx: int) -> int:
        # side 1 = inside top diagram, side 2 = inside bottom diagram
        while True:
            nxt = (m1 if side == 1 else m2)[idx]
            if side == 1:
                if nxt < n:
                    return nxt
                visited_mid[nxt - n] = True
                side, idx = 2, nxt - n
            else:
                if nxt >= n:
                    return nxt
                visited_mid[nxt] = True
                side, idx = 1, nxt + n

    for start in range(2 * n):
        if result[start] != -1:
            continue
        end = walk(1 if start < n else 2, start)
        result[start] = end
        result[end] = start
    loops = 0
    for i in range(n):
        if visited_mid[i]:
            continue
        loops += 1
        j = i
        while True:
            visited_mid[j] = True
            up = m1[n + j]          # follow the arc in the top diagram
            visited_mid[up - n] = True
            j = m2[up - n]          # then the arc in the bottom diagram
            if visited_mid[j] and j == i:
                break
    return TLDiagram._planar(n, tuple(result)), loops


def _coeff(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return integer(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return integer(int(value))
    raise ValueError(f"coefficient {value} is not an integer or a Laurent polynomial")


class TLElem(LinComb):
    """Linear combination of diagrams with Laurent-polynomial coefficients."""

    __slots__ = ()
    _coeff = staticmethod(_coeff)
    _identity = staticmethod(TLDiagram.identity)

    @staticmethod
    def _basis_mul(d1: TLDiagram, d2: TLDiagram) -> tuple[TLDiagram, LaurentPoly | None]:
        diag, loops = compose_diagrams(d1, d2)
        return diag, LOOP ** loops if loops else None

    @classmethod
    def generator(cls, n: int, i: int) -> TLElem:
        return cls(n, {TLDiagram.cup_cap(n, i): 1})


tl_unit = TLElem.unit
tl_generator = TLElem.generator


def _tl_fold(n: int, a: Param, b: Param) -> Callable[[BraidWord], TLElem]:
    """The image of words on n strands; a letter's image is built on first use."""
    t, tinv = variable("t"), variable("t", -1)
    # Letter sign -> coefficients of u_i and e.
    coeffs = {1: (tinv, t), -1: (t, tinv),
              0: (_coeff(_resolve_param(a, "a")), _coeff(_resolve_param(b, "b")))}

    @cache
    def letter_image(letter: Letter) -> TLElem:
        i, s = letter
        u, e = coeffs[s]
        return TLElem.generator(n, i).scalar_mul(u) + TLElem.unit(n).scalar_mul(e)

    return lambda word: word_image(word, letter_image, lambda: TLElem.unit(n))


def tl_rho(n: int, word: BraidWord, a: Param = None, b: Param = None) -> TLElem:
    """Image of a singular braid word under the map into the algebra."""
    if word.n != n:
        raise ValueError("strand count mismatch")
    return _tl_fold(n, a, b)(word)


def verify_tl_relations(n: int, a: Param = None, b: Param = None) -> RelationReport:
    """Push every SM_n defining relation through the algebra map."""
    return _verify("tl-rho", n, "SMn", _tl_fold(n, a, b))


@dataclass(frozen=True)
class TLInvertibility:
    """Invertibility report for a*u_1 + b*e at concrete rational (a, b)."""

    n: int
    a: Fraction
    b: Fraction
    det_scaled: LaurentPoly
    scale: int
    invertible_over_field: bool
    invertible_over_ring: bool


def invertibility_check(n: int, a: Fraction | int, b: Fraction | int) -> TLInvertibility:
    """Decide invertibility of a*u_1 + b*e from u_1^2 = LOOP*u_1.

    Scaled by the lcm of the parameter denominators, a and b are integers.  u_1
    takes each of the Catalan(n-1) diagrams with top arc (1, 2) to LOOP times
    itself and every other diagram to one of them, so left multiplication is
    triangular with determinant (b + a*LOOP)^Catalan(n-1) * b^(Catalan(n) -
    Catalan(n-1)).  Nonzero means invertible over Q(t); over the Laurent ring
    the scale must be 1 and the determinant a unit, +-t^k.
    """
    if n < 2:
        raise ValueError(f"generator index 1 out of range for n={n}")
    af, bf = Fraction(a), Fraction(b)
    scale = math.lcm(af.denominator, bf.denominator)
    ai, bi = int(af * scale), int(bf * scale)
    with_arc, total = (math.comb(2 * k, k) // (k + 1) for k in (n - 1, n))  # Catalan numbers
    det = (integer(bi) + integer(ai) * LOOP) ** with_arc * integer(bi) ** (total - with_arc)
    return TLInvertibility(
        n=n,
        a=af,
        b=bf,
        det_scaled=det,
        scale=scale,
        invertible_over_field=not det.is_zero(),
        invertible_over_ring=scale == 1 and list(det.terms.values()) in ([1], [-1]),
    )

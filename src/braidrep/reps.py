"""Matrix and group-algebra representations of B_n and SM_n.

Conventions used throughout:

* Coordinates are row vectors, so a word maps to the product of its letters'
  matrices in word order.
* The rank-m module of the Lawrence-Krammer-Bigelow (LKB) representation has
  basis v_{ij}, 1 <= i < j <= n, ordered lexicographically; m = n(n-1)/2.
* Representation parameters may be left symbolic (the ring variables u, v,
  a, b, c) or pinned to exact rationals; a non-integer rational forces
  matrices over the fraction field.
* A MatrixRep stores each letter's image once, as sparse rows built at
  construction (MatrixRep.rows): the builders write each generator as
  identity rows with the rows at strands i, i + 1 overwritten (Burau's 2,
  LKB's 2n - 3 pairs that meet i or i + 1), unit entries as the ring's
  shared one (matrix.ONES); each generator's inverse is matrix.horner_rows
  of its minimal polynomial, and every other image is one _combine over
  nonzero entries.  letter_image, sigma_image and tau_image wrap the stored
  rows as a RingMatrix, uncopied.
* The B_n constructors burau, lkb and exterior_square_burau are memoised:
  each is a pure function of its arguments and returns an immutable
  MatrixRep, so each generator's inverse is formed once per process;
  burau(n) and burau(n, "t") are one entry.  The SM_n constructors take
  arbitrary parameters, stay uncached and reuse the cached base's rows.
* Every SM_n extension is built by one recipe, _extend: over a base's stored
  images S_i and S_i^-1, tau_i maps to a*S_i + b*S_i^-1 + c*I.  burau_ext is
  the case (1 - a, 0, a), lkb_ext the case (u, 0, v), and
  singular_extension_by_affine_combination takes (a, b, c) as given; the
  Birman map tau -> sigma - sigma^-1 is (1, -1, 0).
* rep_apply folds a word over its letters' rows with matrix.sparse_mul,
  which copies across unit entries instead of multiplying, and wraps the
  product as a RingMatrix without a copy; a RingMatrix is its sparse rows,
  so verify_relations, the LKB invariant and the defects all read one.
* Elements of an algebra, such as the group algebra of B_n here and the
  Temperley-Lieb algebra in tl, are LinComb instances: sparse linear
  combinations of basis keys, one subclass per algebra.
* A word's image, as a matrix or in an algebra, is braid.word_image over its
  letters' images.  An algebra builds each letter's image once per call, on
  first use, so a verifier builds each one once for all its relations.

The exterior square of the Burau representation is the functor of 2x2
minors (_wedge_rows) applied to the stored Burau rows in q and their
inverses, so it inverts no matrix of its own; its v_{i,i+1} diagonal
coefficient is -q, the determinant of the local Burau block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Iterable, Mapping

from .braid import BraidWord, Letter, relation_set, sigma, word_image
from .garside import NormalForm, nf_inverse, nf_mul, to_normal_form
from .matrix import (ONES, RING_LAURENT, RING_RATFUNC, RingMatrix, coerce_entry, horner_rows,
                     sparse_mul, sparse_sub, unit_rows)
from .ring import ONE, ZERO, LaurentPoly, RatFunc, integer, parse_poly, variable

Param = LaurentPoly | Fraction | int | str | None
Rows = list[dict]


class DegeneratePointError(ValueError):
    """An evaluation point hits a degeneracy of the construction."""


def pair_basis(n: int) -> list[tuple[int, int]]:
    """Lexicographically ordered pairs (i, j), 1 <= i < j <= n."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _resolve_param(value: Param, default_name: str) -> LaurentPoly | Fraction:
    if value is None:
        return variable(default_name)
    if isinstance(value, str):
        return variable(value)
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return integer(value)
    if isinstance(value, Fraction):
        return integer(int(value)) if value.denominator == 1 else value
    raise TypeError(f"bad parameter {value!r}")


@dataclass(frozen=True)
class MatrixRep:
    """Generator images of a matrix representation of B_n or SM_n.

    rows maps each letter (i, s) to the sparse rows of its image: s = 1 and
    -1 for every i, and s = 0 too for SM_n.  Unit entries are the ring's
    shared one (matrix.ONES), and the rows are shared: read them only.  The
    hash leaves rows out, so equal representations hash alike.
    """

    name: str
    n: int
    dim: int
    ring: str
    rows: dict[Letter, Rows] = field(hash=False, repr=False)

    @property
    def has_tau(self) -> bool:
        return (1, 0) in self.rows

    def letter_rows(self, letter: Letter) -> Rows:
        try:
            return self.rows[letter]
        except KeyError:
            if letter[1] == 0 and not self.has_tau:
                raise ValueError(f"representation {self.name!r} has no singular images") from None
            raise

    def letter_image(self, letter: Letter) -> RingMatrix:
        """The letter's image: a RingMatrix over its stored rows, which it shares."""
        return RingMatrix.from_sparse(self.letter_rows(letter), self.ring)

    def sigma_image(self, i: int) -> RingMatrix:
        return self.letter_image((i, 1))

    def tau_image(self, i: int) -> RingMatrix:
        return self.letter_image((i, 0))


def _combine(dim: int, ring: str, terms) -> Rows:
    """Sparse rows of the sum of x * M over the (scalar x, sparse rows of M) terms, over
    ring: one sparse_mul per row, over nonzero entries only.  Unit entries of the result
    are the ring's shared one."""
    scalars = {k: s for k, (x, _) in enumerate(terms) if (s := coerce_entry(ring, x))}
    return unit_rows([sparse_mul([scalars], [m[i] for _, m in terms])[0] for i in range(dim)],
                     ring)


def _finish_rep(name: str, n: int, dim: int, sigma_rows: list[Rows], roots) -> MatrixRep:
    """A representation of B_n over the Laurent ring from its generators' sparse
    rows, whose unit entries are ONE.

    Each S is a root of prod (x - r) = x^d + c_1 x^(d-1) + ... + c_d, c_d a
    unit, so S^-1 = -(S^(d-1) + c_1 S^(d-2) + ... + c_(d-1)) / c_d, with the
    sum formed by matrix.horner_rows: no matrix is inverted.  Unit entries of
    the inverses are ONE too.
    """
    c = [ONE]
    for r in roots:
        c = [x - r * y for x, y in zip([*c, ZERO], [ZERO, *c])]
    scale = -RatFunc(ONE, c[-1]).as_laurent()
    rows = {}
    for i, s in enumerate(sigma_rows, 1):
        rows[i, 1] = s
        rows[i, -1] = unit_rows([{j: scale * e for j, e in row.items()}
                                 for row in horner_rows(s, c)], RING_LAURENT)
    return MatrixRep(name, n, dim, RING_LAURENT, rows)


def _extend(base: MatrixRep, name: str, a, b, c) -> MatrixRep:
    """base extended to SM_n by tau_i -> a*S_i + b*S_i^-1 + c*I, for resolved a, b, c.

    A zero coefficient adds no term; all three zero give the zero matrix.  A
    rational coefficient puts the taus over the fraction field, and the
    crossing images move there too; over the base's ring the extension shares
    the base's crossing rows.
    """
    rational = any(x and isinstance(x, (RatFunc, Fraction)) for x in (a, b, c))
    ring = RING_RATFUNC if rational else base.ring
    ident = [{i: ONES[base.ring]} for i in range(base.dim)]
    rows = {letter: m if ring == base.ring else _combine(base.dim, ring, ((1, m),))
            for letter, m in base.rows.items() if letter[1]}
    rows.update({(i, 0): _combine(base.dim, ring, ((a, base.rows[i, 1]), (b, base.rows[i, -1]),
                                                   (c, ident)))
                 for i in range(1, base.n)})
    return MatrixRep(name, base.n, base.dim, ring, rows)


# -- Burau ---------------------------------------------------------------------

def burau(n: int, var: str = "t") -> MatrixRep:
    """Unreduced n-dimensional Burau representation over Z[var^{+-1}].

    Memoised on (n, var) with var's default filled in, so burau(n) is burau(n, "t").
    """
    return _burau(n, var)


@cache
def _burau(n: int, var: str) -> MatrixRep:
    if n < 2:
        raise ValueError("strand count must be at least 2")
    t = variable(var)
    sigma_rows = []
    for i in range(n - 1):
        rows = [{k: ONE} for k in range(n)]
        rows[i], rows[i + 1] = {i: 1 - t, i + 1: t}, {i: ONE}
        sigma_rows.append(rows)
    return _finish_rep(f"burau[{var}]", n, n, sigma_rows, (ONE, -t))


burau.cache_clear = _burau.cache_clear  # as on the other memoised constructors


def burau_ext(n: int, a: Param = None) -> MatrixRep:
    """Burau extended to SM_n: the singular block is [[1-t+at, t-at], [1-a, a]].

    That is, tau_i maps to (1 - a) * sigma_i-image + a * identity.
    """
    av = _resolve_param(a, "a")
    return _extend(burau(n), "burau-ext", 1 - av, 0, av)


# -- Lawrence-Krammer-Bigelow ----------------------------------------------------

@cache
def lkb(n: int) -> MatrixRep:
    """Lawrence-Krammer-Bigelow representation on the pair basis, over Z[q^{+-1}, t^{+-1}].

    Krammer's sigma_i is the identity except on the 2n - 3 pairs that meet i or i + 1.
    """
    if n < 2:
        raise ValueError("strand count must be at least 2")
    q, t = variable("q"), variable("t")
    index = {p: r for r, p in enumerate(pair_basis(n))}
    sigma_rows = []
    for i in range(1, n):
        rows = [{r: ONE} for r in range(len(index))]
        c = index[i, i + 1]
        rows[c] = {c: t * q ** 2}
        for l in range(i + 2, n + 1):
            a, b = index[i, l], index[i + 1, l]
            rows[a], rows[b] = {c: t * q * (q - 1), a: 1 - q, b: q}, {a: ONE}
        for k in range(1, i):
            a, b = index[k, i], index[k, i + 1]
            rows[a], rows[b] = {a: 1 - q, b: q, c: q * (q - 1)}, {a: ONE}
        sigma_rows.append(rows)
    return _finish_rep("lkb", n, len(index), sigma_rows, (ONE, -q, t * q ** 2))


def lkb_ext(n: int, u: Param = None, v: Param = None) -> MatrixRep:
    """Extension of LKB to SM_n: tau_i maps to u * sigma_i-image + v * identity."""
    return _extend(lkb(n), "lkb-ext", _resolve_param(u, "u"), 0, _resolve_param(v, "v"))


# -- exterior square of Burau -----------------------------------------------------

@cache
def exterior_square_burau(n: int) -> MatrixRep:
    """Second exterior power of the Burau representation written in q.

    Each image is the exterior square of the Burau image, sigma_i^-1 included,
    since the exterior square of an inverse is the inverse of the exterior square.
    """
    return MatrixRep("wedge-burau", n, n * (n - 1) // 2, RING_LAURENT,
                     {letter: unit_rows(_wedge_rows(rows, RING_LAURENT), RING_LAURENT)
                      for letter, rows in burau(n, "q").rows.items()})


def _wedge_rows(rows: Rows, ring: str) -> Rows:
    """Sparse rows of the functorial exterior square of the matrix with these sparse
    rows: entries are the nonzero 2x2 minors on the pair basis.

    Only minors on two columns where row a or row b is nonzero are formed; the rest vanish.
    """
    zero = coerce_entry(ring, 0)
    index = {pair: k for k, pair in enumerate(combinations(range(len(rows)), 2))}
    out = []
    for a, b in index:
        x, y = rows[a], rows[b]
        minors = ((index[c, d], x.get(c, zero) * y.get(d, zero) - x.get(d, zero) * y.get(c, zero))
                  for c, d in combinations(sorted(x.keys() | y.keys()), 2))
        out.append({j: e for j, e in minors if e})
    return out


def wedge_square(m: RingMatrix) -> RingMatrix:
    """Functorial exterior square: entries are the 2x2 minors on the pair basis."""
    return RingMatrix.from_sparse(_wedge_rows(m.sparse, m.ring), m.ring)


# -- applying representations and verifying relations ------------------------------

def rep_apply(rep: MatrixRep, word: BraidWord) -> RingMatrix:
    """Image of a word: the product of its letters' rows in word order.

    A one-letter word's image holds the letter's shared rows
    (MatrixRep.letter_rows), so the image is only read, never mutated.
    """
    if word.n != rep.n:
        raise ValueError(f"word is on {word.n} strands, representation on {rep.n}")
    one = ONES[rep.ring]
    rows = word_image(word, rep.letter_rows, lambda: [{i: one} for i in range(rep.dim)], sparse_mul)
    return RingMatrix.from_sparse(rows, rep.ring)


@dataclass(frozen=True)
class RelationCheck:
    label: str
    lhs: str
    rhs: str
    ok: bool
    difference: object | None = None


@dataclass(frozen=True)
class RelationReport:
    subject: str
    monoid: str
    checks: tuple[RelationCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[RelationCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def summary(self) -> str:
        if self.all_ok:
            return f"all {len(self.checks)} relations pass"
        return f"{len(self.failures)} of {len(self.checks)} relations fail"


def _verify(subject: str, n: int, monoid: str,
            image: Callable[[BraidWord], object]) -> RelationReport:
    """Push every defining relation through `image`; failures carry the difference.

    `image` maps a word to a value in canonical form, so a relation holds
    exactly when its two sides compare equal with `==`; the difference
    lhs - rhs is formed only for a relation that fails.
    """
    checks = []
    for rel in relation_set(n, monoid):
        lhs, rhs = image(rel.lhs), image(rel.rhs)
        ok = lhs == rhs
        checks.append(
            RelationCheck(rel.label, str(rel.lhs), str(rel.rhs), ok,
                          None if ok else lhs - rhs)
        )
    return RelationReport(subject, monoid, tuple(checks))


def verify_relations(rep: MatrixRep) -> RelationReport:
    """Check every defining relation instance symbolically; failures carry the difference.

    The sides are rep_apply images, compared by their sparse rows, which hold
    no zero entry.
    """
    return _verify(rep.name, rep.n, "SMn" if rep.has_tau else "Bn", partial(rep_apply, rep))


# -- determinants of the singular images --------------------------------------------

def det_tau_symbolic(n: int) -> LaurentPoly:
    """Expanded determinant of the first singular image of the LKB extension."""
    return lkb_ext(n).tau_image(1).det()


def det_tau_all_equal(n: int) -> bool:
    rep = lkb_ext(n)
    dets = {rep.tau_image(i).det() for i in range(1, n)}
    return len(dets) == 1


# Reference expansion of det for n = 4 as reported in the literature; its u^6
# term reads 4*t*u^6 where the product formula forces q^4*t*u^6 (a dropped q
# power), so comparisons are exposed as a diff rather than asserted equal.
REFERENCE_DET_TAU_B4 = parse_poly(
    "4*t*u^6 + v^6 - 2*q*u*v^5 + q^2*t*u*v^5 + 3*u*v^5 + q^2*u^2*v^4 - 6*q*u^2*v^4"
    " - 2*q^3*t*u^2*v^4 + 3*q^2*t*u^2*v^4 + 3*u^2*v^4 + 3*q^2*u^3*v^3 - 6*q*u^3*v^3"
    " + q^4*t*u^3*v^3 - 6*q^3*t*u^3*v^3 + 3*q^2*t*u^3*v^3 + u^3*v^3 + 3*q^2*u^4*v^2"
    " - 2*q*u^4*v^2 + 3*q^4*t*u^4*v^2 - 6*q^3*t*u^4*v^2 + q^2*t*u^4*v^2 + q^2*u^5*v"
    " + 3*q^4*t*u^5*v - 2*q^3*t*u^5*v"
)


def det_tau_b4_diff() -> dict:
    """Term-by-term comparison of the computed B_4 determinant with the reference."""
    computed = det_tau_symbolic(4)
    diff = computed - REFERENCE_DET_TAU_B4
    return {
        "computed": computed,
        "reference": REFERENCE_DET_TAU_B4,
        "diff": diff,
        "only_u6_terms": all(
            mono[3] == 6 if len(mono) > 3 else False for mono in diff.exponent_terms()
        ),
    }


# -- group-algebra representation ----------------------------------------------------

class LinComb:
    """Finite linear combination of basis keys, the element type of an algebra.

    A subclass fixes the algebra with three hooks: `_coeff` coerces a value
    into the coefficient ring, `_identity(n)` is the key of the algebra's unit,
    and `_basis_mul(k1, k2)` returns the key of a product of two basis elements
    with its scalar factor, or None for a factor of 1.  A product with the unit
    key as either factor is the other key, with no call to `_basis_mul`.  Zero
    coefficients are dropped by the constructor.  Elements compare by value and
    are unhashable.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[object, object] | None = None):
        self.n = n
        cleaned = {}
        if terms:
            for key, value in terms.items():
                coeff = self._coeff(value)
                if coeff:
                    cleaned[key] = coeff
        self.terms = cleaned

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: LinComb) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError("strand count mismatch")

    def __add__(self, other: LinComb) -> LinComb:
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            s = out.get(key)
            out[key] = coeff if s is None else s + coeff
        return type(self)(self.n, out)

    def __neg__(self) -> LinComb:
        return type(self)(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: LinComb) -> LinComb:
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return self.scalar_mul(other)
        self._check(other)
        one = self._identity(self.n)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if k1 == one:
                    key, scalar = k2, None
                elif k2 == one:
                    key, scalar = k1, None
                else:
                    key, scalar = self._basis_mul(k1, k2)
                c = c1 * c2 if scalar is None else c1 * c2 * scalar
                s = out.get(key)
                out[key] = c if s is None else s + c
        return type(self)(self.n, out)

    @classmethod
    def unit(cls, n: int) -> LinComb:
        return cls(n, {cls._identity(n): 1})

    def scalar_mul(self, value) -> LinComb:
        coeff = self._coeff(value)
        return type(self)(self.n, {k: coeff * c for k, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[key]}) * [{key}]" for key in sorted(self.terms))

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


class GroupAlgebraElem(LinComb):
    """Finite linear combination of braids, keyed by Garside normal form."""

    __slots__ = ()

    _identity = staticmethod(NormalForm.identity)

    @staticmethod
    def _coeff(value) -> RatFunc:
        return coerce_entry(RING_RATFUNC, value)

    @staticmethod
    def _basis_mul(k1: NormalForm, k2: NormalForm) -> tuple[NormalForm, None]:
        return nf_mul(k1, k2), None


def _birman_fold(n: int, a: Param, b: Param,
                 c: Param) -> Callable[[BraidWord], GroupAlgebraElem]:
    """The group-algebra image of words on n strands; a letter's image is built on first use."""
    # Letter sign -> coefficients of sigma_i, sigma_i^-1 and e.
    coeffs = {1: (1, 0, 0), -1: (0, 1, 0),
              0: (_resolve_param(a, "a"), _resolve_param(b, "b"), _resolve_param(c, "c"))}

    @cache
    def letter_image(letter: Letter) -> GroupAlgebraElem:
        i, s = letter
        gen = to_normal_form(BraidWord(n, (sigma(i),)))
        keys = (gen, nf_inverse(gen), NormalForm.identity(n))
        return GroupAlgebraElem(n, dict(zip(keys, coeffs[s])))

    return lambda word: word_image(word, letter_image, lambda: GroupAlgebraElem.unit(n))


def birman_image(word: BraidWord, a: Param = None, b: Param = None,
                 c: Param = None) -> GroupAlgebraElem:
    """Image of a singular word in the group algebra of B_n.

    Crossings map to themselves; the singular generator tau_i maps to
    a * sigma_i + b * sigma_i^-1 + c * e.  The classical Birman map is the
    case (a, b, c) = (1, -1, 0).
    """
    return _birman_fold(word.n, a, b, c)(word)


def verify_group_algebra_relations(n: int, a: Param = None, b: Param = None,
                                   c: Param = None) -> RelationReport:
    """Push every SM_n relation through the group-algebra representation."""
    return _verify("birman", n, "SMn", _birman_fold(n, a, b, c))


def singular_extension_by_affine_combination(rep: MatrixRep, a: Param = None,
                                             b: Param = None,
                                             c: Param = None) -> MatrixRep:
    """Extend a matrix representation of B_n to SM_n by tau_i -> a*S_i + b*S_i^-1 + c*I."""
    return _extend(rep, rep.name + "+affine", _resolve_param(a, "a"),
                   _resolve_param(b, "b"), _resolve_param(c, "c"))


# -- extension uniqueness at rational points -------------------------------------------
#
# The long relations give T_{i+1} = (S_i S_{i+1}) T_i (S_i S_{i+1})^-1, so T_i is
# X = T_1 conjugated by the image of a_i, where a_1 = e and a_{i+1} = s_i s_{i+1} a_i.
# Conjugating back by a_i turns each linear relation on T_i into one on X
# (tests/test_reps.py::test_extension_reduction_braid_identities):
# a_i^-1 s_i a_i = s_1; a_i^-1 s_j a_i is s_j for j >= i + 2 and s_{j+2} for
# j <= i - 2; a_i^-1 (s_{i+1} s_i s_i s_{i+1}) a_i = c_i (s_2 s_1 s_1 s_2) c_i^-1
# with c_i = s_{i+1} s_i ... s_3, letters X already commutes with.  So X need only
# commute with S_1, each S_j for j >= 3 and N = S_2 S_1 S_1 S_2 (mixed-near,
# mixed-far, and long-up with long-down).  Entry (r, s) of XN - NX puts N[k][s] at
# X[r][k] and -N[r][k] at X[k][s]; at a point this is a linear system in the
# entries of X, solved exactly below.  A matrix lies in the solution span exactly
# when every constraint row annihilates it, so the span tests read the rows.
#
# The quadratic relations tau_i tau_j = tau_j tau_i, j >= i + 2, reduce to the
# one pair (1, 3) on that span, in two steps.  A_i is a product of S_1 .. S_i,
# each of which commutes with T_j (mixed-far), so conjugating by A_i turns the
# relation into X T_j = T_j X.  By the long relations T_j = G T_3 G^-1 with G a
# product of S_3 .. S_j, which X commutes with, so this is X T_3 = T_3 X, with
# T_3 = A X A^-1 and A = S_2 S_3 S_1 S_2.
#
# The solver runs over Z from the evaluation to the answer.  Each distinct entry
# of the stored letter rows of S_i and S_i^-1 is evaluated once, as K * p(q, t)
# for one integer K that clears every denominator at once, and each S_i, S_i^-1
# and N is divided by its content.  A nonzero scale on a matrix or a vector
# changes none of the answers: not a commutant, not a span test, and not the
# quadratic check, where T_3 and each commutator pick up one factor.  Each
# constraint row is built as a dict {column: int} of its nonzero entries.
#
# _echelon eliminates fraction-free on such rows: each row is reduced against
# the pivot rows found so far by gcd-scaled combinations a*v - b*p, and kept,
# divided by its content, if it is not zero; its pivot is its first column.  One
# back-substitution over the pivot rows then clears the pivot columns.  The
# reduced row echelon form of a matrix is unique up to the scale of each row, so
# the pivots and the nullspace are those of a Gauss-Jordan elimination over Q.
# _nullspace keeps one primitive integer vector per free column f, nonzero at f
# and at pivot columns before it only; the quadratic check uses these as they
# are, and only basis_matrices divides each vector by its entry at f, its last
# nonzero one, which gives Gauss-Jordan's basis exactly.


def _eliminate(v: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """a*v - b*p with a, b = p[c], v[c] over their gcd, so entry c becomes zero;
    entries that cancel are dropped."""
    g = gcd(v[c], p[c])
    a, b = p[c] // g, v[c] // g
    out = {j: a * x for j, x in v.items()}
    for j, y in p.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return out


def _primitive(v: dict[int, int]) -> dict[int, int]:
    """v divided by its content, the gcd of its entries."""
    g = gcd(*v.values())
    return {j: x // g for j, x in v.items()}


def _primitive_rows(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """A nonzero integer matrix's sparse rows divided by its content."""
    g = gcd(*(x for row in rows for x in row.values()))
    return [{j: x // g for j, x in row.items()} for row in rows]


def _echelon(rows: Iterable[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """The reduced row echelon form of integer rows {column: nonzero int}, as
    (pivot column, primitive row) pairs in pivot order."""
    found: list[tuple[int, dict[int, int]]] = []  # in the order found
    for v in rows:
        for c, p in found:
            if c in v:
                v = _eliminate(v, p, c)
        if v:
            found.append((min(v), _primitive(v)))
    # Row k is zero in the pivot columns found before it, so clearing the
    # columns from the last found back to the first reintroduces nothing.
    for k in range(len(found) - 1, 0, -1):
        c, p = found[k]
        for j in range(k):
            cj, v = found[j]
            if c in v:
                found[j] = (cj, _primitive(_eliminate(v, p, c)))
    found.sort(key=lambda pivot_row: pivot_row[0])
    return found


def _nullspace(rows: Iterable[dict[int, int]], cols: int) -> list[dict[int, int]]:
    """One primitive integer vector per free column f of the rows' echelon form,
    positive at f, zero at every other free column: together a nullspace basis."""
    echelon = _echelon(rows)
    pivots = {c for c, _ in echelon}
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        through = [(c, p) for c, p in echelon if f in p]
        d = lcm(*(p[c] for c, p in through))
        vec = {f: d}
        for c, p in through:
            vec[c] = -p[f] * (d // p[c])
        basis.append(_primitive(vec))
    return basis


def _in_nullspace(rows: list[dict[int, int]], vec: dict[int, int]) -> bool:
    """Whether every row annihilates vec: it lies in the span of the rows' nullspace."""
    return not any(sum(x * vec[j] for j, x in row.items() if j in vec) for row in rows)


@cache
def _lkb_entry_table(n: int) -> tuple[list, tuple[int, int, int, int], dict]:
    """lkb(n)'s crossing rows over the table of their distinct entries, memoised
    per n like lkb: each entry's (q exponent, t exponent, coefficient) terms, the
    exponent bounds lo_q, hi_q, lo_t, hi_t with lo <= 0 <= hi, and each letter's
    rows as {column: entry index}."""
    index: dict[LaurentPoly, int] = {}
    letters = {letter: [{k: index.setdefault(e, len(index)) for k, e in row.items()}
                        for row in rows]
               for letter, rows in lkb(n).rows.items()}
    terms = [[(*(exps + (0, 0))[:2], x) for exps, x in e.exponent_terms().items()]
             for e in index]
    qs = [i for term_list in terms for i, _, _ in term_list]
    ts = [j for term_list in terms for _, j, _ in term_list]
    return terms, (min(0, *qs), max(0, *qs), min(0, *ts), max(0, *ts)), letters


def _lkb_letters_over_z(n: int, q: Fraction, t: Fraction) -> tuple[list, list]:
    """S and S_inv, with S[i] and S_inv[i] the images of s_i and s_i^-1 under lkb(n)
    at (q, t) as integer sparse rows, each a nonzero multiple of the image; S[0]
    and S_inv[0] are None."""
    terms, (lo_q, hi_q, lo_t, hi_t), letters = _lkb_entry_table(n)
    a, b, c, d = q.numerator, q.denominator, t.numerator, t.denominator
    # K = a^-lo_q b^hi_q c^-lo_t d^hi_t, so K q^i t^j = a^(i - lo_q) b^(hi_q - i)
    # c^(j - lo_t) d^(hi_t - j).
    values = [sum(x * a ** (i - lo_q) * b ** (hi_q - i) * c ** (j - lo_t) * d ** (hi_t - j)
                  for i, j, x in term_list)
              for term_list in terms]

    def letter(i: int, s: int) -> list[dict[int, int]]:
        return _primitive_rows([{k: x for k, e in row.items() if (x := values[e])}
                                for row in letters[i, s]])

    return ([None] + [letter(i, 1) for i in range(1, n)],
            [None] + [letter(i, -1) for i in range(1, n)])


def _constraint_rows(S: list, m: int) -> list[dict[int, int]]:
    """The integer rows, over the m * m entries of X, of the linear system that X
    commutes with S_1, each S_j for j >= 3 and N = S_2 S_1 S_1 S_2 (see above)."""
    N = _primitive_rows(sparse_mul(sparse_mul(S[2], S[1]), sparse_mul(S[1], S[2])))
    rows: list[dict[int, int]] = []
    for M in (S[1], *S[3:], N):
        columns = [{} for _ in range(m)]
        for k, row in enumerate(M):
            for s, x in row.items():
                columns[s][k] = x
        xm = [{r * m + k: x for k, x in columns[s].items()} for r in range(m) for s in range(m)]
        mx = [{k * m + s: x for k, x in M[r].items()} for r in range(m) for s in range(m)]
        rows += filter(None, sparse_sub(xm, mx))
    return rows


@dataclass(frozen=True)
class ExtensionSolution:
    """Solution space for the singular images of an LKB extension at a point."""

    n: int
    dimension: int
    basis_matrices: tuple[tuple[tuple[Fraction, ...], ...], ...]
    point: tuple[tuple[str, Fraction], ...]
    contains_generator_image: bool
    contains_identity: bool
    quadratic_ok: bool | None


def solve_extension_space(n: int, point: Mapping[str, Fraction | int]) -> ExtensionSolution:
    """Exact rational solution space of the extension constraints at a point."""
    if n not in (3, 4):
        raise ValueError("supported strand counts are 3 and 4")
    missing = sorted({"q", "t"} - point.keys())
    if missing:
        raise ValueError(f"the point has no value for {', '.join(missing)}")
    unknown = sorted(point.keys() - {"q", "t"})
    if unknown:
        raise ValueError(f"unknown coordinate {', '.join(unknown)}; the point takes q and t")
    qv = Fraction(point["q"])
    tv = Fraction(point["t"])
    if qv in (0, 1, -1):
        raise DegeneratePointError(f"q = {qv} is degenerate")
    if tv == 0:
        raise DegeneratePointError("t = 0 is degenerate")
    m = lkb(n).dim
    S, S_inv = _lkb_letters_over_z(n, qv, tv)
    rows = _constraint_rows(S, m)
    basis = _nullspace(rows, m * m)
    s1 = {r * m + c: x for r, row in enumerate(S[1]) for c, x in row.items()}
    identity = {r * m + r: 1 for r in range(m)}
    zero = Fraction(0)

    def fraction_matrix(vec: dict[int, int]) -> tuple[tuple[Fraction, ...], ...]:
        d = vec[max(vec)]
        return tuple(tuple(Fraction(vec[k], d) if k in vec else zero
                           for k in range(r * m, (r + 1) * m)) for r in range(m))

    return ExtensionSolution(
        n=n,
        dimension=len(basis),
        basis_matrices=tuple(map(fraction_matrix, basis)),
        point=(("q", qv), ("t", tv)),
        contains_generator_image=_in_nullspace(rows, s1),
        contains_identity=_in_nullspace(rows, identity),
        quadratic_ok=_quadratic_commutations_hold(S, S_inv, basis, m) if n >= 4 else None,
    )


def _quadratic_commutations_hold(S, S_inv, basis, m: int) -> bool:
    """Check tau_i tau_j = tau_j tau_i, |i-j| >= 2, on the whole solution span.

    S and S_inv are _lkb_letters_over_z's integer rows, at n >= 4, and basis holds
    integer vectors {r * m + c: X[r][c]} of matrices that commute with S_1 and each
    S_k, k >= 3; any nonzero scale of either is allowed.  On such a span every far
    pair holds exactly when X commutes with T_3 = A X A^-1 (see above).
    """
    A = sparse_mul(sparse_mul(S[2], S[3]), sparse_mul(S[1], S[2]))
    A_inv = sparse_mul(sparse_mul(S_inv[2], S_inv[1]), sparse_mul(S_inv[3], S_inv[2]))
    X = [[{k % m: x for k, x in vec.items() if k // m == r} for r in range(m)] for vec in basis]
    T = [sparse_mul(sparse_mul(A, x), A_inv) for x in X]
    # sum_r x_r X_r commutes with sum_r x_r T_r for every x exactly when each X_r
    # commutes with T_r and each X_r - X_s, r < s, with T_r - T_s.  Sparse rows
    # hold no zero entry, so each test compares the two sides' rows.
    pairs = [*zip(X, T), *((sparse_sub(X[r], X[s]), sparse_sub(T[r], T[s]))
                           for r, s in combinations(range(len(X)), 2))]
    return all(sparse_mul(x, t) == sparse_mul(t, x) for x, t in pairs)

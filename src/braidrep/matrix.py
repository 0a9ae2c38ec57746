"""Square matrices over the Laurent ring or its fraction field.

Entries are LaurentPoly ("laurent" ring) or RatFunc ("ratfunc" ring),
uniformly per matrix.  Coordinates are row vectors: the row indexed by a
basis vector holds the coefficients of its image, and words of group
elements map to matrix products in word order.

Every matrix product, here and in reps (word images, generator inverses,
tau images and the extension solver's integer rows), is one sparse row-wise
product (Gustavson, ACM TOMS 4(3), 1978) over each row's nonzero entries,
for any entry type: LaurentPoly, RatFunc or int.  Each ring's unit entry is
one shared object (ONES, written into rows by unit_rows), which sparse_mul
copies the other factor across instead of multiplying.  sparse_sub is the
difference on the same rows.
Determinants, characteristic polynomials and inverses come from one
division-free routine, Berkowitz's algorithm (Inf. Proc. Letters 18, 1984),
which uses ring operations only; it can stop at any coefficient, as the LKB
invariant does halfway.  It reads a matrix's stored sparse rows, so a word's
image reaches it without being made dense, and it keeps its vectors as dicts
over their nonzero entries.  Its one term-product loop is
`ring.add_products`: every entry of its matrix-vector products and of its
Toeplitz step is accumulated in one dict, with no polynomial built per
product.  Every inverse, here and of reps' generators, is -B / c_d for the
rows B that one Horner routine, horner_rows, forms from a polynomial that
vanishes at the matrix: here Berkowitz's coefficients by Cayley-Hamilton.
Over the fraction field each row is first scaled to polynomial entries by a
common denominator, and the denominators are divided out once at the end.  A
RingMatrix is its sparse rows, which all of the above read and return;
from_sparse wraps rows built elsewhere, such as a word's image, uncopied.
Its dense view, RingMatrix.rows, is formed on access: to print or evaluate it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .ring import (
    ONE,
    ZERO,
    LaurentPoly,
    RatFunc,
    _coerce_poly,
    _coerce_ratfunc,
    add_products,
    finish_sum,
    parse_poly,
    parse_ratfunc,
    sum_of_products,
    variables_of,
)

RING_LAURENT = "laurent"
RING_RATFUNC = "ratfunc"
_RATFUNC_ONE = RatFunc(ONE)
# The unit entry of each ring's sparse rows, one shared object: sparse_mul tests it by identity.
ONES = {RING_LAURENT: ONE, RING_RATFUNC: _RATFUNC_ONE}
ZEROS = {RING_LAURENT: ZERO, RING_RATFUNC: RatFunc(ZERO)}


class SingularMatrixError(ArithmeticError):
    """Inversion was requested for a matrix with zero determinant."""


def coerce_entry(ring: str, value):
    """value as an entry of the ring; TypeError when it has no place there."""
    laurent = ring == RING_LAURENT
    entry = (_coerce_poly if laurent else _coerce_ratfunc)(value)
    if entry is NotImplemented:
        kind = "Laurent" if laurent else "RatFunc"
        raise TypeError(f"expected a {kind} entry, got {type(value).__name__}")
    return entry


def _ring_of(rows: Sequence[Sequence]) -> str:
    for row in rows:
        for entry in row:
            if isinstance(entry, RatFunc):
                return RING_RATFUNC
            if isinstance(entry, Fraction):
                return RING_RATFUNC
    return RING_LAURENT


class RingMatrix:
    """Immutable square matrix over LaurentPoly or RatFunc entries, stored as its
    sparse rows (see sparse_rows): entries of the ring's type, no zero stored."""

    __slots__ = ("dim", "ring", "sparse")

    def __init__(self, rows: Sequence[Sequence], ring: str | None = None):
        dim = len(rows)
        if dim == 0 or any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square and nonempty")
        if ring is None:
            ring = _ring_of(rows)
        if ring not in (RING_LAURENT, RING_RATFUNC):
            raise ValueError(f"unknown ring tag {ring!r}")
        self.dim = dim
        self.ring = ring
        kind = LaurentPoly if ring == RING_LAURENT else RatFunc
        self.sparse = sparse_rows([[e if type(e) is kind else coerce_entry(ring, e) for e in row]
                                   for row in rows])

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, dim: int, ring: str = RING_LAURENT) -> RingMatrix:
        one, zero = coerce_entry(ring, 1), coerce_entry(ring, 0)
        return cls(
            [[one if i == j else zero for j in range(dim)] for i in range(dim)], ring
        )

    @classmethod
    def from_sparse(cls, rows: list[dict], ring: str) -> RingMatrix:
        """The matrix over ring with these sparse rows, a list kept uncopied: their
        entries must be nonzero and of the ring's type, and they are only read."""
        m = object.__new__(cls)
        m.dim, m.ring, m.sparse = len(rows), ring, rows
        return m

    # -- structure ------------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The dense rows, with the ring's zero in place, formed on each access."""
        zero = ZEROS[self.ring]
        return tuple(tuple(row.get(j, zero) for j in range(self.dim)) for row in self.sparse)

    def __getitem__(self, index: tuple[int, int]):
        i, j = index
        # range indexing raises IndexError out of range, as the dense row did.
        return self.sparse[i].get(range(self.dim)[j], ZEROS[self.ring])

    def __eq__(self, other):
        # Across rings too: a Laurent entry equals its fraction-field copy.
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.dim == other.dim and self.sparse == other.sparse

    def __hash__(self):
        # No ring tag: a Laurent matrix equals its fraction-field copy, and
        # their entries hash alike.
        return hash(tuple(frozenset(row.items()) for row in self.sparse))

    def map_entries(self, fn: Callable, ring: str | None = None) -> RingMatrix:
        """fn of each stored entry, over ring: zeros are not stored, so fn(0) must be 0.
        fn returns entries of the ring's type; those that are zero are dropped."""
        return RingMatrix.from_sparse([{j: x for j, e in row.items() if (x := fn(e))}
                                       for row in self.sparse],
                                      ring if ring is not None else self.ring)

    def to_ratfunc(self) -> RingMatrix:
        if self.ring == RING_RATFUNC:
            return self
        return self.map_entries(RatFunc, RING_RATFUNC)

    def is_zero(self) -> bool:
        return not any(self.sparse)

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: RingMatrix) -> tuple[RingMatrix, RingMatrix]:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.ring == other.ring:
            return self, other
        return self.to_ratfunc(), other.to_ratfunc()

    def __neg__(self):
        return self.map_entries(operator.neg)

    def __add__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self - -other

    def __sub__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        a, b = self._check_compatible(other)
        return RingMatrix.from_sparse(sparse_sub(a.sparse, b.sparse), a.ring)

    def __mul__(self, other):
        if isinstance(other, RingMatrix):
            a, b = self._check_compatible(other)
            return RingMatrix.from_sparse(sparse_mul(a.sparse, b.sparse), a.ring)
        return self.scalar_mul(other)

    def __rmul__(self, other):
        return self.scalar_mul(other)

    def scalar_mul(self, scalar) -> RingMatrix:
        if isinstance(scalar, (RatFunc, Fraction)) and self.ring == RING_LAURENT:
            return self.to_ratfunc().scalar_mul(scalar)
        s = coerce_entry(self.ring, scalar)
        return self.map_entries(lambda e: s * e)

    # -- determinant, inverse, characteristic polynomial ------------------------

    def det(self):
        """LaurentPoly over the Laurent ring, RatFunc over the fraction field."""
        if self.ring == RING_LAURENT:
            return _det_laurent(self.sparse)
        # det(D*A) = det(D) * det(A) for the diagonal row scaling D.
        rows, dens = _scale_rows(self.sparse)
        return RatFunc(_det_laurent(rows), math.prod(dens, start=ONE))

    def inverse(self) -> RingMatrix:
        """Exact inverse over the fraction field; raises SingularMatrixError.

        With det(x*I - A) = sum c_k x^(m-k), Cayley-Hamilton gives
        A^-1 = -B / c_m for B = horner_rows(A, c).  Over the fraction field
        this runs on A' = D*A, and A^-1 = A'^-1 * D.
        """
        if self.ring == RING_LAURENT:
            a, dens = self.sparse, [ONE] * self.dim
        else:
            a, dens = _scale_rows(self.sparse)
        coeffs = _berkowitz(a)
        last = coeffs[-1]
        if not last:
            raise SingularMatrixError("matrix is singular")
        return RingMatrix.from_sparse([{j: RatFunc(-e * dens[j], last) for j, e in row.items()}
                                       for row in horner_rows(a, coeffs)], RING_RATFUNC)

    def charpoly(self) -> LaurentPoly:
        """det(A - w*I) = (-1)^dim * det(w*I - A), expanded in canonical form."""
        if self.ring != RING_LAURENT:
            raise ValueError("characteristic polynomial requires Laurent entries")
        if "w" in variables_of(e for row in self.sparse for e in row.values()):
            raise ValueError("matrix entries already involve 'w'")
        dim = self.dim
        total = sum_of_products((c, LaurentPoly.variable("w", dim - k))
                                for k, c in enumerate(_berkowitz(self.sparse)))
        return -total if dim % 2 else total

    def evaluate(self, point: Mapping[str, Fraction | int]) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(e.evaluate(point) for e in row) for row in self.rows)

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "ring": self.ring,
            "rows": [[str(e) for e in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> RingMatrix:
        ring = data["ring"]
        parse = parse_poly if ring == RING_LAURENT else parse_ratfunc
        rows = [[parse(text) for text in row] for row in data["rows"]]
        mat = cls(rows, ring)
        if mat.dim != data["dim"]:
            raise ValueError("dim field does not match row count")
        return mat

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)

    def __repr__(self):
        return f"RingMatrix(dim={self.dim}, ring={self.ring!r})"


def _scale_rows(rows: Sequence[Mapping[int, RatFunc]]) -> tuple[list[dict], list[LaurentPoly]]:
    """Sparse rows of D*A with polynomial entries, and the diagonal of D.

    Each row is scaled by the product of its entries' denominators,
    skipping one that already divides the product so far.
    """
    scaled, dens = [], []
    for row in rows:
        den = ONE
        for e in row.values():
            if not (e.den.is_one() or e.den.divides(den)):
                den = den * e.den
        scaled.append({j: e.num * (den if e.den.is_one() else den.exact_div(e.den))
                       for j, e in row.items()})
        dens.append(den)
    return scaled, dens


def sparse_rows(rows: Sequence[Sequence]) -> list[dict]:
    """Each row as {column: entry} over its nonzero entries."""
    return [{j: e for j, e in enumerate(row) if e} for row in rows]


def unit_rows(rows: Sequence[Mapping], ring: str) -> list[dict]:
    """The sparse rows with each entry equal to 1 replaced by the ring's shared one."""
    one = ONES[ring]
    return [{j: one if e.is_one() else e for j, e in row.items()} for row in rows]


def sparse_mul(left: Sequence[Mapping], right: Sequence[Mapping]) -> list[dict]:
    """Sparse rows of the product of two matrices given by their sparse rows.

    Gustavson's row-wise product: row i of the result sums x * right[k] over
    the entries (k, x) of left[i], and entries that cancel to zero are
    dropped.  Entries are of any one type with +, * and a truth value:
    LaurentPoly, RatFunc or int.  An entry of right that is a ring's shared
    one (ONES, by identity) contributes x itself, with no product.
    """
    one, ratfunc_one = ONE, _RATFUNC_ONE
    out = []
    for lrow in left:
        acc = {}
        for k, x in lrow.items():
            for j, y in right[k].items():
                xy = x if y is one or y is ratfunc_one else x * y
                prev = acc.get(j)
                acc[j] = xy if prev is None else prev + xy
        out.append({j: e for j, e in acc.items() if e})
    return out


def sparse_sub(left: Sequence[Mapping], right: Sequence[Mapping]) -> list[dict]:
    """Sparse rows of the difference of two matrices given by their sparse rows,
    entries that cancel dropped."""
    out = []
    for lrow, rrow in zip(left, right):
        row = dict(lrow)
        for j, y in rrow.items():
            row[j] = row[j] - y if j in row else -y
        out.append({j: e for j, e in row.items() if e})
    return out


def horner_rows(rows: Sequence[Mapping], coeffs: Sequence) -> list[dict]:
    """Sparse rows of B = A^(d-1) + c_1 A^(d-2) + ... + c_(d-1) I, where A has
    these sparse rows and coeffs is (1, c_1, ..., c_d).

    Where x^d + c_1 x^(d-1) + ... + c_d vanishes at A, A*B = -c_d I, so
    A^-1 = -B / c_d: RingMatrix.inverse reads c from Berkowitz's
    characteristic polynomial, reps each generator's from its minimal one.
    Horner's rule forms B = B_(d-1) from B_0 = I and B_k = A*B_(k-1) + c_k I,
    in d - 1 sparse products, the first of which copies A.
    """
    b = [{i: ONE} for i in range(len(rows))]
    for c in coeffs[1:-1]:
        b = sparse_mul(rows, b)
        for i, row in enumerate(b):
            e = c + row.pop(i, ZERO)
            if e:
                row[i] = e
    return b


def _berkowitz(rows: Sequence[Mapping[int, LaurentPoly]],
               top: int | None = None) -> list[LaurentPoly]:
    """Coefficients c_0 = 1, c_1, ..., c_top of det(x*I - A) = sum c_k x^(dim-k).

    A is given by its sparse rows (see sparse_rows), which are only read.
    top defaults to dim.  Works up from the trailing principal submatrices.
    Splitting A[k:, k:] into the corner a, the row r, the column c and the
    block S = A[k+1:, k+1:] (of size m), its characteristic polynomial is the
    Toeplitz product of (1, -a, -r.c, -r.S c, ..., -r.S^(m-1) c) with the one
    of S.  Coefficient i of it reads entries 0..i of both, so the column stops
    at index top, and at most top - 2 matrix-vector products apply the powers
    of S to c.  c and each S^i c are dicts over their nonzero entries, so a
    product reads only the entries where both factors are nonzero, and none
    is formed once r or S^i c is zero.  Every entry of both products is
    accumulated in one dict (ring.add_products); the Toeplitz product adds the
    terms met with the leading 1 of either factor as they are.
    """
    dim = len(rows)
    top = dim if top is None else top
    poly = [ONE, -rows[-1].get(dim - 1, ZERO)][:top + 1]
    for k in range(dim - 2, -1, -1):
        m = dim - k - 1
        size = min(m + 2, top + 1)
        # r is negated once, so that -r.S^i c needs no negation of its own.
        neg_r = [(j, -e) for j, e in rows[k].items() if j > k]
        vec = {i: e for i in range(k + 1, dim) if (e := rows[i].get(k))}
        toeplitz = ([ONE, -rows[k].get(k, ZERO)] + [ZERO] * m)[:size]
        if size > 2 and neg_r and vec:
            block = [(i, row) for i in range(k + 1, dim)
                     if (row := [(j, e) for j, e in rows[i].items() if j > k])]
            toeplitz[2] = _dot(neg_r, vec)
            for i in range(3, size):
                vec = {r: e for r, row in block if (e := _dot(row, vec))}
                if not vec:
                    break
                toeplitz[i] = _dot(neg_r, vec)
        nonzero_column = [(j, x) for j, x in enumerate(toeplitz) if j and x]
        new = [ONE]
        for i in range(1, size):
            # The terms of 1 * poly[i] and toeplitz[i] * 1, then the products.
            acc = dict(poly[i].terms) if i <= m else {}
            get = acc.get
            for mono, coeff in toeplitz[i].terms.items():
                acc[mono] = get(mono, 0) + coeff
            add_products(acc, ((x, poly[i - j]) for j, x in nonzero_column if j < i))
            new.append(finish_sum(acc))
        poly = new
    return poly


def _dot(pairs: Sequence[tuple[int, LaurentPoly]], vec: Mapping[int, LaurentPoly]) -> LaurentPoly:
    """The sum of x * vec[j] over the (j, x) pairs whose vec[j] is nonzero."""
    return sum_of_products((x, vec[j]) for j, x in pairs if j in vec)


def _det_laurent(rows: Sequence[Mapping[int, LaurentPoly]]) -> LaurentPoly:
    """det A: a row whose only entry a_kk is on the diagonal factors out as a_kk
    times the minor without row and column k, and Berkowitz runs on the rest."""
    index = {k: r for r, k in enumerate(k for k, row in enumerate(rows) if row.keys() != {k})}
    factor = math.prod((row[k] for k, row in enumerate(rows) if k not in index), start=ONE)
    if not index:
        return factor
    c = _berkowitz([{index[j]: e for j, e in rows[k].items() if j in index} for k in index])[-1]
    return factor * (-c if len(index) % 2 else c)

"""Left-greedy normal form for braid words, solving the word problem in B_n.

Permutations are tuples p of length n with p[i] the ending position of the
strand that starts at position i (0-indexed).  Words compose left to right:
mult(p, q)[i] = q[p[i]].  Every permutation encodes a positive permutation
braid (each pair of strands crosses at most once), and these are exactly the
divisors of the half twist Delta.

A braid is stored as Delta^inf * f_1 ... f_s where no factor is trivial or
Delta and every adjacent pair (f_k, f_{k+1}) is left-weighted: each generator
that starts f_{k+1} also finishes f_k.  Equal braids have identical normal
forms, so the form is usable as a dictionary key, e.g. for group algebras.

Every form is built by right multiplication by one simple factor g at a time
(Elrifai & Morton 1994; Epstein et al., Word Processing in Groups, ch. 9):
append g and left-weight the pairs (f_k, f_{k+1}) from right to left, stopping
at the first pair that already is, since no factor to its left has changed.
Then only the last factor can be trivial (it is dropped) and only the first
can be Delta (folded into inf), since x <= xg <= x Delta.  A word costs one
such pass per letter.

A letter sigma_i^-1 is Delta^-1 * (Delta sigma_i^-1).  Moving that Delta^-1
to the front would flip every earlier factor by x -> Delta x Delta^-1; a
parity records the flip instead, and new factors are stored in the flipped
frame.  The flip is an automorphism, so left-weightedness holds in either
frame, and the parity is applied once, to the finished form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braid import BraidWord

Perm = tuple[int, ...]


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


@lru_cache(maxsize=None)
def perm_delta(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


def perm_transposition(n: int, i: int) -> Perm:
    """The permutation of sigma_i (1-based generator index)."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_mult(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[v] for v in p)


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def starting_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i that left-divide the permutation braid of p."""
    return frozenset(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def finishing_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i that right-divide the permutation braid of p."""
    return starting_set(perm_inverse(p))


def _flip(p: Perm) -> Perm:
    """The flip automorphism x -> Delta x Delta^-1 on a simple factor."""
    d = perm_delta(len(p))
    return tuple(d[p[d[i]]] for i in range(len(p)))


def _left_weight_pair(a: Perm, b: Perm) -> tuple[Perm, Perm] | None:
    """Slide generators from the front of b to the back of a until the pair is
    left-weighted; None if it already was.  sigma_{i+1} can slide when it
    starts b (b[i] > b[i+1]) but does not finish a (a^-1[i] < a^-1[i+1]).
    Sliding swaps positions i, i+1 of both a^-1 and b, which can change that
    test only at i - 1 and i + 1."""
    ai, bl = list(perm_inverse(a)), list(b)
    last = len(bl) - 2
    todo = [i for i in range(last + 1) if bl[i] > bl[i + 1] and ai[i] < ai[i + 1]]
    if not todo:
        return None
    while todo:
        i = todo.pop()
        if 0 <= i <= last and bl[i] > bl[i + 1] and ai[i] < ai[i + 1]:
            bl[i], bl[i + 1] = bl[i + 1], bl[i]
            ai[i], ai[i + 1] = ai[i + 1], ai[i]
            todo += (i - 1, i + 1)
    return perm_inverse(ai), tuple(bl)


def _right_multiply(n: int, inf: int, factors: tuple[Perm, ...],
                    steps: list[tuple[int, Perm]]) -> NormalForm:
    """Normal form of Delta^inf * factors * (Delta^k * g for each (k, g) in steps),
    where Delta^inf * factors is a normal form and every g is simple."""
    ident, delta = perm_identity(n), perm_delta(n)
    out = list(factors)
    flip = 0
    for k, g in steps:
        inf += k
        flip ^= k & 1
        out.append(_flip(g) if flip else g)
        j = len(out) - 1
        while j:
            pair = _left_weight_pair(out[j - 1], out[j])
            if pair is None:
                break
            out[j - 1], out[j] = pair
            j -= 1
        if out[-1] == ident:
            out.pop()
        if out and out[0] == delta:
            del out[0]
            inf += 1
    if flip:
        out = [_flip(f) for f in out]
    return NormalForm(n, inf, tuple(out))


@dataclass(frozen=True, order=True)
class NormalForm:
    """Canonical factorization Delta^inf * factors, usable as a dict key."""

    n: int
    inf: int
    factors: tuple[Perm, ...]

    @classmethod
    def identity(cls, n: int) -> NormalForm:
        return cls(n, 0, ())

    def is_identity(self) -> bool:
        return self.inf == 0 and not self.factors

    def canonical_length(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        parts = [f"D^{self.inf}"]
        for f in self.factors:
            parts.append(" ".join(str(v + 1) for v in f))
        return " | ".join(parts)


def to_normal_form(word: BraidWord) -> NormalForm:
    """Left-greedy normal form of a classical braid word."""
    if not word.is_classical:
        raise ValueError("normal forms are defined for classical words only")
    n, delta = word.n, perm_delta(word.n)
    steps = []
    for i, s in word.letters:
        t = perm_transposition(n, i)
        # sigma_i^-1 = Delta^-1 * (Delta sigma_i^-1)
        steps.append((0, t) if s > 0 else (-1, perm_mult(delta, t)))
    return _right_multiply(n, 0, (), steps)


def nf_mul(x: NormalForm, y: NormalForm) -> NormalForm:
    if x.n != y.n:
        raise ValueError("strand count mismatch")
    steps = [(y.inf, perm_identity(x.n))] + [(0, f) for f in y.factors]
    return _right_multiply(x.n, x.inf, x.factors, steps)


def nf_inverse(x: NormalForm) -> NormalForm:
    """Inverse braid: each factor f, last first, becomes Delta^-1 * (Delta f^-1)."""
    delta = perm_delta(x.n)
    steps = [(-1, perm_mult(delta, perm_inverse(f))) for f in reversed(x.factors)]
    return _right_multiply(x.n, 0, (), steps + [(-x.inf, perm_identity(x.n))])


def nf_equal(x: BraidWord | NormalForm, y: BraidWord | NormalForm) -> bool:
    """Word-problem solution: do the two words represent the same braid?"""
    nx = x if isinstance(x, NormalForm) else to_normal_form(x)
    ny = y if isinstance(y, NormalForm) else to_normal_form(y)
    if nx.n != ny.n:
        raise ValueError("strand count mismatch")
    return nx == ny


def is_left_weighted(x: NormalForm) -> bool:
    """Check the defining condition on every adjacent factor pair."""
    ident, delta = perm_identity(x.n), perm_delta(x.n)
    return all(f != ident and f != delta for f in x.factors) and all(
        starting_set(b) <= finishing_set(a) for a, b in zip(x.factors, x.factors[1:]))

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
can be Delta (folded into inf), since x <= xg <= x Delta.  A word enters one
maximal simple run at a time: consecutive letters of one sign whose product
is still a permutation braid make one g, so a word costs one such pass per
run, not per letter.

Left-weighting one pair (a, b) is _left_weight_pair: a single forward scan
over positions that slides one generator at a time from b to a and steps back
one position after each slide, with a inverted once on entry and updated in
place, so neither the pair nor its result is inverted again.

A form keeps meeting the same factor pairs: on random words of up to 200
letters at n = 4..8, the passes of one form meet each distinct pair 2.3 times
on average, and at n = 4 there are only 22 factors to pair at all.
_left_weight_pair depends on its pair alone, so _right_multiply keeps, for
the length of one call, a pair's result from the second time the pair comes
up; the first time only the pair's hash is kept.  A pair that never recurs
thus holds no n-tuples alive, which matters at large n, where most pairs are
met once: storing every result on first sight took the peak memory of a
random 3000-letter word at n = 300 from 22 MB to 100 MB, against 30 MB this
way.

A negative run sigma_{i_1}^-1 ... sigma_{i_r}^-1 is P^-1 for the simple
P = sigma_{i_r} ... sigma_{i_1}, and P^-1 = Delta^-1 * (Delta P^-1) with
Delta P^-1 simple (a single letter gives Delta^-1 * (Delta sigma_i^-1)).
Moving that Delta^-1 to the front would flip every earlier factor by
x -> Delta x Delta^-1; a parity records the flip instead, and new factors are
stored in the flipped frame.  The flip is an automorphism, so left-weightedness
holds in either frame, and the parity is applied once, to the finished form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .braid import BraidWord, Letter

Perm = tuple[int, ...]


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


@cache
def perm_delta(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


def perm_mult(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[v] for v in p)


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _flip(p: Perm) -> Perm:
    """The flip automorphism x -> Delta x Delta^-1 on a simple factor."""
    d = perm_delta(len(p))
    return tuple(d[p[d[i]]] for i in range(len(p)))


def _left_weight_pair(a: Perm, b: Perm) -> tuple[Perm, Perm] | None:
    """Slide generators from the front of b to the back of a until the pair is
    left-weighted; None if it already was.  sigma_{i+1} can slide when it
    starts b (b[i] > b[i+1]) but does not finish a (a^-1[i] < a^-1[i+1]).

    One forward scan over i, keeping a, a^-1 and b as lists: a slide swaps
    positions i, i+1 of a^-1 and of b, and writes the two moved values of a
    in place, so the result needs no second inversion.  It can change the
    test only at i - 1 and i + 1, so the scan steps back one position after
    it; every position left of the scan stays unslidable.  The pair's product
    has one left-weighted form, so the order of slides does not matter."""
    ai = [0] * len(a)  # perm_inverse's tuple, copied to a list, costs 14% of this kernel
    for i, v in enumerate(a):
        ai[v] = i
    al, bl = list(a), list(b)
    last = len(bl) - 2
    i, moved = 0, False
    while i <= last:
        if bl[i] > bl[i + 1] and ai[i] < ai[i + 1]:
            u, v = ai[i], ai[i + 1]
            bl[i], bl[i + 1] = bl[i + 1], bl[i]
            ai[i], ai[i + 1] = v, u
            al[u], al[v] = i + 1, i
            moved = True
            if i:
                i -= 1
        else:
            i += 1
    return (tuple(al), tuple(bl)) if moved else None


def _right_multiply(n: int, inf: int, factors: tuple[Perm, ...],
                    steps: list[tuple[int, Perm]]) -> NormalForm:
    """Normal form of Delta^inf * factors * (Delta^k * g for each (k, g) in steps),
    where Delta^inf * factors is a normal form and every g is simple."""
    ident, delta = perm_identity(n), perm_delta(n)
    out = list(factors)
    flip = 0
    seen: set[int] = set()
    memo: dict[tuple[Perm, Perm], tuple[Perm, Perm] | None] = {}
    for k, g in steps:
        inf += k
        flip ^= k & 1
        out.append(_flip(g) if flip else g)
        j = len(out) - 1
        while j:
            key = (out[j - 1], out[j])
            pair = memo.get(key, key)  # a stored result is never the key itself
            if pair is key:
                pair = _left_weight_pair(*key)
                h = hash(key)
                if h in seen:
                    memo[key] = pair
                else:
                    seen.add(h)
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

    def __str__(self) -> str:
        parts = [f"D^{self.inf}"]
        for f in self.factors:
            parts.append(" ".join(str(v + 1) for v in f))
        return " | ".join(parts)


def _simple_runs(n: int, letters: tuple[Letter, ...]) -> list[tuple[int, Perm]]:
    """The letters as (k, g) steps for _right_multiply, one per maximal run of
    same-sign letters whose product is simple.

    q is the permutation of the run read backwards, sigma_{i_r} ... sigma_{i_1}:
    each letter swaps positions i - 1, i of q.  For a positive run q is P^-1,
    P = sigma_{i_1} ... sigma_{i_r}, and P sigma_i stays simple while the
    strands at positions i - 1, i of P have not crossed: q[i-1] < q[i].  For a
    negative run q is P itself, and sigma_i P stays simple while sigma_i does
    not start P: again q[i-1] < q[i].  The run then enters as Delta P^-1.
    """
    steps = []
    q, sign = None, 0
    for i, s in letters:
        if s != sign or q[i - 1] > q[i]:
            if q:
                steps.append(_run_step(q, sign))
            q, sign = list(range(n)), s
        q[i - 1], q[i] = q[i], q[i - 1]
    if q:
        steps.append(_run_step(q, sign))
    return steps


def _run_step(q: list[int], sign: int) -> tuple[int, Perm]:
    """(0, P) for a positive run, where P = q^-1; (-1, Delta P^-1) for a
    negative one, where P^-1 = q^-1 and Delta P^-1 is its reverse."""
    g = perm_inverse(q)
    return (0, g) if sign > 0 else (-1, g[::-1])


def to_normal_form(word: BraidWord) -> NormalForm:
    """Left-greedy normal form of a classical braid word."""
    if not word.is_classical:
        raise ValueError("normal forms are defined for classical words only")
    return _right_multiply(word.n, 0, (), _simple_runs(word.n, word.letters))


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

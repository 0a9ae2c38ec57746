"""Words in the braid group and the singular braid monoid.

A letter is a pair (i, s): s = +1 or -1 encodes the crossing sigma_i^{+-1},
and s = 0 encodes the singular generator tau_i (which has no inverse).
Text form: whitespace-separated tokens, a nonzero integer k for
sigma_{|k|}^{sign k} and "tK" for tau_K, e.g. "1 2 -1 t1".  The strand
count is always explicit, never inferred from the letters.

The module also provides the defining relation sets of B_n and SM_n, the
action on the free group by Artin automorphisms, and the Markov moves
(conjugation, stabilization, destabilization) used for link invariants.

word_image is the one fold from a word to a product: every image of a word
(a matrix representation, the group algebra, the Temperley-Lieb algebra and
the Artin action) is the product of its letters' images in word order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from operator import mul
from typing import Callable, TypeVar

Letter = tuple[int, int]
T = TypeVar("T")


def sigma(i: int, sign: int = 1) -> Letter:
    if sign not in (1, -1):
        raise ValueError("sigma sign must be +1 or -1")
    return (i, sign)


def tau(i: int) -> Letter:
    return (i, 0)


@dataclass(frozen=True)
class BraidWord:
    """A word in sigma_i^{+-1} and tau_i on n strands."""

    n: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("strand count must be at least 2")
        for i, s in self.letters:
            if not 1 <= i <= self.n - 1:
                raise ValueError(f"generator index {i} out of range for n={self.n}")
            if s not in (-1, 0, 1):
                raise ValueError(f"invalid letter sign {s}")

    @classmethod
    def parse(cls, n: int, text: str) -> BraidWord:
        letters: list[Letter] = []
        for token in text.split():
            if token.startswith("t"):
                try:
                    k = int(token[1:])
                except ValueError:
                    raise ValueError(f"bad braid token {token!r}") from None
                if k < 1:
                    raise ValueError(f"bad braid token {token!r}")
                letters.append(tau(k))
            else:
                try:
                    k = int(token)
                except ValueError:
                    raise ValueError(f"bad braid token {token!r}") from None
                if k == 0:
                    raise ValueError("braid token 0 is not allowed")
                letters.append(sigma(abs(k), 1 if k > 0 else -1))
        return cls(n, tuple(letters))

    def text(self) -> str:
        tokens = []
        for i, s in self.letters:
            tokens.append(f"t{i}" if s == 0 else str(i * s))
        return " ".join(tokens)

    @property
    def is_classical(self) -> bool:
        return all(s != 0 for _, s in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        if not self.is_classical:
            raise ValueError("singular words have no inverse")
        return BraidWord(self.n, tuple((i, -s) for i, s in reversed(self.letters)))

    def __str__(self) -> str:
        return self.text() or "e"


def word_image(word: BraidWord, letter_image: Callable[[Letter], T],
               unit: Callable[[], T], product: Callable[[T, T], T] = mul) -> T:
    """Product of the letters' images in word order; unit() only for the empty word."""
    return reduce(product, map(letter_image, word.letters)) if word.letters else unit()


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent sigma_i^{+1} sigma_i^{-1} pairs; no braid-relation rewriting."""
    if not word.is_classical:
        raise ValueError("free reduction applies to classical words only")
    return BraidWord(word.n, free_word_reduce(word.letters))


# -- Markov moves -------------------------------------------------------------

def conjugate(word: BraidWord, by: BraidWord) -> BraidWord:
    """First Markov move: by^-1 * word * by, all on the same strand count."""
    if not word.is_classical or not by.is_classical:
        raise ValueError("Markov moves apply to classical words only")
    if word.n != by.n:
        raise ValueError("strand count mismatch")
    return by.inverse() * word * by


def stabilize(word: BraidWord, sign: int = 1) -> BraidWord:
    """Append sigma_n^{+-1}, viewing the word in B_{n+1}."""
    if not word.is_classical:
        raise ValueError("Markov moves apply to classical words only")
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +1 or -1")
    return BraidWord(word.n + 1, word.letters + (sigma(word.n, sign),))


def destabilize(word: BraidWord) -> BraidWord:
    """Inverse of stabilization: strip a final sigma_{n-1}^{+-1} not used elsewhere."""
    if not word.is_classical:
        raise ValueError("Markov moves apply to classical words only")
    if word.n < 3:
        raise ValueError("cannot destabilize below two strands")
    top = word.n - 1
    if not word.letters or word.letters[-1][0] != top:
        raise ValueError("word does not end with the top generator")
    body = word.letters[:-1]
    if any(i == top for i, _ in body):
        raise ValueError("top generator occurs before the final letter")
    return BraidWord(word.n - 1, body)


# -- defining relations --------------------------------------------------------

@dataclass(frozen=True)
class Relation:
    label: str
    lhs: BraidWord
    rhs: BraidWord


def relation_set(n: int, monoid: str) -> tuple[Relation, ...]:
    """All defining relation instances of B_n ("Bn") or SM_n ("SMn")."""
    if n < 2:
        raise ValueError("strand count must be at least 2")
    if monoid not in ("Bn", "SMn"):
        raise ValueError(f"unknown monoid {monoid!r}")
    W = lambda *letters: BraidWord(n, letters)
    empty = W()
    rels: list[Relation] = []
    for i in range(1, n):
        rels.append(Relation(f"inv({i})", W(sigma(i), sigma(i, -1)), empty))
        rels.append(Relation(f"inv'({i})", W(sigma(i, -1), sigma(i)), empty))
    for i in range(1, n - 1):
        rels.append(
            Relation(
                f"braid({i})",
                W(sigma(i), sigma(i + 1), sigma(i)),
                W(sigma(i + 1), sigma(i), sigma(i + 1)),
            )
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(
                Relation(
                    f"comm({i},{j})",
                    W(sigma(i), sigma(j)),
                    W(sigma(j), sigma(i)),
                )
            )
    if monoid == "SMn":
        for i in range(1, n):
            for j in range(i + 2, n):
                rels.append(
                    Relation(
                        f"tau-comm({i},{j})", W(tau(i), tau(j)), W(tau(j), tau(i))
                    )
                )
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) >= 2:
                    rels.append(
                        Relation(
                            f"mixed-far({i},{j})",
                            W(tau(i), sigma(j)),
                            W(sigma(j), tau(i)),
                        )
                    )
        for i in range(1, n):
            rels.append(
                Relation(f"mixed-near({i})", W(tau(i), sigma(i)), W(sigma(i), tau(i)))
            )
        for i in range(1, n - 1):
            rels.append(
                Relation(
                    f"long-up({i})",
                    W(sigma(i), sigma(i + 1), tau(i)),
                    W(tau(i + 1), sigma(i), sigma(i + 1)),
                )
            )
            rels.append(
                Relation(
                    f"long-down({i})",
                    W(sigma(i + 1), sigma(i), tau(i + 1)),
                    W(tau(i), sigma(i + 1), sigma(i)),
                )
            )
    return tuple(rels)


# -- Artin action on the free group ---------------------------------------------
#
# Free words are freely reduced tuples of (generator index, sign).  An
# automorphism stores the image of each generator; applying it substitutes
# images and reduces.

FreeWord = tuple[tuple[int, int], ...]


def free_word_reduce(letters) -> FreeWord:
    stack: list[tuple[int, int]] = []
    for g, s in letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


def free_word_inverse(word: FreeWord) -> FreeWord:
    return tuple((g, -s) for g, s in reversed(word))


@dataclass(frozen=True)
class FreeAuto:
    """Automorphism of the free group F_n given by generator images."""

    n: int
    images: tuple[FreeWord, ...]

    @classmethod
    def identity(cls, n: int) -> FreeAuto:
        return cls(n, tuple((((g, 1),)) for g in range(1, n + 1)))


def artin_generator(n: int, i: int, sign: int = 1) -> FreeAuto:
    """Artin automorphism of sigma_i^{+-1}: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    images = [((g, 1),) for g in range(1, n + 1)]
    if sign == 1:
        images[i - 1], images[i] = ((i, 1), (i + 1, 1), (i, -1)), ((i, 1),)
    else:
        images[i - 1], images[i] = ((i + 1, 1),), ((i + 1, -1), (i, 1), (i + 1, 1))
    return FreeAuto(n, tuple(images))


def auto_apply(auto: FreeAuto, word: FreeWord) -> FreeWord:
    out: list[tuple[int, int]] = []
    for g, s in word:
        image = auto.images[g - 1]
        out.extend(image if s == 1 else free_word_inverse(image))
    return free_word_reduce(out)


def auto_compose(first: FreeAuto, second: FreeAuto) -> FreeAuto:
    """The automorphism 'apply first, then second'."""
    if first.n != second.n:
        raise ValueError("rank mismatch")
    return FreeAuto(first.n, tuple(auto_apply(second, img) for img in first.images))


FreeAuto.__mul__ = auto_compose


def artin_of_braid(word: BraidWord) -> FreeAuto:
    if not word.is_classical:
        raise ValueError("the Artin action is defined for classical words only")
    n = word.n
    letter_image = cache(lambda letter: artin_generator(n, *letter))
    return word_image(word, letter_image, lambda: FreeAuto.identity(n))

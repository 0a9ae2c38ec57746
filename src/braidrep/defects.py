"""Additive and multiplicative defects comparing two matrix representations.

For representations phi, psi of the same group on the same space, the defect
of phi relative to psi at a word w is

    additive:       phi(w) - psi(w)
    multiplicative: psi(w)^-1 * phi(w)

so that psi(w) + additive = phi(w) and psi(w) * multiplicative = phi(w).
Both come from one routine, defect_between, as RingMatrix operations on
rep_apply images.  A representation is a group homomorphism, so
psi(w)^-1 = psi(w^-1): the product of the stored inverse generator images
in reverse order, and no matrix is inverted.  The canonical
pair compares the Lawrence-Krammer-Bigelow representation (phi) against the
exterior square of Burau in q (psi); both act on the pair basis of rank
n(n-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord
from .matrix import RingMatrix
from .reps import MatrixRep, exterior_square_burau, lkb, rep_apply


@dataclass(frozen=True)
class DefectResult:
    word: BraidWord
    additive: RingMatrix
    multiplicative: RingMatrix


def defect_between(phi: MatrixRep, psi: MatrixRep, word: BraidWord) -> DefectResult:
    """Both defects of phi relative to psi at a classical word.

    The multiplicative defect is over the fraction field.
    """
    if not word.is_classical:
        raise ValueError("defects are defined for classical words only")
    phi_w = rep_apply(phi, word)
    return DefectResult(
        word=word,
        additive=phi_w - rep_apply(psi, word),
        multiplicative=(rep_apply(psi, word.inverse()) * phi_w).to_ratfunc(),
    )


def defect(n: int, word: BraidWord) -> DefectResult:
    """Both defects of the LKB/exterior-square pair at one word."""
    if not word.is_classical:  # checked before the pair is built: about 0.6 s cold at n = 9
        raise ValueError("defects are defined for classical words only")
    return defect_between(lkb(n), exterior_square_burau(n), word)


def additive_defect(n: int, word: BraidWord) -> RingMatrix:
    """phi_LKB(word) - wedge-square-Burau(word), exact over the Laurent ring."""
    return defect(n, word).additive


def multiplicative_defect(n: int, word: BraidWord) -> RingMatrix:
    """wedge-square-Burau(word)^-1 * phi_LKB(word), exact and reduced."""
    return defect(n, word).multiplicative

"""Additive and multiplicative defects comparing two matrix representations.

For representations phi, psi of the same group on the same space, the defect
of phi relative to psi at a word w is

    additive:       phi(w) - psi(w)
    multiplicative: psi(w)^-1 * phi(w)

so that psi(w) + additive = phi(w) and psi(w) * multiplicative = phi(w).
The canonical pair compares the Lawrence-Krammer-Bigelow representation
(phi) against the exterior square of Burau in q (psi); both act on the
pair basis of rank n(n-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord
from .matrix import RingMatrix
from .reps import MatrixRep, exterior_square_burau, lkb, rep_apply


def additive_defect_between(phi: MatrixRep, psi: MatrixRep, word: BraidWord) -> RingMatrix:
    return rep_apply(phi, word) - rep_apply(psi, word)


def multiplicative_defect_between(phi: MatrixRep, psi: MatrixRep, word: BraidWord) -> RingMatrix:
    return rep_apply(psi, word).inverse() * rep_apply(phi, word).to_ratfunc()


def additive_defect(n: int, word: BraidWord) -> RingMatrix:
    """phi_LKB(word) - wedge-square-Burau(word), exact over the Laurent ring."""
    if not word.is_classical:
        raise ValueError("defects are defined for classical words only")
    return additive_defect_between(lkb(n), exterior_square_burau(n), word)


def multiplicative_defect(n: int, word: BraidWord) -> RingMatrix:
    """wedge-square-Burau(word)^-1 * phi_LKB(word), exact and reduced."""
    if not word.is_classical:
        raise ValueError("defects are defined for classical words only")
    return multiplicative_defect_between(lkb(n), exterior_square_burau(n), word)


@dataclass(frozen=True)
class DefectResult:
    word: BraidWord
    additive: RingMatrix
    multiplicative: RingMatrix


def defect(n: int, word: BraidWord) -> DefectResult:
    """Both defects of the LKB/exterior-square pair at one word."""
    if not word.is_classical:
        raise ValueError("defects are defined for classical words only")
    phi = rep_apply(lkb(n), word)
    psi = rep_apply(exterior_square_burau(n), word)
    return DefectResult(
        word=word,
        additive=phi - psi,
        multiplicative=psi.inverse() * phi.to_ratfunc(),
    )

import importlib.util
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from braidrep.braid import BraidWord
from braidrep.matrix import RingMatrix
from braidrep.ring import ZERO, LaurentPoly, integer, variable


def rand_classical_word(rng: random.Random, n: int, length: int) -> BraidWord:
    letters = tuple(
        (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(n, letters)


def reduced_classical_word(rng: random.Random, n: int, length: int) -> BraidWord:
    """A freely reduced random word, as the word-problem benchmark draws them."""
    letters = []
    while len(letters) < length:
        x = (rng.randint(1, n - 1), rng.choice((1, -1)))
        if not letters or letters[-1] != (x[0], -x[1]):
            letters.append(x)
    return BraidWord(n, tuple(letters))


@pytest.fixture
def dense_views(monkeypatch):
    """The matrices whose dense view, RingMatrix.rows, is read while the test runs."""
    views = []
    rows = RingMatrix.rows

    def counting(m):
        views.append(m)
        return rows.fget(m)

    monkeypatch.setattr(RingMatrix, "rows", property(counting))
    return views


def zero_matrix(dim: int, ring: str = "laurent") -> RingMatrix:
    """The dim x dim zero matrix over the ring."""
    return RingMatrix([[0] * dim] * dim, ring)


def rand_poly(rng: random.Random, names=("q", "t"), terms=3, max_exp=2,
              max_coeff=3, laurent=False) -> LaurentPoly:
    poly = ZERO
    low = -max_exp if laurent else 0
    for _ in range(terms):
        term = integer(rng.randint(-max_coeff, max_coeff))
        for name in names:
            term = term * variable(name, rng.randint(low, max_exp))
        poly = poly + term
    return poly


@cache
def benchmark_module(name: str):
    """perfbench/<name>.py, loaded read-only by path; the benchmark is no package."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module

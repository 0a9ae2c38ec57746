"""Seeded operation streams for the four workloads.

A workload is a stream of rounds.  Every round has the same make-up (the
same commands with the same shapes of input) and draws its inputs from one
`random.Random` seeded by the workload name and `--seed`, so one seed always
gives the same rounds in the same order.  An operation is one argv list for
`braidrep.cli.main`; `check` names the oracle that judges its output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product


@dataclass(frozen=True)
class Op:
    check: str
    argv: tuple[str, ...]


@dataclass
class Round:
    ops: list[Op]
    # (kind, index_a, index_b) pairs of nf operations judged together.
    pairs: list[tuple[str, int, int]] = field(default_factory=list)


def letters_text(letters) -> str:
    return " ".join(f"t{i}" if s == 0 else str(i * s) for i, s in letters)


def random_word(rng: random.Random, n: int, length: int, cyclic=True) -> list[tuple[int, int]]:
    """Freely reduced random classical word; when cyclic, also cyclically
    reduced and (if long enough) using every generator, so that no input
    collapses to a shorter or split braid."""
    while True:
        letters: list[tuple[int, int]] = []
        while len(letters) < length:
            x = (rng.randint(1, n - 1), rng.choice((1, -1)))
            if not letters or letters[-1] != (x[0], -x[1]):
                letters.append(x)
        if not cyclic:
            return letters
        if length > 1 and letters[0] == (letters[-1][0], -letters[-1][1]):
            continue
        if length >= n - 1 and {i for i, _ in letters} != set(range(1, n)):
            continue
        return letters


def all_words(n: int, length: int) -> list[tuple[tuple[int, int], ...]]:
    """Every word `random_word(rng, n, length)` can return, in a fixed order;
    it returns each of them with the same probability."""
    letters = [(i, s) for i in range(1, n) for s in (1, -1)]
    return [w for w in product(letters, repeat=length)
            if all(w[k] != (w[k + 1][0], -w[k + 1][1]) for k in range(length - 1))
            and not (length > 1 and w[0] == (w[-1][0], -w[-1][1]))
            and not (length >= n - 1 and {i for i, _ in w} != set(range(1, n)))]


class Deck:
    """The words of one shape, dealt in a seeded random order and reshuffled
    when all have been dealt.  Each deal has the distribution of
    `random_word`, but a run sees the shape's words evenly instead of by
    independent draws, so that the seed moves a run's cost less: a shape with
    a few heavy words (the 48 words of (4, 3) cost 0.02 to 0.4 s as `markov`
    searches) would otherwise set a run's figures by how many it drew."""

    def __init__(self, rng: random.Random, n: int, length: int):
        self.rng = rng
        self.words = all_words(n, length)
        self.left: list = []

    def deal(self):
        if not self.left:
            self.left = list(self.words)
            self.rng.shuffle(self.left)
        return self.left.pop()


def each_round(make_round):
    """The stream of a workload whose rounds are drawn independently."""
    def stream(rng: random.Random):
        while True:
            yield make_round(rng)
    return stream


# -- invariant -------------------------------------------------------------------

# (strands, word length) of each charpoly in a round.
INVARIANT_CELLS = [(3, 6), (3, 6), (3, 8), (3, 8), (3, 10), (3, 10), (3, 12),
                   (4, 3), (4, 3), (4, 4), (4, 4), (5, 2)]


def invariant_round(rng: random.Random) -> Round:
    ops = []
    for n, length in INVARIANT_CELLS:
        word = letters_text(random_word(rng, n, length))
        ops.append(Op("charpoly", ("charpoly", "--n", str(n), "--word", word, "--out", "json")))
    return Round(ops)


# -- markov ----------------------------------------------------------------------

# (strands, word length, depth, max strands) of each search in a round.
MARKOV_CELLS = [(2, 1, 2, 4), (2, 2, 2, 4), (2, 4, 1, 3),
                (3, 2, 1, 4), (3, 3, 1, 4), (3, 5, 1, 3), (3, 7, 1, 3),
                (4, 3, 1, 4)]


def markov_stream(rng: random.Random):
    """Seed words come from one deck per cell: every cell has few words (2 to
    a few hundred), and a run of this workload deals tens of rounds."""
    decks = [Deck(rng, n, length) for n, length, _, _ in MARKOV_CELLS]
    while True:
        ops = []
        for deck, (n, _, depth, max_strands) in zip(decks, MARKOV_CELLS):
            word = letters_text(deck.deal())
            ops.append(Op("markov", ("markov", "--n", str(n), "--word", word, "--depth", str(depth),
                                     "--max-strands", str(max_strands), "--max-len", "12",
                                     "--out", "json")))
        yield Round(ops)


# -- word-problem ------------------------------------------------------------------

# (strands, word length) of each group of four nf operations in a round.
WORD_PROBLEM_CELLS = [(4, 200), (5, 30), (6, 100), (7, 50), (8, 120), (5, 60), (6, 25), (8, 40)]


def equal_variant(rng: random.Random, letters, n: int) -> list[tuple[int, int]]:
    """The same braid written differently: free sigma sigma^-1 insertions,
    far commutations and braid relations applied at random places."""
    w = list(letters)
    for _ in range(max(1, len(w) // 10)):
        pos = rng.randint(0, len(w))
        i, s = rng.randint(1, n - 1), rng.choice((1, -1))
        w[pos:pos] = [(i, s), (i, -s)]
    for _ in range(len(w) // 2):
        k = rng.randrange(len(w) - 1)
        (i, s), (j, r) = w[k], w[k + 1]
        if abs(i - j) >= 2:
            w[k], w[k + 1] = w[k + 1], w[k]
        elif k + 2 < len(w) and abs(i - j) == 1 and s == r and w[k + 2] == (i, s):
            w[k:k + 3] = [(j, s), (i, s), (j, s)]
    return w


def near_miss(rng: random.Random, letters, n: int) -> list[tuple[int, int]]:
    """One letter changed: its sign flipped or its generator moved by one."""
    w = list(letters)
    k = rng.randrange(len(w))
    i, s = w[k]
    if rng.random() < 0.5:
        w[k] = (i, -s)
    else:
        w[k] = (i + 1 if i < n - 1 else i - 1, s)
    return w


def word_problem_round(rng: random.Random) -> Round:
    ops, pairs = [], []

    def nf(n, letters):
        ops.append(Op("nf", ("nf", "--n", str(n), "--word", letters_text(letters), "--out", "json")))
        return len(ops) - 1

    for n, length in WORD_PROBLEM_CELLS:
        a = random_word(rng, n, length, cyclic=False)
        pairs.append(("equal", nf(n, a), nf(n, equal_variant(rng, a, n))))
        b = random_word(rng, n, length, cyclic=False)
        pairs.append(("near-miss", nf(n, b), nf(n, near_miss(rng, b, n))))
    return Round(ops, pairs)


# -- singular -----------------------------------------------------------------------

SINGULAR_FIXED = [
    ("verify", "verify --rep lkb-ext --n 3"),
    ("verify", "verify --rep lkb-ext --n 4"),
    ("verify", "verify --rep lkb-ext --n 3 --param u=1/2"),
    ("verify", "verify --rep lkb-ext --n 4 --param u=1/2"),
    ("verify", "verify --rep burau-ext --n 4"),
    ("verify", "verify --rep burau-ext --n 5"),
    ("verify", "verify --rep wedge-burau --n 4"),
    ("verify", "verify --rep wedge-burau --n 5"),
    ("verify", "verify --rep birman --n 3"),
    ("verify", "verify --rep birman --n 4"),
    ("verify", "tl --n 4 --verify"),
    ("verify", "tl --n 5 --verify"),
    ("det-tau", "det-tau --n 4"),
    ("det-tau", "det-tau --n 5"),
]
# (strands, word length) of the seeded defect and rep inputs.
SINGULAR_DEFECT = [(3, 4), (4, 4), (5, 3)]
SINGULAR_REP = [(4, 5), (5, 4)]
SINGULAR_SOLVE = [3, 4]


def rational(rng: random.Random, avoid=()) -> Fraction:
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if x not in avoid:
            return x


def singular_word(rng: random.Random, n: int, length: int) -> list[tuple[int, int]]:
    """Random word with at least one tau letter; crossings may be inverted."""
    while True:
        w = [(rng.randint(1, n - 1), rng.choice((1, -1, 0))) for _ in range(length)]
        if any(s == 0 for _, s in w):
            return w


def singular_round(rng: random.Random) -> Round:
    ops = [Op(check, tuple(cmd.split()) + ("--out", "json")) for check, cmd in SINGULAR_FIXED]
    for n, length in SINGULAR_DEFECT:
        word = letters_text(random_word(rng, n, length))
        ops.append(Op("defect", ("defect", "--n", str(n), "--word", word, "--out", "json")))
    for n in SINGULAR_SOLVE:
        q = rational(rng, avoid=(0, 1, -1))
        t = rational(rng, avoid=(0,))
        ops.append(Op("solve-ext", ("solve-ext", "--n", str(n), "--point", f"q={q},t={t}", "--out", "json")))
    for n, length in SINGULAR_REP:
        word = letters_text(singular_word(rng, n, length))
        ops.append(Op("rep", ("rep", "--rep", "lkb-ext", "--n", str(n), "--word", word, "--out", "json")))
    return Round(ops)


@dataclass(frozen=True)
class Workload:
    name: str
    # rng -> endless iterator of rounds
    stream: object
    # Representations a command of this workload builds, as (constructor, args).
    builds: tuple[tuple[str, tuple], ...]
    # Rounds in the traced run: a fixed count, so that its counts repeat.
    trace_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("invariant", each_round(invariant_round),
                 (("lkb", (3,)), ("lkb", (4,)), ("lkb", (5,))), 8),
        Workload("markov", markov_stream,
                 (("lkb", (2,)), ("lkb", (3,)), ("lkb", (4,))), 6),
        Workload("word-problem", each_round(word_problem_round), (), 1),
        Workload("singular", each_round(singular_round),
                 (("lkb_ext", (3,)), ("lkb_ext", (4,)), ("lkb_ext", (5,)),
                  ("lkb_ext", (3, Fraction(1, 2))), ("lkb_ext", (4, Fraction(1, 2))),
                  ("burau_ext", (4,)), ("burau_ext", (5,)),
                  ("exterior_square_burau", (3,)), ("exterior_square_burau", (4,)),
                  ("exterior_square_burau", (5,)),
                  ("lkb", (3,)), ("lkb", (4,)), ("lkb", (5,))), 2),
    )
}


def rounds(workload: Workload, seed: int):
    """The endless, seed-determined stream of rounds of one workload."""
    yield from workload.stream(random.Random(f"{workload.name}/{seed}"))


if __name__ == "__main__":
    import argparse
    import shlex
    from itertools import islice

    parser = argparse.ArgumentParser(description="Print the command lines of a seed's first rounds.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    for k, rnd in enumerate(islice(rounds(WORKLOADS[args.workload], args.seed), args.rounds)):
        for op in rnd.ops:
            print(f"round {k}: braidrep {shlex.join(op.argv)}")

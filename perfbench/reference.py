"""Distance to a reference implementation: sympy's DomainMatrix.charpoly.

    python3 perfbench/reference.py [--seed 1] [--rounds 10]

Run from the root of a source checkout.  Takes the n = 5 words of the first
rounds of the `invariant` workload, times `braidrep charpoly` on each (warm
LKB cache, in-process) and sympy's `DomainMatrix(ZZ[q,t]).charpoly()` on the
same LKB image, scaled by a monomial to clear negative exponents, and prints
both totals and their ratio.  Not part of the timed benchmark.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stdout
from itertools import islice
from time import perf_counter

from oracle import parse_poly
from workloads import WORKLOADS, rounds


def call(cli, argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main(argv)
    return buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    from braidrep import cli

    from sympy import ZZ, symbols
    from sympy.polys.matrices import DomainMatrix

    ring = ZZ[symbols("q t")]
    words = [op.argv[op.argv.index("--word") + 1]
             for rnd in islice(rounds(WORKLOADS["invariant"], args.seed), args.rounds)
             for op in rnd.ops if op.argv[2] == "5"]
    call(cli, ["charpoly", "--n", "5", "--word", "1"])  # fill the LKB cache
    ours = theirs = 0.0
    for text in words:
        t0 = perf_counter()
        call(cli, ["charpoly", "--n", "5", "--word", text, "--out", "json"])
        ours += perf_counter() - t0
        image = json.loads(call(cli, ["rep", "--rep", "lkb", "--n", "5", "--word", text]))
        entries = [[{tuple(dict(powers).get(v, 0) for v in "qt"): c for c, powers in parse_poly(x)}
                    for x in row] for row in image["rows"]]
        low = [min(m[k] for row in entries for e in row for m in e) for k in range(2)]
        rows = [[ring.ring.from_dict({(a - low[0], b - low[1]): c for (a, b), c in e.items()})
                 for e in row] for row in entries]
        dm = DomainMatrix(rows, (len(rows), len(rows)), ring)
        t0 = perf_counter()
        dm.charpoly()
        theirs += perf_counter() - t0
    print(f"{len(words)} LKB images at n = 5 (seed {args.seed}): braidrep charpoly {ours:.3f} s, "
          f"sympy DomainMatrix.charpoly {theirs:.3f} s, ratio {ours / theirs:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())

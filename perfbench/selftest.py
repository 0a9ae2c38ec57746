"""Show that every output check rejects a corrupted output.

    python3 perfbench/selftest.py [--seed 1]

Run from the root of a source checkout.  For each workload it runs the first
round of operations, confirms that each real output passes its check, then
alters each output in one place (a polynomial coefficient, a normal-form
factor, a relation count, a basis entry) and confirms that the check fails.
Exits 1 if a real output is rejected or a corrupted one accepted.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
from contextlib import redirect_stdout
from itertools import islice

from oracle import Checker, parse_poly, span_check
from run import CHECKS, fresh_import
from workloads import WORKLOADS, rounds


def render(terms) -> str:
    parts = []
    for k, (coeff, powers) in enumerate(terms):
        body = "*".join([str(abs(coeff))] + [f"{n}^{e}" for n, e in powers])
        sign = "-" if coeff < 0 else ("" if k == 0 else "+")
        parts.append(f"{' ' if k else ''}{sign}{' ' if k and sign else ''}{body}")
    return "".join(parts)


def bump(text: str) -> str:
    """The same polynomial or fraction with one coefficient raised by one."""
    if text.startswith("(") and ")/(" in text:
        num, den = text[1:-1].split(")/(", 1)
        return f"({bump(num)})/({den})"
    terms = parse_poly(text)
    coeff, powers = terms[-1]
    terms[-1] = (coeff + 1 if coeff + 1 else coeff + 2, powers)
    return render(terms)


def corruptions(check: str, out: str):
    """Yield (label, corrupted output) pairs for one real output."""
    data = json.loads(out)

    def dump(d):
        return json.dumps(d, sort_keys=True)

    if check == "charpoly":
        yield "coefficient", dump({**data, "poly": bump(data["poly"])})
    elif check == "markov":
        key = data["polys"][-1]
        bad = bump(key)
        witnesses = {bad if k == key else k: w for k, w in data["witnesses"].items()}
        yield "coefficient", dump({**data, "polys": sorted(witnesses), "witnesses": witnesses})
    elif check == "nf":
        inf = data["inf"] + 1
        text = " | ".join([f"D^{inf}"] + [" ".join(map(str, f)) for f in data["factors"]])
        yield "Delta power", dump({**data, "inf": inf, "text": text})
        if data["factors"]:
            f = list(data["factors"][-1])
            f[0], f[-1] = f[-1], f[0]
            factors = data["factors"][:-1] + [f]
            text = " | ".join([f"D^{data['inf']}"] + [" ".join(map(str, g)) for g in factors])
            yield "factor", dump({**data, "factors": factors, "text": text})
    elif check == "verify":
        yield "relation count", dump({**data, "total": data["total"] - 1})
        yield "failure", dump({**data, "failures": [{"label": "inv(1)"}]})
    elif check == "det-tau":
        yield "coefficient", dump({**data, "det": bump(data["det"])})
    elif check == "defect":
        for part in ("additive", "multiplicative"):
            rows = [list(r) for r in data[part]["rows"]]
            rows[-1][-1] = bump(rows[-1][-1]) if rows[-1][-1] != "0" else "1"
            yield part, dump({**data, part: {**data[part], "rows": rows}})
    elif check == "rep":
        rows = [list(r) for r in data["rows"]]
        rows[0][0] = bump(rows[0][0]) if rows[0][0] != "0" else "1"
        yield "entry", dump({**data, "rows": rows})
    elif check == "solve-ext":
        basis = json.loads(json.dumps(data["basis"]))
        basis[0][0][1] = str(int(basis[0][0][1].split("/")[0]) + 1) if "/" not in basis[0][0][1] else "7/3"
        yield "basis entry", dump({**data, "basis": basis})


def judge(checker: Checker, op, out: str):
    try:
        reason = CHECKS[op.check](checker, op.argv, out)
        if reason is None and op.check == "solve-ext":
            reason = span_check(int(op.argv[op.argv.index("--n") + 1]), out)
        return reason
    except Exception as exc:
        return f"raised {exc!r}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    _, cli = fresh_import(src)
    bad = 0
    for name, workload in WORKLOADS.items():
        checker = Checker(random.Random(f"selftest/{name}/{args.seed}"))
        rnd = next(islice(rounds(workload, args.seed), 1))
        outs = []
        tally: dict[str, list[int]] = {}
        for op in rnd.ops:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(list(op.argv))
            out = buf.getvalue()
            outs.append(out)
            reason = judge(checker, op, out) if code == 0 else f"exit {code}"
            if reason is not None:
                print(f"REAL OUTPUT REJECTED {' '.join(op.argv)}: {reason}")
                bad += 1
                continue
            for label, corrupt in corruptions(op.check, out):
                counts = tally.setdefault(f"{op.check}/{label}", [0, 0])
                counts[1] += 1
                if judge(checker, op, corrupt) is not None:
                    counts[0] += 1
                else:
                    print(f"CORRUPTION ACCEPTED {label}: {' '.join(op.argv)}")
                    bad += 1
        for kind, a, b in rnd.pairs:
            if kind == "equal":
                # Another pair's braid in place of the rewritten word.
                other = next(x for k, x, _ in rnd.pairs if k == "near-miss")
                counts = tally.setdefault("nf/equal pair", [0, 0])
                counts[1] += 1
                if checker.nf_pair(kind, rnd.ops[a].argv, outs[a], rnd.ops[b].argv, outs[other]) is not None:
                    counts[0] += 1
                else:
                    print(f"CORRUPTION ACCEPTED equal pair {a},{b}")
                    bad += 1
            elif checker.nf_pair(kind, rnd.ops[a].argv, outs[a], rnd.ops[b].argv, outs[b]) is not None:
                print(f"REAL PAIR REJECTED {a},{b}")
                bad += 1
            else:
                counts = tally.setdefault("nf/near-miss pair", [0, 0])
                counts[1] += 1
                if checker.nf_pair(kind, rnd.ops[a].argv, outs[a], rnd.ops[b].argv, outs[a]) is not None:
                    counts[0] += 1
                else:
                    print(f"CORRUPTION ACCEPTED near-miss pair {a},{b}")
                    bad += 1
        for label, (caught, total) in sorted(tally.items()):
            print(f"{name:13s} {label:28s} rejected {caught}/{total}")
    print("selftest", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

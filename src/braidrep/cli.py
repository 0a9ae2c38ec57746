"""Command-line front end: deterministic text/JSON access to every operation.

All input arrives through flags (no prompts, no environment variables), and
identical invocations produce byte-identical output.  Exit status 0 means
success, 1 means a verification ran and failed, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from .braid import BraidWord
from .defects import defect
from .garside import to_normal_form
from .invariants import MarkovBounds, charpoly_invariant, enumerate_markov_class
from .reps import (
    MatrixRep,
    birman_image,
    burau,
    burau_ext,
    det_tau_b4_diff,
    det_tau_symbolic,
    exterior_square_burau,
    lkb,
    lkb_ext,
    rep_apply,
    solve_extension_space,
    verify_group_algebra_relations,
    verify_relations,
)
from .ring import canonical_string
from .tl import tl_rho, verify_tl_relations

# Each matrix representation: its constructor and the --param names it takes
# after the strand count, in order.  The lambdas look the constructors up when
# called, so a wrapper later set on this module's names sees every build.
MATRIX_REPS = {
    "burau": (lambda n: burau(n), ()),
    "burau-ext": (lambda n, a: burau_ext(n, a), ("a",)),
    "lkb": (lambda n: lkb(n), ()),
    "lkb-ext": (lambda n, u, v: lkb_ext(n, u, v), ("u", "v")),
    "wedge-burau": (lambda n: exterior_square_burau(n), ()),
}
REP_NAMES = (*MATRIX_REPS, "birman")
# The --param names each representation (or the tl command) takes.
PARAM_NAMES = {name: names for name, (_, names) in MATRIX_REPS.items()}
PARAM_NAMES |= {"birman": ("a", "b", "c"), "tl": ("a", "b")}
# The largest strand count of a command that builds a matrix representation
# (LKB matrices have n(n-1)/2 rows), set where charpoly on "1 2 ... 8" took
# seconds.  It bounds size, not time: as fresh processes on a 2-core x86-64
# host, charpoly --n 9 takes 1.0 s there and 7 s to 130 s on 16-letter words.
MAX_MATRIX_STRANDS = 9


class UsageError(ValueError):
    pass


# Python's int-to-str limit: a numerator or denominator with more digits could
# not be printed, so no rational input may have one.
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _rational(value: str, what: str) -> Fraction:
    try:
        m = _EXPONENT.search(value)
        # Fraction expands 10**|exponent| in full.  From this bound on, a
        # nonzero mantissa of fewer than len(value) digits gives a numerator or
        # denominator of more than MAX_DIGITS digits; a zero mantissa gives 0.
        if m and abs(int(m.group(1))) >= MAX_DIGITS + len(value):
            mantissa = value[:m.start()]
            if any(ch in "123456789" for ch in mantissa):
                raise ValueError
            x = Fraction(mantissa)
        else:
            x = Fraction(value)
        if max(abs(x.numerator), x.denominator) >= 10 ** MAX_DIGITS:
            raise ValueError
        return x
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad {what} value {value!r}") from None


def _parse_params(items: list[str] | None, subject: str) -> dict[str, object]:
    allowed = PARAM_NAMES[subject]
    params: dict[str, object] = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"bad --param {item!r}; expected name=value")
        name, value = item.split("=", 1)
        name = name.strip()
        value = value.strip()
        if name not in allowed:
            takes = " ".join(allowed) or "no parameters"
            raise UsageError(f"unknown parameter {name!r} for {subject} (takes {takes})")
        if name in params:
            raise UsageError(f"parameter {name!r} given twice")
        params[name] = name if value == "sym" else _rational(value, "parameter")
    return params


def _check_matrix_strands(n: int, flag: str = "--n") -> None:
    if n > MAX_MATRIX_STRANDS:
        raise UsageError(f"{flag} {n} exceeds {MAX_MATRIX_STRANDS}, the most strands "
                         "a matrix representation is built for")


def _build_rep(name: str, n: int, params: dict[str, object]) -> MatrixRep:
    _check_matrix_strands(n)
    constructor, names = MATRIX_REPS[name]
    return constructor(n, *(params.get(p) for p in names))


def _emit(out: str, data, text) -> None:
    """Print data() as JSON or text() as text: only the one asked for is built."""
    print(json.dumps(data(), sort_keys=True) if out == "json" else text())


def cmd_rep(args) -> int:
    params = _parse_params(args.param, args.rep)
    rep = _build_rep(args.rep, args.n, params)
    word = BraidWord.parse(args.n, args.word)
    image = rep_apply(rep, word)
    _emit(args.out, image.to_json_dict, image.__str__)
    return 0


def cmd_verify(args) -> int:
    params = _parse_params(args.param, args.rep)
    if args.rep == "birman":
        report = verify_group_algebra_relations(
            args.n, params.get("a"), params.get("b"), params.get("c")
        )
    else:
        report = verify_relations(_build_rep(args.rep, args.n, params))

    def data() -> dict:
        return {
            "subject": report.subject,
            "monoid": report.monoid,
            "total": len(report.checks),
            "failures": [
                {"label": c.label, "lhs": c.lhs, "rhs": c.rhs} for c in report.failures
            ],
        }

    def text() -> str:
        lines = [report.summary()]
        for c in report.failures:
            lines.append(f"FAIL {c.label}: {c.lhs} vs {c.rhs}")
            lines.append(f"  difference: {c.difference}")
        return "\n".join(lines)

    _emit(args.out, data, text)
    return 0 if report.all_ok else 1


def cmd_charpoly(args) -> int:
    _check_matrix_strands(args.n)
    word = BraidWord.parse(args.n, args.word)
    value = str(charpoly_invariant(args.n, word))
    _emit(args.out, lambda: {"n": args.n, "word": args.word, "poly": value}, lambda: value)
    return 0


def cmd_markov(args) -> int:
    _check_matrix_strands(args.n)
    _check_matrix_strands(args.max_strands, "--max-strands")
    word = BraidWord.parse(args.n, args.word)
    bounds = MarkovBounds(
        depth=args.depth, max_strands=args.max_strands, max_word_length=args.max_len
    )
    sample = enumerate_markov_class(word, bounds)

    def data() -> dict:
        return {
            "seed": {"n": args.n, "word": args.word},
            "bounds": {
                "depth": bounds.depth,
                "max_strands": bounds.max_strands,
                "max_word_length": bounds.max_word_length,
            },
            "polys": list(sample.polys),
            "witnesses": {p: {"n": w.n, "word": w.text()} for p, w in sample.witnesses},
        }

    def text() -> str:
        lines = [f"{len(sample.polys)} polynomials"]
        for p, w in sample.witnesses:
            lines.append(f"{p}  <-  n={w.n} word={w.text() or 'e'}")
        return "\n".join(lines)

    _emit(args.out, data, text)
    return 0


def cmd_defect(args) -> int:
    _check_matrix_strands(args.n)
    word = BraidWord.parse(args.n, args.word)
    result = defect(args.n, word)

    def data() -> dict:
        return {
            "n": args.n,
            "word": args.word,
            "additive": result.additive.to_json_dict(),
            "multiplicative": result.multiplicative.to_json_dict(),
        }

    def text() -> str:
        return f"additive:\n{result.additive}\nmultiplicative:\n{result.multiplicative}"

    _emit(args.out, data, text)
    return 0


def cmd_solve_ext(args) -> int:
    point = {}
    for piece in args.point.split(","):
        if "=" not in piece:
            raise UsageError(f"bad --point component {piece!r}")
        name, value = (x.strip() for x in piece.split("=", 1))
        if name in point:
            raise UsageError(f"coordinate {name!r} given twice")
        point[name] = _rational(value, "--point")
    solution = solve_extension_space(args.n, point)

    def data() -> dict:
        return {
            "n": solution.n,
            "dimension": solution.dimension,
            "point": {k: str(v) for k, v in solution.point},
            "contains_generator_image": solution.contains_generator_image,
            "contains_identity": solution.contains_identity,
            "quadratic_ok": solution.quadratic_ok,
            "basis": [
                [[str(x) for x in row] for row in mat] for mat in solution.basis_matrices
            ],
        }

    def text() -> str:
        lines = [
            f"dimension {solution.dimension}",
            f"contains generator image: {solution.contains_generator_image}",
            f"contains identity: {solution.contains_identity}",
        ]
        if solution.quadratic_ok is not None:
            lines.append(f"quadratic relations on span: {solution.quadratic_ok}")
        return "\n".join(lines)

    _emit(args.out, data, text)
    return 0


def cmd_det_tau(args) -> int:
    _check_matrix_strands(args.n)
    cmp = det_tau_b4_diff() if args.n == 4 else None
    det = canonical_string(det_tau_symbolic(args.n) if cmp is None else cmp["computed"])
    diff = None if cmp is None else canonical_string(cmp["diff"])

    def data() -> dict:
        if cmp is None:
            return {"n": args.n, "det": det}
        return {"n": args.n, "det": det, "reference": canonical_string(cmp["reference"]),
                "diff": diff, "only_u6_terms": cmp["only_u6_terms"]}

    def text() -> str:
        if cmp is None:
            return det
        return (f"{det}\nreference diff: {diff}\n"
                f"diff confined to u^6 terms: {cmp['only_u6_terms']}")

    _emit(args.out, data, text)
    return 0


def cmd_nf(args) -> int:
    word = BraidWord.parse(args.n, args.word)
    nf = to_normal_form(word)

    def data() -> dict:
        return {
            "n": args.n,
            "word": args.word,
            "inf": nf.inf,
            "factors": [[v + 1 for v in f] for f in nf.factors],
            "text": str(nf),
        }

    _emit(args.out, data, nf.__str__)
    return 0


def _emit_elem(args, elem) -> int:
    """An algebra element of a word: its terms by basis key, or its text."""

    def data() -> dict:
        terms = {str(k): str(c) for k, c in sorted(elem.terms.items())}
        return {"n": args.n, "word": args.word, "terms": terms}

    _emit(args.out, data, elem.__str__)
    return 0


def cmd_tl(args) -> int:
    params = _parse_params(args.param, "tl")
    if args.verify:
        if args.word:
            raise UsageError("--verify checks the relations and takes no --word")
        report = verify_tl_relations(args.n, params.get("a"), params.get("b"))
        _emit(args.out, lambda: {
            "subject": report.subject,
            "total": len(report.checks),
            "failures": [{"label": c.label} for c in report.failures],
        }, report.summary)
        return 0 if report.all_ok else 1
    word = BraidWord.parse(args.n, args.word)
    return _emit_elem(args, tl_rho(args.n, word, params.get("a"), params.get("b")))


def cmd_birman(args) -> int:
    params = _parse_params(args.param, "birman")
    word = BraidWord.parse(args.n, args.word)
    return _emit_elem(args, birman_image(word, params.get("a"), params.get("b"), params.get("c")))


class _Once(argparse.Action):
    """Store an option's value; giving the option a second time is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


@cache
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidrep",
        description="Exact braid and singular-braid representations over Laurent rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, word=True, out_default="text"):
        p.add_argument("--n", action=_Once, type=int, required=True, help="strand count")
        if word:
            p.add_argument("--word", action=_Once, default="", help='braid word, e.g. "1 2 -1 t1"')
        p.add_argument("--out", action=_Once, choices=("text", "json"), default=out_default)

    p = sub.add_parser("rep", help="image matrix of a word under a representation")
    p.add_argument("--rep", action=_Once, choices=MATRIX_REPS, required=True)
    p.add_argument("--param", action="append", metavar="k=v")
    common(p, out_default="json")
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("verify", help="check every defining relation symbolically")
    p.add_argument("--rep", action=_Once, choices=REP_NAMES, required=True)
    p.add_argument("--param", action="append", metavar="k=v")
    common(p, word=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("charpoly", help="characteristic-polynomial invariant of a word")
    common(p)
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("markov", help="bounded Markov-class polynomial sample")
    common(p, out_default="json")
    p.add_argument("--depth", action=_Once, type=int, default=1)
    p.add_argument("--max-strands", action=_Once, type=int, default=4)
    p.add_argument("--max-len", action=_Once, type=int, default=12)
    p.set_defaults(fn=cmd_markov)

    p = sub.add_parser("defect", help="additive and multiplicative defects of a word")
    common(p, out_default="json")
    p.set_defaults(fn=cmd_defect)

    p = sub.add_parser("solve-ext", help="extension solution space at a rational point")
    p.add_argument("--n", action=_Once, type=int, required=True)
    p.add_argument("--point", action=_Once, required=True, metavar="q=r,t=s")
    p.add_argument("--out", action=_Once, choices=("text", "json"), default="json")
    p.set_defaults(fn=cmd_solve_ext)

    p = sub.add_parser("det-tau", help="symbolic determinant of the singular image")
    p.add_argument("--n", action=_Once, type=int, required=True)
    p.add_argument("--out", action=_Once, choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_det_tau)

    p = sub.add_parser("nf", help="Garside left-greedy normal form")
    common(p)
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("tl", help="Temperley-Lieb image of a word (or --verify)")
    p.add_argument("--param", action="append", metavar="k=v")
    p.add_argument("--verify", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_tl)

    p = sub.add_parser("birman", help="group-algebra image of a singular word")
    p.add_argument("--param", action="append", metavar="k=v")
    common(p)
    p.set_defaults(fn=cmd_birman)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

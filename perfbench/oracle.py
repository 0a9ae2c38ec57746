"""Independent checks for braidrep CLI outputs.

Nothing here imports braidrep.  Outputs are parsed with this module's own
polynomial reader and compared against generator images built here from the
defining formulas, evaluated at random points modulo a 61-bit prime (or over
Q where the command itself works over Q).  A wrong polynomial agrees with the
right one at a random point with probability at most deg/P, about 1e-16.

Every check returns None when the output is right and a short reason string
when it is not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

P = (1 << 61) - 1

# -- polynomial text -------------------------------------------------------------

_FACTOR = r"(?:\d+|[A-Za-z]\w*(?:\^-?\d+)?)"
_TERM = re.compile(r"\s*([+-]?)\s*(" + _FACTOR + r"(?:\s*\*\s*" + _FACTOR + r")*)\s*")


def parse_poly(text: str) -> list[tuple[int, tuple[tuple[str, int], ...]]]:
    """Read "3*q^2*t^-1 - w + 1" into [(coeff, ((var, exp), ...)), ...]."""
    terms = []
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or (terms and not m.group(1)):
            raise ValueError(f"cannot read polynomial at {pos}: {text[pos:pos + 20]!r}")
        coeff = -1 if m.group(1) == "-" else 1
        powers = []
        for factor in m.group(2).split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, exp = factor.partition("^")
                powers.append((name, int(exp) if exp else 1))
        terms.append((coeff, tuple(powers)))
        pos = m.end()
    return terms


def eval_poly(terms, point: dict[str, int]) -> int:
    total = 0
    for coeff, powers in terms:
        value = coeff % P
        for name, exp in powers:
            value = value * pow(point[name], exp, P) % P
        total += value
    return total % P


def eval_text(text: str, point: dict[str, int]) -> int:
    """Evaluate a polynomial or a "(num)/(den)" fraction modulo P."""
    text = text.strip()
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(", 1)
        d = eval_poly(parse_poly(den), point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the check point")
        return eval_poly(parse_poly(num), point) * pow(d, -1, P) % P
    return eval_poly(parse_poly(text), point)


# -- linear algebra modulo P (over Q when mod is None) ------------------------

def identity(m: int, one=1):
    zero = one - one
    return [[one if i == j else zero for j in range(m)] for i in range(m)]


def mat_mul(a, b, mod=P):
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    if mod:
        out = [[x % mod for x in row] for row in out]
    return out


def mat_inv_mod(a):
    m = len(a)
    work = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    for col in range(m):
        piv = next(r for r in range(col, m) if work[r][col] % P)
        work[col], work[piv] = work[piv], work[col]
        inv = pow(work[col][col], -1, P)
        work[col] = [x * inv % P for x in work[col]]
        for r in range(m):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % P for x, y in zip(work[r], work[col])]
    return [row[m:] for row in work]


def det_mod(a) -> int:
    work = [[x % P for x in row] for row in a]
    m = len(work)
    det = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if work[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det = det * work[col][col] % P
        inv = pow(work[col][col], -1, P)
        for r in range(col + 1, m):
            if work[r][col]:
                f = work[r][col] * inv % P
                work[r] = [(x - f * y) % P for x, y in zip(work[r], work[col])]
    return det % P


# -- generator images from the defining formulas ---------------------------------

def pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def lkb_sigma(n: int, i: int, q, t):
    """Krammer's matrix of sigma_i on the basis v_kl, k < l (row r = image of v_r)."""
    basis = pairs(n)
    col = {p: c for c, p in enumerate(basis)}
    one = q ** 0
    m = [[one - one for _ in basis] for _ in basis]
    for r, (k, l) in enumerate(basis):
        row = m[r]
        if (k, l) == (i, i + 1):
            row[col[i, i + 1]] += t * q * q
        elif k == i:  # l > i + 1
            row[col[i, i + 1]] += t * q * (q - 1)
            row[col[i, l]] += 1 - q
            row[col[i + 1, l]] += q
        elif k == i + 1:
            row[col[i, l]] += one
        elif l == i:  # k < i
            row[col[k, i]] += 1 - q
            row[col[k, i + 1]] += q
            row[col[i, i + 1]] += q * (q - 1)
        elif l == i + 1:  # k < i
            row[col[k, i]] += one
        else:
            row[r] += one
    return m


def burau_sigma(n: int, i: int, t):
    m = identity(n, t ** 0)
    zero = t - t
    m[i - 1][i - 1], m[i - 1][i] = 1 - t, t
    m[i][i - 1], m[i][i] = t ** 0, zero
    return m


def wedge(a):
    """2x2 minors of a on the pair basis: the exterior square."""
    n = len(a)
    ps = [(x, y) for x in range(n) for y in range(x + 1, n)]
    return [[(a[r][c] * a[s][d] - a[r][d] * a[s][c]) % P for (c, d) in ps] for (r, s) in ps]


class Images:
    """Generator images of one representation at one point modulo P."""

    def __init__(self, sigmas):
        self.m = len(sigmas[0])
        self.sig = [[[x % P for x in row] for row in s] for s in sigmas]
        self.inv = [mat_inv_mod(s) for s in self.sig]
        self.tau = None

    def letter(self, i: int, s: int):
        if s > 0:
            return self.sig[i - 1]
        if s < 0:
            return self.inv[i - 1]
        return self.tau[i - 1]

    def word(self, letters):
        out = identity(self.m)
        for i, s in letters:
            out = mat_mul(out, self.letter(i, s))
        return out

    def probe(self, vec, letters):
        """vec times the image of the word, one sparse generator at a time."""
        vec = list(vec)
        for i, s in letters:
            g = self.letter(i, s)
            out = [0] * self.m
            for k, x in enumerate(vec):
                if x:
                    for c, y in enumerate(g[k]):
                        if y:
                            out[c] += x * y
            vec = [x % P for x in out]
        return vec


def lkb_images(n: int, pt: dict[str, int]) -> Images:
    return Images([lkb_sigma(n, i, pt["q"], pt["t"]) for i in range(1, n)])


def lkb_ext_images(n: int, pt: dict[str, int]) -> Images:
    img = lkb_images(n, pt)
    u, v = pt["u"], pt["v"]
    img.tau = [
        [[(u * x + (v if r == c else 0)) % P for c, x in enumerate(row)] for r, row in enumerate(s)]
        for s in img.sig
    ]
    return img


def parse_word(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for tok in text.split():
        if tok.startswith("t"):
            out.append((int(tok[1:]), 0))
        else:
            k = int(tok)
            out.append((abs(k), 1 if k > 0 else -1))
    return tuple(out)


def relation_count(n: int, monoid: str) -> int:
    """Size of the presentation: sigma_i sigma_i^-1 = e both ways, braid and
    far-commutation relations, and for SM_n the tau-tau, mixed, and two
    long relations per adjacent pair."""
    far = (n - 2) * (n - 3) // 2  # unordered pairs i < j - 1 in 1..n-1
    bn = 2 * (n - 1) + (n - 2) + far
    if monoid == "Bn":
        return bn
    return bn + far + 2 * far + (n - 1) + 2 * (n - 2)


def det_tau_closed_form(n: int, pt: dict[str, int]) -> int:
    q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
    return ((q * q * t * u + v) * pow(v - q * u, n - 2, P)
            * pow(u + v, (n - 1) * (n - 2) // 2, P)) % P


# -- permutations of the Garside normal form -----------------------------------------

def starting_set(p) -> set[int]:
    return {i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]}


def finishing_set(p) -> set[int]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return starting_set(inv)


def perm_word(p) -> list[tuple[int, int]]:
    """A positive word for the permutation braid p (p[i] = end of strand i)."""
    p = list(p)
    word = []
    while True:
        d = next((i for i in range(len(p) - 1) if p[i] > p[i + 1]), None)
        if d is None:
            return word
        word.append((d + 1, 1))
        p[d], p[d + 1] = p[d + 1], p[d]


def nf_word(n: int, inf: int, factors) -> list[tuple[int, int]]:
    delta = perm_word(list(range(n - 1, -1, -1)))
    if inf >= 0:
        word = delta * inf
    else:
        word = [(i, -s) for i, s in reversed(delta)] * (-inf)
    for f in factors:
        word += perm_word(f)
    return word


# -- per-command checks ---------------------------------------------------------------

class Checker:
    """Checks one workload's outputs at random points drawn from `rng`."""

    def __init__(self, rng):
        self.rng = rng
        self._lkb: dict[int, Images] = {}
        self._ext: dict[int, Images] = {}
        self.point = {v: rng.randrange(2, P - 1) for v in "qtuvw"}

    def lkb(self, n: int) -> Images:
        if n not in self._lkb:
            self._lkb[n] = lkb_images(n, self.point)
        return self._lkb[n]

    def charpoly_value(self, n: int, letters) -> int:
        m = self.lkb(n).word(letters)
        w = self.point["w"]
        return det_mod([[x - (w if r == c else 0) for c, x in enumerate(row)]
                        for r, row in enumerate(m)])

    def check_charpoly(self, argv, out: str):
        data = json.loads(out)
        n = int(_arg(argv, "--n"))
        if data["n"] != n or data["word"] != _arg(argv, "--word"):
            return "echoed input differs"
        want = self.charpoly_value(n, parse_word(data["word"]))
        if eval_text(data["poly"], self.point) != want:
            return "charpoly differs from det(M - wI)"
        return None

    def check_markov(self, argv, out: str):
        data = json.loads(out)
        n = int(_arg(argv, "--n"))
        bounds = data["bounds"]
        if bounds != {"depth": int(_arg(argv, "--depth")),
                      "max_strands": int(_arg(argv, "--max-strands")),
                      "max_word_length": int(_arg(argv, "--max-len"))}:
            return "bounds echo differs"
        if sorted(data["polys"]) != sorted(data["witnesses"]) or len(set(data["polys"])) != len(data["polys"]):
            return "polys and witnesses disagree"
        values = set()
        for poly, wit in data["witnesses"].items():
            letters = parse_word(wit["word"])
            if not 2 <= wit["n"] <= bounds["max_strands"] or len(letters) > bounds["max_word_length"]:
                return f"witness {wit} outside the bounds"
            if any(not 1 <= i < wit["n"] or s == 0 for i, s in letters):
                return f"witness {wit} is not a classical word"
            value = eval_text(poly, self.point)
            if value != self.charpoly_value(wit["n"], letters):
                return f"polynomial does not match its witness {wit}"
            values.add(value)
        if self.charpoly_value(n, parse_word(_arg(argv, "--word"))) not in values:
            return "seed polynomial missing"
        return None

    def check_nf(self, argv, out: str):
        data = json.loads(out)
        n = int(_arg(argv, "--n"))
        ident, delta = list(range(n)), list(range(n - 1, -1, -1))
        factors = data["factors"]
        perms = [[v - 1 for v in f] for f in factors]
        for p in perms:
            if sorted(p) != ident:
                return "factor is not a permutation"
            if p == ident or p == delta:
                return "trivial or Delta factor"
        for a, b in zip(perms, perms[1:]):
            if not starting_set(b) <= finishing_set(a):
                return "factors not left-weighted"
        text = " | ".join([f"D^{data['inf']}"] + [" ".join(map(str, f)) for f in factors])
        if data["text"] != text:
            return "text form differs from factors"
        img = self.lkb(n)
        vec = [self.rng.randrange(P) for _ in range(img.m)]
        if img.probe(vec, parse_word(_arg(argv, "--word"))) != img.probe(vec, nf_word(n, data["inf"], perms)):
            return "normal form has another LKB image"
        return None

    def nf_pair(self, kind: str, argv_a, out_a: str, argv_b, out_b: str):
        a, b = json.loads(out_a), json.loads(out_b)
        same = (a["inf"], a["factors"]) == (b["inf"], b["factors"])
        if kind == "equal":
            return None if same else "equal braids printed different forms"
        n = int(_arg(argv_a, "--n"))
        img = self.lkb(n)
        vec = [self.rng.randrange(P) for _ in range(img.m)]
        apart = img.probe(vec, parse_word(_arg(argv_a, "--word"))) != img.probe(vec, parse_word(_arg(argv_b, "--word")))
        if apart and same:
            return "different braids printed the same form"
        return None

    def check_verify(self, argv, out: str):
        data = json.loads(out)
        n = int(_arg(argv, "--n"))
        if "--verify" in argv:
            monoid = "SMn"
        else:
            monoid = "Bn" if _arg(argv, "--rep") in ("burau", "lkb", "wedge-burau") else "SMn"
            if data["monoid"] != monoid:
                return "wrong monoid"
        if data["failures"]:
            return f"{len(data['failures'])} relations fail"
        if data["total"] != relation_count(n, monoid):
            return f"checked {data['total']} relations, presentation has {relation_count(n, monoid)}"
        return None

    def check_det_tau(self, argv, out: str):
        data = json.loads(out)
        n = int(_arg(argv, "--n"))
        det = eval_text(data["det"], self.point)
        if det != det_tau_closed_form(n, self.point):
            return "det differs from the closed form"
        if n == 4 and eval_text(data["diff"], self.point) != (det - eval_text(data["reference"], self.point)) % P:
            return "diff is not det - reference"
        return None

    def check_defect(self, argv, out: str):
        data = json.loads(out)
        n = int(_arg(argv, "--n"))
        letters = parse_word(data["word"])
        phi = self.lkb(n).word(letters)
        burau = Images([burau_sigma(n, i, self.point["q"]) for i in range(1, n)])
        psi = wedge(burau.word(letters))
        add = _eval_matrix(data["additive"], self.point)
        mul = _eval_matrix(data["multiplicative"], self.point)
        if [[(x + y) % P for x, y in zip(r1, r2)] for r1, r2 in zip(psi, add)] != phi:
            return "psi + additive != phi"
        if mat_mul(psi, mul) != phi:
            return "psi * multiplicative != phi"
        return None

    def check_rep(self, argv, out: str):
        data = json.loads(out)
        n = int(_arg(argv, "--n"))
        if n not in self._ext:
            self._ext[n] = lkb_ext_images(n, self.point)
        want = self._ext[n].word(parse_word(_arg(argv, "--word")))
        if _eval_matrix(data, self.point) != want:
            return "image differs from the product of generator images"
        return None

    def check_solve_ext(self, argv, out: str):
        data = json.loads(out)
        n = int(_arg(argv, "--n"))
        pt = dict(piece.split("=") for piece in _arg(argv, "--point").split(","))
        q, t = Fraction(pt["q"]), Fraction(pt["t"])
        if data["point"] != {"q": str(q), "t": str(t)}:
            return "point echo differs"
        basis = [[[Fraction(x) for x in row] for row in mat] for mat in data["basis"]]
        if data["dimension"] != len(basis):
            return "dimension differs from the basis size"
        s1 = lkb_sigma(n, 1, q, t)
        for b in basis:
            if mat_mul(b, s1, None) != mat_mul(s1, b, None):
                return "basis matrix does not commute with S_1"
        if not (data["contains_generator_image"] and data["contains_identity"]):
            return "reported span lacks S_1 or I"
        return None


def span_check(n: int, out: str):
    """The solution span must contain I, S_1 and S_1^2: adding any of them
    must not raise the rank over QQ (sympy, imported here so that peak memory
    can be read before it loads)."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def rank(rows):
        return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows],
                            (len(rows), len(rows[0])), QQ).rank()

    data = json.loads(out)
    q, t = Fraction(data["point"]["q"]), Fraction(data["point"]["t"])
    flat = [[Fraction(x) for row in mat for x in row] for mat in data["basis"]]
    s1 = lkb_sigma(n, 1, q, t)
    base = rank(flat)
    for extra in (identity(len(s1), Fraction(1)), s1, mat_mul(s1, s1, None)):
        if rank(flat + [[x for row in extra for x in row]]) != base:
            return "span lacks one of I, S_1, S_1^2"
    return None


def _eval_matrix(data, point):
    rows = data["rows"]
    if data["dim"] != len(rows):
        raise ValueError("dim differs from the row count")
    return [[eval_text(x, point) for x in row] for row in rows]


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]

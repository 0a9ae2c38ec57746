import hashlib
import importlib.util
import io
import json
import random
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from itertools import islice
from pathlib import Path

import pytest

from braidrep.cli import MAX_DIGITS, MAX_MATRIX_STRANDS, main
from conftest import reduced_classical_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_charpoly_text_golden(capsys):
    code, out, _ = run(capsys, "charpoly", "--n", "3", "--word", "1 2")
    assert code == 0
    assert out == "q^6*t^2 - w^3\n"


def test_rep_identity_json(capsys):
    code, out, _ = run(capsys, "rep", "--rep", "lkb", "--n", "3", "--word", "")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "dim": 3,
        "ring": "laurent",
        "rows": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }


def test_rep_burau_text(capsys):
    code, out, _ = run(
        capsys, "rep", "--rep", "burau", "--n", "2", "--word", "1", "--out", "text"
    )
    assert code == 0
    assert out == "[-t + 1, t]\n[1, 0]\n"


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "--rep", "lkb-ext", "--n", "4",
        "--param", "u=sym", "--param", "v=sym",
    )
    assert code == 0
    assert out.strip() == "all 19 relations pass"


def test_verify_birman(capsys):
    code, out, _ = run(capsys, "verify", "--rep", "birman", "--n", "3")
    assert code == 0
    assert "relations pass" in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "charpoly", "--n", "3", "--word", "bogus")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "rep", "--rep", "lkb", "--n", "1", "--word", "")
    assert code == 2
    code, _, err = run(capsys, "solve-ext", "--n", "3", "--point", "q=1,t=2")
    assert code == 2 and "degenerate" in err
    assert main(["rep", "--rep", "nonsense", "--n", "3", "--word", ""]) == 2
    capsys.readouterr()


def test_markov_json(capsys):
    code, out, _ = run(
        capsys, "markov", "--n", "2", "--word", "1",
        "--depth", "1", "--max-strands", "3", "--max-len", "8",
    )
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == {"n": 2, "word": "1"}
    assert "q^6*t^2 - w^3" in data["polys"]
    assert data["witnesses"]["q^2*t - w"] == {"n": 2, "word": "1"}


def test_defect_json(capsys):
    code, out, _ = run(capsys, "defect", "--n", "3", "--word", "1")
    assert code == 0
    data = json.loads(out)
    assert data["additive"]["ring"] == "laurent"
    assert data["multiplicative"]["ring"] == "ratfunc"
    assert data["additive"]["rows"][0][0] == "q^2*t + q"
    assert data["multiplicative"]["rows"][0][0] == "-q*t"


def test_solve_ext_json(capsys):
    code, out, _ = run(capsys, "solve-ext", "--n", "3", "--point", "q=2,t=3")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 3
    assert data["contains_generator_image"] and data["contains_identity"]


def test_det_tau_text(capsys):
    code, out, _ = run(capsys, "det-tau", "--n", "3")
    assert code == 0
    assert "q^2*t*u^2*v" in out
    code, out, _ = run(capsys, "det-tau", "--n", "4")
    assert code == 0
    assert "diff confined to u^6 terms: True" in out


def test_nf_text(capsys):
    code, out, _ = run(capsys, "nf", "--n", "3", "--word", "1 2 1")
    assert code == 0
    assert out == "D^1\n"


def test_tl_image_and_verify(capsys):
    code, out, _ = run(capsys, "tl", "--n", "2", "--word", "t1")
    assert code == 0
    assert "(a)" in out and "(b)" in out
    code, out, _ = run(capsys, "tl", "--n", "3", "--word", "", "--verify")
    assert code == 0
    assert "relations pass" in out


def test_birman_text(capsys):
    code, out, _ = run(
        capsys, "birman", "--n", "2", "--word", "t1",
        "--param", "a=1", "--param", "b=-1", "--param", "c=0",
    )
    assert code == 0
    assert out.strip() == "(-1) * [D^-1] + (1) * [D^1]"


def test_output_determinism(capsys):
    first = run(capsys, "markov", "--n", "2", "--word", "1", "--depth", "1")
    second = run(capsys, "markov", "--n", "2", "--word", "1", "--depth", "1")
    assert first == second
    third = run(capsys, "det-tau", "--n", "4", "--out", "json")
    fourth = run(capsys, "det-tau", "--n", "4", "--out", "json")
    assert third == fourth


def test_output_determinism_across_processes():
    # Byte-identical output under fresh interpreters (hash randomization on).
    # The child finds the package where this process imported it from.
    import os
    import subprocess
    import sys

    import braidrep

    src = os.path.dirname(os.path.dirname(os.path.abspath(braidrep.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    argv = [
        sys.executable, "-m", "braidrep.cli",
        "markov", "--n", "2", "--word", "1", "--depth", "2", "--max-strands", "3",
    ]
    runs = {
        subprocess.run(argv, capture_output=True, check=True, env=env).stdout
        for _ in range(2)
    }
    assert len(runs) == 1


# Every value printed alongside the constructions is reachable through the
# CLI; these invocations record the paths.
GOLDEN_INVOCATIONS = [
    (("rep", "--rep", "lkb", "--n", "3", "--word", "1"), "q^2*t"),
    (("rep", "--rep", "lkb", "--n", "4", "--word", "2"), "q^2*t - q*t"),
    (("rep", "--rep", "lkb-ext", "--n", "3", "--word", "t1"), "q^2*t*u + v"),
    (("rep", "--rep", "lkb-ext", "--n", "4", "--word", "t3"), "u + v"),
    (("rep", "--rep", "burau-ext", "--n", "2", "--word", "t1"), "t*a"),
    (("rep", "--rep", "wedge-burau", "--n", "3", "--word", "1"), "-q"),
    (("rep", "--rep", "wedge-burau", "--n", "4", "--word", "3"), "-q + 1"),
    (("charpoly", "--n", "3", "--word", "1 2"), "q^6*t^2 - w^3"),
    (("charpoly", "--n", "3", "--word", "1 1 2"), "-q^9*t^3"),
    (("charpoly", "--n", "3", "--word", "1 1 1 2"), "q^12*t^4 - w^3"),
    (("charpoly", "--n", "4", "--word", "1 2 3"), "q^12*t^3"),
    (("defect", "--n", "3", "--word", "2"), "q^2*t + q"),
    (("det-tau", "--n", "3"), "q^2*t*u^2*v"),
    (("det-tau", "--n", "4"), "q^4*t*u^6"),
    (("birman", "--n", "2", "--word", "t1"), "(a)"),
    (("tl", "--n", "2", "--word", "1"), "t^-1"),
]


@pytest.mark.parametrize("argv,needle", GOLDEN_INVOCATIONS)
def test_golden_values_reachable_through_cli(capsys, argv, needle):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert needle in out


def test_tl_rational_param_is_a_usage_error(capsys):
    # Rejected whether or not the word has a singular letter that uses it.
    for word in ("t1", "1"):
        for param in ("a=1/2", "b=-3/4"):
            code, out, err = run(capsys, "tl", "--n", "3", "--word", word, "--param", param)
            assert code == 2 and out == "", (word, param)
            assert err.startswith("error:") and err.count("\n") == 1
    code, _, err = run(capsys, "tl", "--n", "4", "--verify", "--param", "a=1/2")
    assert code == 2 and err.startswith("error:")


def test_tl_integer_param_on_a_crossing_word_is_accepted(capsys):
    image = "(t^-1) * [(1,2) (3,3') (1',2')] + (t) * [(1,1') (2,2') (3,3')]\n"
    for extra in ((), ("--param", "a=2"), ("--param", "a=2", "--param", "b=-3")):
        code, out, err = run(capsys, "tl", "--n", "3", "--word", "1", "--out", "text", *extra)
        assert (code, out, err) == (0, image, "")


def test_markov_negative_bounds_rejected(capsys):
    code, out, err = run(capsys, "markov", "--n", "2", "--word", "1", "--depth", "-1")
    assert code == 2 and out == "" and "depth" in err
    code, out, err = run(capsys, "markov", "--n", "2", "--word", "1", "--max-len", "-1")
    assert code == 2 and out == "" and "max_word_length" in err


@pytest.mark.parametrize("max_strands", ["-1", "1", "2"])
def test_markov_max_strands_below_seed_rejected(capsys, max_strands):
    code, out, err = run(capsys, "markov", "--n", "3", "--word", "1", "--max-strands", max_strands)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "max_strands" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--rep", "lkb", "--n", "3", "--param", "zz=sym"),
    ("verify", "--rep", "burau", "--n", "3", "--param", "a=1/2"),
    ("verify", "--rep", "lkb-ext", "--n", "3", "--param", "a=1"),
    ("rep", "--rep", "burau-ext", "--n", "2", "--word", "t1", "--param", "u=2"),
    ("tl", "--n", "2", "--word", "t1", "--param", "c=1"),
    ("birman", "--n", "2", "--word", "t1", "--param", "u=1"),
    ("verify", "--rep", "burau-ext", "--n", "3", "--param", "a=1/2", "--param", "a=sym"),
])
def test_unknown_or_repeated_param_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "parameter" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv,option", [
    (("nf", "--n", "3", "--word", "1", "--word", "2"), "--word"),
    (("nf", "--n", "3", "--n", "4", "--word", "1"), "--n"),
    (("charpoly", "--n", "3", "--word", "1", "--out", "json", "--out", "text"), "--out"),
    (("rep", "--rep", "burau", "--rep", "lkb", "--n", "3", "--word", "1"), "--rep"),
    (("verify", "--rep", "lkb", "--n", "3", "--n", "3"), "--n"),
    (("markov", "--n", "3", "--word", "1", "--depth", "1", "--depth", "2"), "--depth"),
    (("markov", "--n", "3", "--word", "1", "--max-strands", "3", "--max-strands", "4"),
     "--max-strands"),
    (("markov", "--n", "3", "--word", "1", "--max-len", "5", "--max-len", "6"), "--max-len"),
    (("defect", "--n", "3", "--word", "1", "--word", "1"), "--word"),
    (("solve-ext", "--n", "3", "--point", "q=2,t=3", "--point", "q=5,t=7"), "--point"),
    (("det-tau", "--n", "3", "--out", "text", "--out", "text"), "--out"),
    (("tl", "--n", "3", "--word", "t1", "--word", "t2"), "--word"),
    (("birman", "--n", "3", "--n", "2", "--word", "t1"), "--n"),
])
def test_repeated_option_rejected(capsys, argv, option):
    # A value option given twice is refused rather than silently overridden.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: argument {option}: given more than once" in err


@pytest.mark.parametrize("point,message", [
    ("q=2", "no value for t"),
    ("t=3", "no value for q"),
    ("q=2,t=3,x=5", "unknown coordinate x"),
    ("q=2,t=3,q=5", "'q' given twice"),
])
def test_solve_ext_point_names(capsys, point, message):
    code, out, err = run(capsys, "solve-ext", "--n", "3", "--point", point)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("value", ["1/0", "x", "sym", ""])
def test_solve_ext_bad_point_value(capsys, value):
    code, out, err = run(capsys, "solve-ext", "--n", "3", "--point", f"q={value},t=2")
    assert (code, out, err) == (2, "", f"error: bad --point value {value!r}\n")


@pytest.mark.parametrize("argv,value", [
    (("verify", "--rep", "lkb-ext", "--n", "3", "--param"), "u=1e-3000000"),
    (("rep", "--rep", "lkb-ext", "--n", "3", "--word", "t1", "--param"), "u=1e5000"),
    (("rep", "--rep", "burau-ext", "--n", "3", "--word", "t1", "--param"), "a=1e4300"),
    (("rep", "--rep", "burau-ext", "--n", "3", "--word", "t1", "--param"), "a=1e-4300"),
    (("solve-ext", "--n", "3", "--point"), "q=2,t=7e-99999999"),
    (("solve-ext", "--n", "3", "--point"), "q=2,t=" + "3" * 4301 + "/7"),
])
def test_rational_input_beyond_the_digit_limit_rejected(capsys, argv, value):
    """A numerator or denominator of over 4300 digits is refused before it is expanded."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, value)
    assert time.perf_counter() - start < 2
    what = "--point" if argv[0] == "solve-ext" else "parameter"
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad {what} value") and err.count("\n") == 1


@pytest.mark.parametrize("value,plain", [("1e4299", "1" + "0" * 4299), ("0e99999999", "0"),
                                         ("-25e-4299", "-1/4" + "0" * 4297)])
def test_rational_input_at_the_digit_limit_accepted(capsys, value, plain):
    argv = ("rep", "--rep", "burau-ext", "--n", "2", "--word", "t1", "--param")
    code, out, _ = run(capsys, *argv, f"a={value}")
    assert code == 0
    assert (code, out) == run(capsys, *argv, f"a={plain}")[:2]


@pytest.mark.parametrize("argv", [
    ("solve-ext", "--n", "3", "--point", "q=1" + "3" * 1000 + "/7,t=-5" + "1" * 1000 + "/3"),
    ("rep", "--rep", "lkb-ext", "--n", "3", "--param", "u=" + "7" * 2000 + "/3",
     "--word", "t1 t1 t1"),
])
def test_result_beyond_the_digit_limit_is_a_usage_error(capsys, argv):
    """Input under the digit limit whose result holds a longer integer exits 2
    with one error line and no stdout; the text report of solve-ext, which
    prints no basis, is unaffected."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: the result holds an integer of more than {MAX_DIGITS} digits, "
                   "too long to print\n")
    if argv[0] == "solve-ext":
        assert run(capsys, *argv, "--out", "text") == (0, "dimension 3\ncontains generator "
                                                          "image: True\ncontains identity: True\n", "")


# SHA-256 prefixes of stdout for the paths of integer-denominator fractions,
# relation checks, integer constraint rows, the exterior square of Burau, and
# the normal form and Birman image at large n; every one exits 0.
PINNED_OUTPUTS = [
    (("rep", "--rep", "lkb-ext", "--n", "4", "--word", "t1 -2 t3 1 t2",
      "--param", "u=1/2", "--param", "v=-3/5"), "43b988260d831bcd"),
    (("rep", "--rep", "burau-ext", "--n", "5", "--word", "t1 t2 -3 t4 t1",
      "--param", "a=2/7"), "f4e138f92f0c8a60"),
    (("defect", "--n", "4", "--word", "1 -2 3 -1"), "37eb0465b732061e"),
    (("solve-ext", "--n", "4", "--point", "q=2/3,t=-5/7"), "2ed1784501b360d3"),
    (("solve-ext", "--n", "3", "--point", "q=-7/5,t=8/3"), "4549c2e91f8558c7"),
    (("rep", "--rep", "wedge-burau", "--n", "9", "--word", "1 -2 8 -8 5 -3"),
     "d397006dd4c0deb2"),
    (("rep", "--rep", "wedge-burau", "--n", "6", "--word", "-1 -5 2 -2 4", "--out", "text"),
     "45443d981f7e3bac"),
    (("defect", "--n", "6", "--word", "1 -2 3 -4 5"), "575e9095a4b4f3cc"),
    (("defect", "--n", "9", "--word", "-8 1"), "6fc8eb6856e93e89"),
    (("verify", "--rep", "wedge-burau", "--n", "6", "--out", "json"), "60d966214e0253e0"),
    (("nf", "--n", "1000", "--word", "1 2 -1"), "ace4acc1b29c8a34"),
    (("birman", "--n", "200", "--word", "1 -2 t3"), "35fca96ead60eda0"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS)
def test_pinned_output_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _solve_ext_pin_argv(n):
    """40 seeded points, each in json and text: numerators and denominators of
    1 to 40 digits, negative ones, unreduced ones, and now and then a
    degenerate point (exit 2, no stdout)."""
    rng = random.Random(f"solve-ext-pin/{n}")

    def rational():
        top = 10 ** rng.choice((1, 1, 2, 3, 6, 12, 40))
        return f"{rng.randint(-top, top)}/{rng.randint(1, top)}"

    for _ in range(40):
        point = f"q={rational()},t={rational()}"
        for out in ("json", "text"):
            yield ("solve-ext", "--n", str(n), "--point", point, "--out", out)


# First 16 hex digits of one SHA-256 over repr((argv, stdout, exit code)) of
# every call of _solve_ext_pin_argv(n), computed before the solver ran on
# integer rows throughout.
SOLVE_EXT_DIGESTS = {3: "b3603a74b3bd910d", 4: "16e9ce489d36d839"}


@pytest.mark.parametrize("n", sorted(SOLVE_EXT_DIGESTS))
def test_solve_ext_output_is_pinned(capsys, n):
    total, codes = hashlib.sha256(), set()
    for argv in _solve_ext_pin_argv(n):
        code, out, _ = run(capsys, *argv)
        total.update(repr((argv, out, code)).encode())
        codes.add(code)
    assert codes == {0, 2}
    assert total.hexdigest()[:16] == SOLVE_EXT_DIGESTS[n]


# The first 12 rounds of seed 1 of each benchmark workload, run through main:
# (first 16 hex digits of one SHA-256 over repr((argv, stdout, exit code)) of
# every operation, the operation count, and the first 16 hex digits of the
# SHA-256 of repr() of the list of argv tuples).  The argv come from
# perfbench/workloads.py itself, read only: a committed copy would be 125 kB,
# and the argv digest tells a changed workload stream apart from changed
# output.  workload_op_digests.json holds the first 8 hex digits of each
# operation's own SHA-256, which name the first operation that differs.
# All of them were computed before generator images became sparse.
WORKLOAD_DIGESTS = {
    "markov": ("a7e4937fbf684878", 96, "63e9353d4fa4b309"),
    "word-problem": ("3bef85cc4aaa2227", 384, "c1641fcfcb742f0d"),
    "singular": ("30a2f7e90fbaac2b", 252, "1ead09ada9217fc5"),
}
TESTS = Path(__file__).resolve().parent


@cache
def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", TESTS.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_benchmark_workload_output_is_pinned(name):
    workloads = _benchmark_workloads()
    ops = [op.argv for rnd in islice(workloads.rounds(workloads.WORKLOADS[name], 1), 12)
           for op in rnd.ops]
    digest, count, argv_digest = WORKLOAD_DIGESTS[name]
    assert (len(ops), hashlib.sha256(repr(ops).encode()).hexdigest()[:16]) == \
        (count, argv_digest), "perfbench/workloads.py draws other operations now"
    expected = " ".join(json.loads((TESTS / "workload_op_digests.json").read_text())[name]).split()
    total, first_diff = hashlib.sha256(), None
    for argv, want in zip(ops, expected):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(argv))
        record = repr((argv, out.getvalue(), code)).encode()
        total.update(record)
        if first_diff is None and hashlib.sha256(record).hexdigest()[:8] != want:
            first_diff = shlex.join(argv)
    assert total.hexdigest()[:16] == digest, f"first differing operation: braidrep {first_diff}"


def test_charpoly_at_nine_strands_pinned_and_fast(capsys):
    """The invariant of a 16-letter word at n = 9 (a 36 x 36 LKB image), from
    half its coefficients: on a 2-core x86-64 host the Berkowitz run stopped
    at c_18 takes 3.2-5.4 s in-process and the full run about 45 s, with the
    same bytes."""
    argv = ("charpoly", "--n", "9", "--word", "1 2 3 4 5 6 7 8 -1 -3 2 5 7 -6 4 4")
    run(capsys, "rep", "--rep", "lkb", "--n", "9", "--word", "")  # build lkb(9) untimed
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "80e64301bce511e4"


@pytest.mark.parametrize("rep,params,rows", [
    ("lkb-ext", ("u=0", "v=0"), [["0"] * 3] * 3),
    ("burau-ext", ("a=1",), [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
])
def test_zero_coefficients_keep_the_laurent_ring(capsys, rep, params, rows):
    argv = ["rep", "--rep", rep, "--n", "3", "--word", "t1"]
    for p in params:
        argv += ["--param", p]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"dim": 3, "ring": "laurent", "rows": rows}


def test_charpoly_of_a_long_word_keeps_its_exponents(capsys):
    code, out, err = run(capsys, "charpoly", "--n", "2", "--word", " ".join(["1"] * 9000))
    assert code == 0 and err == ""
    assert out == "q^18000*t^9000 - w\n"


@pytest.mark.parametrize("argv", [
    ("charpoly", "--word", "1"),
    ("markov", "--word", "1"),
    ("rep", "--rep", "lkb", "--word", "1"),
    ("verify", "--rep", "burau"),
    ("defect", "--word", "1"),
    ("det-tau",),
])
def test_strand_count_bounded_for_matrix_commands(capsys, argv):
    too_many = str(MAX_MATRIX_STRANDS + 1)
    code, out, err = run(capsys, *argv, "--n", too_many)
    assert code == 2 and out == ""
    assert err.startswith("error:") and too_many in err and err.count("\n") == 1


def test_strand_count_bound_is_inclusive(capsys):
    n = str(MAX_MATRIX_STRANDS)
    code, out, _ = run(capsys, "rep", "--rep", "burau", "--n", n, "--word", "1")
    assert code == 0 and json.loads(out)["dim"] == MAX_MATRIX_STRANDS
    code, out, _ = run(capsys, "charpoly", "--n", n, "--word", "")
    assert code == 0 and out.startswith(f"w^{MAX_MATRIX_STRANDS * (MAX_MATRIX_STRANDS - 1) // 2} ")


def test_markov_max_strands_bounded(capsys):
    code, out, err = run(capsys, "markov", "--n", "2", "--word", "1",
                         "--max-strands", str(MAX_MATRIX_STRANDS + 1))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--max-strands" in err and err.count("\n") == 1


def test_nf_strand_count_unbounded(capsys):
    code, out, _ = run(capsys, "nf", "--n", "100000", "--word", "1 99999")
    assert code == 0 and out


def test_nf_of_a_long_word_pinned_and_fast(capsys):
    """A 5000-letter word at n = 8 recurs to the same factor pairs often; its
    normal form took about 3.3 s on a 2-core x86-64 host while every pair was
    left-weighted anew, about 0.33 s with a recurring pair's result kept, and
    about 0.25 s with each pair left-weighted in one forward scan (best of 7)."""
    word = reduced_classical_word(random.Random(5000), 8, 5000)
    start = time.perf_counter()
    code, out, _ = run(capsys, "nf", "--n", "8", "--out", "json", "--word", word.text())
    assert time.perf_counter() - start < 2
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "72274abe92be8704"


@pytest.mark.parametrize("word", ["zz", "1", "t1 2"])
def test_tl_verify_rejects_a_word(capsys, word):
    code, out, err = run(capsys, "tl", "--n", "3", "--verify", "--word", word)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--word" in err and err.count("\n") == 1


def test_tl_and_birman_images_share_one_json_layout(capsys):
    for argv in (("tl", "--n", "3", "--word", "1 t2"), ("birman", "--n", "3", "--word", "1 t2")):
        code, out, _ = run(capsys, *argv, "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert sorted(data) == ["n", "terms", "word"] and data["word"] == "1 t2"

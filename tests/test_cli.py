import json

import pytest

from braidrep.cli import main


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
    import subprocess
    import sys

    argv = [
        sys.executable, "-m", "braidrep.cli",
        "markov", "--n", "2", "--word", "1", "--depth", "2", "--max-strands", "3",
    ]
    runs = {
        subprocess.run(argv, capture_output=True, check=True).stdout
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
    code, out, err = run(capsys, "tl", "--n", "3", "--word", "t1", "--param", "a=1/2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    code, _, err = run(capsys, "tl", "--n", "4", "--verify", "--param", "a=1/2")
    assert code == 2 and err.startswith("error:")


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

"""CLI tests: command behavior, exit codes, format round trips."""

import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

import sigma_binomial
from sigma_binomial.cli import run
from sigma_binomial.constants import SigmaConfig
from sigma_binomial.textio import (
    binomial_components_to_str,
    ghnf_to_str,
    laurent_components_to_str,
    matrix_to_str,
    parse_binomial_components,
    parse_laurent_components,
    parse_matrix,
)

MAT_71 = "-x+2, 3*x+2, 0\n1, 1, 2*x\n1, 2*x+1, x^2\n"
MAT_75 = "x^2+2*x-2, 0\nx+2, 4\n1, 2*x\n"
SYS_716 = "y1^(x^2-2) - 1\ny2^(x^2-2) - 1\ny1*y2^(-x)*y3^(2) - 1\n"
SYS_718 = "y1^(x^2) - y1^(2)\ny2^(x^2) - y2^(2)\ny1*y3^(2) - y2^(x)\n"


def call(args, inp=""):
    old = sys.stdin
    sys.stdin = io.StringIO(inp)
    buf = io.StringIO()
    old_out = sys.stdout
    sys.stdout = buf
    try:
        code = run(args)
    finally:
        sys.stdin = old
        sys.stdout = old_out
    return code, buf.getvalue()


def test_ghnf_empty():
    code, out = call(["ghnf"], "")
    assert code == 0
    assert "rank=0" in out


def test_ghnf_and_roundtrip():
    code, out = call(["ghnf"], MAT_71)
    assert code == 0
    cols = parse_matrix(out)
    again = call(["ghnf"], matrix_to_str(cols))[1]
    assert parse_matrix(again) == cols


def test_satx_exit_and_value():
    code, out = call(["satx"], MAT_71)
    assert code == 0
    from sigma_binomial.zx_lattice import ghnf, lattice_equal

    got = parse_matrix(out)
    expected = parse_matrix("-x+2, 3*x+2, 0\n1, -3, 4\n0, 2, x-2\n")
    assert lattice_equal(ghnf(got, 3), ghnf(expected, 3))


def test_satz_multipliers():
    code, out = call(["satz", "--json"], MAT_75)
    assert code == 0
    payload = json.loads(out)
    assert payload["multipliers"] == [1, 1, 1, 2]


def test_is_saturated():
    code, out = call(["is-saturated", "--kind", "p"], "x-1, 0\n-2, 2\n0, x-1\n")
    assert (code, out.strip()) == (0, "true")
    code, out = call(["is-saturated", "--kind", "x"], MAT_71)
    assert (code, out.strip()) == (0, "false")


def test_kernel():
    code, out = call(["kernel"], "1, 0\n1, 0\n")
    assert code == 0
    gens = parse_matrix(out)
    assert gens and all(g.n == 2 for g in gens)


def test_kernel_nvars(capsys):
    # one column of Z^2: a different --nvars is a usage error
    code, out = call(["kernel", "--nvars", "1"], "1, 2\n")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    code, out = call(["kernel", "--nvars", "2"], "1, 0\n1, 0\n")
    assert (code, out) == call(["kernel"], "1, 0\n1, 0\n") and code == 0


def test_charset_and_unit_exit():
    code, out = call(["charset"], "y1^(2) - 1\ny1^(4) - 1\n")
    assert code == 0 and out.strip() == "y1^(2) - 1"
    code, out = call(["charset"], "y1 - 1\ny1 - 2\n")
    assert code == 1 and out.strip() == "unit"


def test_closures():
    code, out = call(["wellmixed-closure"], "y1^(3) - 1\n")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 2
    code, out = call(["wellmixed-closure"],
                     "y1^(2) + 1\ny1^(x) - y1\ny2^(2) + 1\ny2^(x) + y2\n")
    assert code == 1 and out.strip() == "unit"
    code, out = call(["perfect-closure", "--sigma", "conj"], "y1^(3) - 1\n")
    assert code == 0


def test_predicates_and_member():
    code, out = call(["is-prime"], SYS_716)
    assert (code, out.strip()) == (0, "false")  # 2*(half support) forces branching
    code, out = call(["is-reflexive"], SYS_716)
    assert (code, out.strip()) == (0, "true")
    code, out = call(
        ["member", "--query", "y1^(2)*y2^(-2*x)*y3^(2*x^2) - 1"], SYS_716
    )
    assert (code, out.strip()) == (0, "true")
    code, out = call(["is-wellmixed"],
                     "y1^(2) + 1\ny1^(x) - y1\ny2^(2) + 1\ny2^(x) + y2\n")
    assert (code, out.strip()) == (0, "false")


def test_dec_laurent_roundtrip():
    code, out = call(["dec-laurent"], SYS_716)
    assert code == 0
    comps = parse_laurent_components(out, SigmaConfig.IDENTITY, 3)
    assert len(comps) == 2
    printed = laurent_components_to_str(comps)
    assert parse_laurent_components(printed, SigmaConfig.IDENTITY, 3) == comps
    code, out = call(["dec-laurent"], "y1 - 1\ny1 - 2\n")
    assert code == 1 and out.strip() == "unit"


def test_dec_binomial_roundtrip():
    code, out = call(["dec-binomial"], SYS_718)
    assert code == 0
    comps = parse_binomial_components(out, 3)
    assert len(comps) == 4
    printed = binomial_components_to_str(comps)
    assert parse_binomial_components(printed, 3) == comps


def test_dimension():
    chain = SYS_716 + "y1*y2^(-x)*y3^(x^2) - 1\n"
    code, out = call(["dimension"], chain)
    assert (code, out.strip()) == (0, "0")


def test_parse_error_exit_2():
    code, _ = call(["ghnf"], "garbage&&\n")
    assert code == 2
    code, _ = call(["dimension"], "y1^(2) - 4\n")
    assert code == 2  # proper but not reflexive prime
    code, _ = call(["charset"], "y1^() - 1\n")
    assert code == 2  # an empty exponent is not an omitted one
    for line in ("y1^(x - 1", "y1) - 1", "y0 - 1", "y1 - - 1", "y1 -", "y1 + y2 + 1",
                 "y1 - 1^(1/2)", "y1 - zeta(0)", "y1^(1--2) - 1"):
        assert call(["charset"], line + "\n") == (2, ""), line
    for line in ("y1 - y1", "y1 + y2 + 1", "2"):
        assert call(["dec-binomial"], line + "\n") == (2, ""), line


def test_leading_sign():
    assert call(["charset"], "-y1 + 2\n") == (0, "y1 - 2\n")


def test_kernel_json():
    code, out = call(["kernel", "--json"], "2\n3\n")
    assert code == 0 and json.loads(out) == {"generators": [["-3", "2"]]}


def test_determinism():
    a = call(["dec-binomial"], SYS_718)
    b = call(["dec-binomial"], SYS_718)
    assert a == b
    c = call(["ghnf", "--json"], MAT_71)
    d = call(["ghnf", "--json"], MAT_71)
    assert c == d


@pytest.mark.parametrize("exc", [RuntimeError("completion did not stabilize"),
                                 AssertionError("multiplier certificate violated"),
                                 MemoryError()])
def test_internal_failure_exit_3(monkeypatch, capsys, exc):
    import sigma_binomial.zx_lattice as zx

    def fail(*args, **kwargs):
        raise exc

    # dec-laurent on Example 7.16 reaches no completion, but every step reduces
    monkeypatch.setattr(zx, "_reduce", fail)
    code, out = call(["dec-laurent"], SYS_716)
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: internal failure: ") and len(err.splitlines()) == 1
    assert err[len("error: internal failure: "):].strip(), err


def test_exhausted_budget_exit_3(monkeypatch, capsys):
    # this lattice needs a second round of the shift HNF; a budget of one
    # step runs out after the first
    import sigma_binomial.zx_lattice as zx

    monkeypatch.setattr(zx, "_MAX_STEPS", 1)
    code, out = call(["ghnf"], "-2, -2*x^2-3*x+5\n2*x^2+3*x+3, 3\n")
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err == "error: internal failure: completion did not stabilize: degree cap 3, last HNF 8x4\n"


# a product of primes of 59 and 60 bits, and the Mersenne prime 2^61 - 1
LARGE_ORDERS = [576460752303435851 * 1152921504606914869, 2**61 - 1]


@pytest.mark.parametrize("k", LARGE_ORDERS)
def test_dec_laurent_refuses_large_root_order(capsys, k):
    # y1^k - 1 has k components; listing the k-th roots is refused
    start = time.perf_counter()
    code, out = call(["dec-laurent"], "y1^(%d) - 1\n" % k)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("k", LARGE_ORDERS)
def test_wellmixed_closure_large_multiplier(k):
    # the forced binomial needs only the principal k-th root
    start = time.perf_counter()
    code, out = call(["wellmixed-closure"], "y1^(%d) - 1\n" % k)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == "y1^(%d) - 1\ny1^(x+%d) - 1\n" % (k, k - 1)


@pytest.mark.parametrize("sigma", ["id", "conj"])
@pytest.mark.parametrize("mat", [MAT_71, MAT_75], ids=["7.1", "7.5"])
def test_satm_satp_match_library(mat, sigma):
    from sigma_binomial.saturation import sat_m, sat_p

    cols = parse_matrix(mat)
    config = SigmaConfig.IDENTITY if sigma == "id" else SigmaConfig.CONJUGATION
    for cmd, sat in (("satm", sat_m), ("satp", sat_p)):
        code, out = call([cmd, "--sigma", sigma], mat)
        assert (code, out) == (0, ghnf_to_str(sat(cols, config, cols[0].n)) + "\n"), cmd


def test_input_from_file_argument(tmp_path):
    path = tmp_path / "mat.txt"
    path.write_text(MAT_75, encoding="utf-8")
    assert call(["satz", str(path)]) == call(["satz"], MAT_75)
    code, _ = call(["satz", str(tmp_path / "missing.txt")])
    assert code == 2


def test_charset_json():
    code, out = call(["charset", "--json"], "y1^(2) - 1\ny1^(4) - 1\n")
    assert code == 0 and json.loads(out) == {"binomials": ["y1^(2) - 1"]}
    code, out = call(["charset", "--json"], "y1 - 1\ny1 - 2\n")
    assert code == 1 and json.loads(out) == {"unit": True}


@pytest.mark.parametrize("cmd", ["dec-laurent", "dec-binomial"])
def test_decomposition_unit_exit_1(cmd):
    # y1 = 1 and y1 = 2 have no common solution, and y1 = 0 solves neither
    code, out = call([cmd], "y1 - 1\ny1 - 2\n")
    assert (code, out) == (1, "unit\n")
    code, out = call([cmd, "--json"], "y1 - 1\ny1 - 2\n")
    assert code == 1 and json.loads(out) == {"unit": True}


@pytest.mark.parametrize("cmd, inp, comment", [
    ("dimension", "y1 - 1\n", "# y3\n"),
    ("dec-binomial", "y1*y2 - 1\n", "# y4\n"),
])
def test_comment_names_no_variable(cmd, inp, comment):
    # the number of variables comes from the binomials, not from comments
    assert call([cmd], comment + inp) == call([cmd], inp)


@pytest.mark.parametrize("args, inp, var, n", [
    (["charset", "--nvars", "1"], "y1*y2 - 1\n", "y2", 1),
    (["dec-binomial", "--nvars", "2"], "y1*y2^(x) - y3\n", "y3", 2),
    (["member", "--query", "y1*y2 - 1"], "y1 - 1\n", "y2", 1),
], ids=["charset", "dec-binomial", "member"])
def test_variable_past_nvars_exit_2(capsys, args, inp, var, n):
    code, out = call(args, inp)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert var in err and "n = %d" % n in err


@pytest.mark.parametrize("query", ["garbage&&", "y2 - 1"])
def test_member_query_checked_on_a_unit_ideal(capsys, query):
    # the query is parsed before the characteristic set, which is unit here
    assert call(["member", "--query", query], "y1 - 1\ny1 - 2\n") == (2, "")
    assert capsys.readouterr().err.startswith("error:")
    assert call(["member", "--query", "y1 - 1"], "y1 - 1\ny1 - 2\n") == (1, "unit\n")


@pytest.mark.parametrize("cmd, inp", [
    ("dec-laurent", "\n"),
    ("charset", "\n"),
    ("ghnf", "1, x\n"),
], ids=["dec-laurent", "charset", "ghnf"])
def test_negative_nvars_exit_2(capsys, cmd, inp):
    code, out = call([cmd, "--nvars", "-2"], inp)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "--nvars" in err


def test_unfactorable_constant_exit_2(capsys):
    # (2^61 - 1)(2^89 - 1): rho would need about 2^30 steps to split it
    big = (2**61 - 1) * (2**89 - 1)
    start = time.perf_counter()
    code, out = call(["charset"], "y1 - %d\n" % big)
    assert time.perf_counter() - start < 10.0
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(big) in err


# Three valid lines whose characteristic set's constants carry exponents
# far too large to multiply out (3^e would pass 4,300 digits)
HUGE_EXPONENTS = (
    "y1^(2*x^2-x-2)*y2^(3*x^2+2*x+3)*y3^(x) - zeta(3)\n"
    "y1^(x^2+x-1)*y2^(-3*x^3+2*x^2-x-2)*y3^(2*x+1) - 3\n"
    "y1^(-2)*y2^(-x-1)*y3^(2*x^3-2*x^2-2*x+3) - 3\n"
)


@pytest.mark.parametrize("args", [["charset", "--sigma", "conj"], ["dec-laurent"],
                                  ["perfect-closure"]], ids=lambda a: a[0])
def test_huge_constant_exponents_print(args):
    start = time.perf_counter()
    code, out = call(args, HUGE_EXPONENTS)
    assert time.perf_counter() - start < 10.0
    # some constant prints a prime with an integer exponent, as p^(e)
    assert code == 0 and re.search(r"(?<![y\d])\d+\^\(-?\d+\)", out)
    if args[0] == "charset":
        assert call(args, out) == (0, out)


COMMAND_NAMES = [
    "ghnf", "kernel", "satx", "satz", "satm", "satp", "is-saturated", "charset", "member",
    "reflexive-closure", "wellmixed-closure", "perfect-closure", "is-prime", "is-reflexive",
    "is-wellmixed", "is-perfect", "dec-laurent", "dec-binomial", "dimension",
]


def test_help_lists_every_command():
    code, out = call(["-h"])
    assert code == 0
    listed = out[out.index("commands:"):].splitlines()[1:]
    assert [line.split()[0] for line in listed] == COMMAND_NAMES
    assert all(len(line.split()) > 1 for line in listed)
    for name in COMMAND_NAMES:
        assert call([name, "-h"]) == (0, out)


@pytest.mark.parametrize("args", [
    [], ["frobnicate"], ["is-saturated"], ["member"], ["ghnf", "--kind", "x"],
    ["charset", "--query", "y1 - 1"], ["ghnf", "--sigma", "bad"], ["ghnf", "--nvars", "x"],
    ["ghnf", "--nvars", "-2"], ["ghnf", "a.txt", "b.txt"], ["ghnf", "--bogus"],
], ids=lambda a: " ".join(a) or "no-command")
def test_usage_errors_exit_2(args):
    assert call(args, MAT_71) == (2, "")


def test_input_file_after_options_and_options_first(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(SYS_716, encoding="utf-8")
    expected = call(["charset", "--sigma", "conj"], SYS_716)
    assert expected[0] == 0
    assert call(["charset", "--sigma", "conj", str(path)]) == expected
    assert call(["charset", str(path), "--sigma", "conj"]) == expected
    assert call(["--sigma", "conj", "charset", str(path)]) == expected
    assert call(["--json", "ghnf"], MAT_71) == call(["ghnf", "--json"], MAT_71)


def test_broken_pipe_exit_2(capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as broken:
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(SYS_716), broken
        try:
            code = run(["dec-laurent"])
        finally:
            sys.stdin, sys.stdout = saved
    # closing flushed the pending output, to devnull, without raising
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_exit_2():
    src = os.path.dirname(os.path.dirname(sigma_binomial.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "sigma_binomial.cli", "dec-laurent"],
                              input=SYS_716, stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1


def test_module_entry_matches_run():
    """``python -m sigma_binomial.cli`` prints what ``run`` prints and exits with its code."""
    src = os.path.dirname(os.path.dirname(sigma_binomial.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def module(args, inp):
        proc = subprocess.run([sys.executable, "-m", "sigma_binomial.cli", *args], input=inp,
                              capture_output=True, text=True, env=env, timeout=60)
        return proc.returncode, proc.stdout

    expected = call(["dec-laurent"], SYS_716)
    assert expected[0] == 0
    assert module(["dec-laurent"], SYS_716) == expected
    assert module(["dimension"], "y1^(2) - 4\n") == (2, "")

"""CLI tests: command behavior, exit codes, format round trips."""

import io
import json
import sys

import pytest

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


def test_charset_and_unit_exit():
    code, out = call(["charset"], "y1^(2) - 1\ny1^(4) - 1\n")
    assert code == 0 and out.strip() == "y1^(2) - 1"
    code, out = call(["proper"], "y1 - 1\ny1 - 2\n")
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


def test_determinism():
    a = call(["dec-binomial"], SYS_718)
    b = call(["dec-binomial"], SYS_718)
    assert a == b
    c = call(["ghnf", "--json"], MAT_71)
    d = call(["ghnf", "--json"], MAT_71)
    assert c == d


@pytest.mark.parametrize("exc", [RuntimeError("completion did not stabilize"),
                                 AssertionError("multiplier certificate violated")])
def test_internal_failure_exit_3(monkeypatch, capsys, exc):
    import sigma_binomial.zx_lattice as zx

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(zx, "_complete", fail)
    code, out = call(["dec-laurent"], SYS_716)
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_exhausted_budget_exit_3(monkeypatch, capsys):
    # this lattice needs a second round of the shift HNF; a budget of one
    # step runs out after the first
    import sigma_binomial.zx_lattice as zx

    monkeypatch.setattr(zx._complete, "__defaults__", (1,))
    code, out = call(["ghnf"], "-2, -2*x^2-3*x+5\n2*x^2+3*x+3, 3\n")
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err == "error: internal failure: completion did not stabilize: degree cap 3, last HNF 8x4\n"

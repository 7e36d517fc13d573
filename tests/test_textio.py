"""Print-then-parse identity for every text format."""

import random

import pytest

from conftest import V, rand_vec
from sigma_binomial.constants import SigmaConfig, const_from_str
from sigma_binomial.polyzx import IntPoly
from sigma_binomial.zx_lattice import LatVec, ghnf
from sigma_binomial.laurent import LaurentBinomial, dec_laurent
from sigma_binomial.binomial import dec_binomial
from sigma_binomial.textio import (
    binomial_components_to_str,
    ghnf_to_str,
    laurent_binomial_to_str,
    laurent_components_to_str,
    laurent_system_to_str,
    matrix_to_str,
    parse_binomial_components,
    parse_laurent_binomial,
    parse_laurent_components,
    parse_laurent_system,
    parse_matrix,
    parse_plain_binomial,
    parse_plain_system,
    plain_binomial_to_str,
    plain_system_to_str,
)

ID = SigmaConfig.IDENTITY


def test_matrix_roundtrip():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        cols = [rand_vec(rng, n, 3, 9) for _ in range(rng.randint(1, 4))]
        assert parse_matrix(matrix_to_str(cols)) == cols
    assert parse_matrix("# comment\n\n3, x\n") == [V("3", "x")]
    with pytest.raises(ValueError):
        parse_matrix("1, x\n2\n")


def test_ghnf_print_parse():
    basis = ghnf([V("12"), V("6*x+6"), V("3*x^2+3*x"), V("x^3+x^2")], 1)
    printed = ghnf_to_str(basis, multipliers=(1, 1, 2, 2))
    assert parse_matrix(printed) == list(basis.columns)


def test_laurent_binomial_print_parse():
    rng = random.Random(41)
    pool = ["1", "-1", "2", "zeta(3)", "2^(1/2)*zeta(8)^3", "1/2", "-6"]
    for _ in range(80):
        n = rng.randint(1, 3)
        while True:
            v = LatVec(
                IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
                for _ in range(n)
            )
            if v:
                break
        if not v.is_normal():
            v = -v
        b = LaurentBinomial(v, const_from_str(rng.choice(pool)))
        assert parse_laurent_binomial(laurent_binomial_to_str(b), n) == b


def test_laurent_system_and_components_roundtrip():
    text = "y1^(x^2-2) - 1\ny2^(x^2-2) - 1\ny1*y2^(-x)*y3^(2) - 1"
    system, n = parse_laurent_system(text)
    assert laurent_system_to_str(system) == text
    comps = dec_laurent(system, ID, n)
    printed = laurent_components_to_str(comps)
    assert parse_laurent_components(printed, ID, n) == comps
    # a comment names no variable
    assert parse_laurent_system("# y5\n" + text) == (system, n)
    assert parse_laurent_components("# y5\n" + printed, ID) == parse_laurent_components(printed, ID)


def test_plain_binomial_print_parse():
    for s in ["y1*y3^(2) - y2^(x)", "y1^(x^2) - y1^(2)", "y1 - 1", "y1*y2",
              "y1*y3^(x^2) + y2^(x)", "y2^(2) - 4", "y1^(x) - 3*y1"]:
        b = parse_plain_binomial(s, 3)
        assert plain_binomial_to_str(b) == s
    with pytest.raises(ValueError):
        parse_plain_binomial("y1^(-1) - 1", 1)  # negative exponent
    with pytest.raises(ValueError):
        parse_plain_binomial("3", 1)  # bare constant


def test_binomial_components_roundtrip():
    system, n = parse_plain_system(
        "y1^(x^2) - y1^(2)\ny2^(x^2) - y2^(2)\ny1*y3^(2) - y2^(x)"
    )
    assert plain_system_to_str(system).splitlines()[0] == "y1^(x^2) - y1^(2)"
    comps = dec_binomial(system, ID, n)
    printed = binomial_components_to_str(comps)
    assert parse_binomial_components(printed, n) == comps

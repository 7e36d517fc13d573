"""Print-then-parse identity for every text format."""

import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import V, rand_vec
from sigma_binomial.constants import FieldConst, SigmaConfig, const_from_str, const_to_str
from sigma_binomial.polyzx import IntPoly
from sigma_binomial.zx_lattice import LatVec, ghnf
from sigma_binomial.laurent import LaurentBinomial, dec_laurent
from sigma_binomial.binomial import dec_binomial
from sigma_binomial.textio import (
    binomial_components_to_str,
    ghnf_to_str,
    laurent_binomial_to_str,
    laurent_components_to_str,
    matrix_to_str,
    parse_binomial_components,
    parse_laurent_binomial,
    parse_laurent_components,
    parse_laurent_system,
    parse_matrix,
    parse_plain_binomial,
    parse_plain_system,
    plain_binomial_to_str,
    system_to_str,
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


def test_sign_after_caret_stays_in_its_term():
    b = parse_laurent_binomial("y1 - zeta(4)^-1", 1)
    assert b == LaurentBinomial(V("1"), FieldConst.root_of_unity(4, 3))
    assert laurent_binomial_to_str(b) == "y1 - zeta(4)^3"
    assert parse_laurent_binomial("zeta(3)^-2*y1^(x) + 1", 1) == parse_laurent_binomial("zeta(3)*y1^(x) + 1", 1)
    with pytest.raises(ValueError, match=r"malformed constant factor '2\^-1'"):
        parse_laurent_binomial("y1 - 2^-1", 1)


@pytest.mark.parametrize("line, factor, hint", [
    ("y1^2 - 1", "y1^2", ": write y1^(2)"),
    ("y1^-2 - 1", "y1^-2", ": write y1^(-2)"),
    ("y1^x - 1", "y1^x", ": write y1^(x)"),
    ("y12^3 - 1", "y12^3", ": write y12^(3)"),
    ("2*y1^(2)3 - 1", "y1^(2)3", ""),
])
def test_malformed_variable_power_is_named(line, factor, hint):
    with pytest.raises(ValueError) as err:
        parse_laurent_binomial(line, 12)
    assert str(err.value) == "malformed variable power %r%s" % (factor, hint)


@pytest.mark.parametrize("factor", ["1/0", "3/0", "2^(1/0)", "2^(-1/00)"])
def test_zero_denominator_is_named(factor):
    with pytest.raises(ValueError) as err:
        parse_laurent_binomial("y1 - " + factor, 1)
    assert str(err.value) == "zero denominator in constant factor %r" % factor


def test_component_listings_share_the_marker_rule():
    text = "# a comment\ny1 - 1\ncomponent:\ny1 - 1\n"
    message = r"^'y1 - 1' comes before the first 'component:' marker$"
    with pytest.raises(ValueError, match=message):
        parse_laurent_components(text, ID)
    with pytest.raises(ValueError, match=message):
        parse_binomial_components(text, ID, 1)
    # an empty block is the trivial component of either kind
    assert laurent_components_to_str(parse_laurent_components("component:", ID, 2)) == "component:"
    empty = "component:\nzero:\nnonzero:"
    assert binomial_components_to_str(parse_binomial_components(empty, ID, 2)) == empty


def test_binomial_components_name_only_variables_y1_to_yn():
    for names in ("y9", "q0", "x1", "y0", "y1 y3"):
        with pytest.raises(ValueError, match="is none of the variables y1..y2"):
            parse_binomial_components("component:\nzero: %s\nnonzero:" % names, ID, 2)
        with pytest.raises(ValueError, match="is none of the variables y1..y2"):
            parse_binomial_components("component:\nzero:\nnonzero: %s" % names, ID, 2)
    # without n, a listing's n is its largest y-index, so y0 alone is out
    with pytest.raises(ValueError, match="is none of the variables y1..y1"):
        parse_binomial_components("component:\nzero: y0 y1\nnonzero:", ID)
    [comp] = parse_binomial_components("component:\nzero: y2\nnonzero: y1", ID, 2)
    assert (comp.zero_vars, comp.nonzero_vars) == ({1}, {0})


def test_component_readers_reject_a_unit_block():
    with pytest.raises(ValueError, match="presents the unit ideal"):
        parse_laurent_components("component:\ny1 - 1\ny1 - 2\n", ID, 1)
    with pytest.raises(ValueError, match="presents the unit ideal"):
        parse_binomial_components("component:\nzero:\nnonzero:\ny1 - 1\ny1 - 2\n", ID, 1)
    # a monomial is no chain binomial either
    with pytest.raises(ValueError, match="monomial"):
        parse_binomial_components("component:\nzero:\nnonzero:\ny1\n", ID, 1)


_consts = st.builds(
    FieldConst,
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)), max_size=3),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
)
_supports = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.builds(IntPoly, st.lists(st.integers(-4, 4), max_size=3)), min_size=n, max_size=n,
).map(LatVec).filter(bool))


@seed(32)
@settings(max_examples=200, deadline=timedelta(seconds=1))
@given(_consts, _supports)
def test_constant_and_binomial_text_roundtrip(c, v):
    assert const_from_str(const_to_str(c)) == c
    b = LaurentBinomial(v if v.is_normal() else -v, c)
    assert parse_laurent_binomial(str(b), v.n) == b


def test_laurent_system_and_components_roundtrip():
    text = "y1^(x^2-2) - 1\ny2^(x^2-2) - 1\ny1*y2^(-x)*y3^(2) - 1"
    system, n = parse_laurent_system(text)
    assert system_to_str(system) == text
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
    assert system_to_str(system).splitlines()[0] == "y1^(x^2) - y1^(2)"
    comps = dec_binomial(system, ID, n)
    printed = binomial_components_to_str(comps)
    assert parse_binomial_components(printed, ID, n) == comps

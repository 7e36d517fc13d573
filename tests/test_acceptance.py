"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-8 are regressions of worked examples and must each finish in
under five seconds; criterion 9 is the randomized property suite with at
least 200 seeded instances per family; criterion 10 is the constants
suite.  All checks are exact.
"""

import io
import json
import random
import sys
import time

from conftest import V, laurent_systems, rand_poly, rand_vec, saturation_systems
from sigma_binomial.cli import run
from sigma_binomial.constants import (
    FieldConst,
    SigmaConfig,
    const_from_str,
    kth_roots,
    o_m,
    pow_zx,
)
from sigma_binomial.polyzx import IntPoly
from sigma_binomial.zx_lattice import (
    GhnfBasis,
    LatVec,
    contains,
    enumerate_c,
    ghnf,
    gker,
    grem,
    lattice_equal,
    member_oracle,
    s_vector,
    verify_ghnf,
)
from sigma_binomial.saturation import is_saturated, sat_full, sat_m, sat_p, sat_x, sat_z, zfactor
from sigma_binomial.laurent import dec_laurent, is_prime, is_reflexive
from sigma_binomial.textio import parse_matrix

ID, CONJ = SigmaConfig.IDENTITY, SigmaConfig.CONJUGATION

MAT_71 = "-x+2, 3*x+2, 0\n1, 1, 2*x\n1, 2*x+1, x^2\n"
MAT_71_SAT = "-x+2, 3*x+2, 0\n1, -3, 4\n0, 2, x-2\n"
MAT_75 = "x^2+2*x-2, 0\nx+2, 4\n1, 2*x\n"
MAT_75_SAT = "x^2+2*x-2, 0\nx+2, 4\n1, 2*x\n-1, x^2-2\n"
MAT_623 = "x-1, 0\n-2, 2\n0, x-1\n"
SYS_716 = "y1^(x^2-2) - 1\ny2^(x^2-2) - 1\ny1*y2^(-x)*y3^(2) - 1\n"
SYS_718 = "y1^(x^2) - y1^(2)\ny2^(x^2) - y2^(2)\ny1*y3^(2) - y2^(x)\n"
SYS_522 = "y1^(2) + 1\ny1^(x) - y1\ny2^(2) + 1\ny2^(x) + y2\n"


def call(args, inp=""):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, buf = io.StringIO(inp), io.StringIO()
    sys.stdout = buf
    try:
        code = run(args)
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return code, buf.getvalue()


def _finish(number, started):
    elapsed = time.time() - started
    assert elapsed < 5.0, "criterion %d exceeded 5 seconds (%.1fs)" % (number, elapsed)
    print("criterion %d: PASS (%.2fs)" % (number, elapsed))


def test_criterion_1_example_71_satx():
    t0 = time.time()
    code, out = call(["satx"], MAT_71)
    assert code == 0
    got = ghnf(parse_matrix(out), 3)
    expected = ghnf(parse_matrix(MAT_71_SAT), 3)
    assert got.columns == expected.columns  # exact canonical GHNF equality
    code, out = call(["is-saturated", "--kind", "x"], MAT_71_SAT)
    assert (code, out.strip()) == (0, "true")
    _finish(1, t0)


def test_criterion_2_example_75_satz():
    t0 = time.time()
    code, out = call(["satz"], MAT_75)
    assert code == 0
    got = ghnf(parse_matrix(out), 2)
    expected = ghnf(parse_matrix(MAT_75_SAT), 2)
    assert got.columns == expected.columns
    # intermediate witnesses match the printed h-vectors modulo the lattice
    basis = ghnf(parse_matrix(MAT_75), 2)
    wits = zfactor(basis)
    assert wits and all(w.k == 2 for w in wits)
    printed_h1 = V("1-x", "x^3")
    assert any(
        contains(ghnf(list(basis.columns) + [w.h], 2), printed_h1)
        and contains(ghnf(list(basis.columns) + [printed_h1], 2), w.h)
        for w in wits
    )
    round2 = ghnf(list(basis.columns) + [printed_h1], 2)
    wits2 = zfactor(round2)
    assert wits2 and all(w.k == 2 for w in wits2)
    printed_h2 = V("1", "2-x^2")
    assert any(
        contains(ghnf(list(round2.columns) + [w.h], 2), printed_h2)
        and contains(ghnf(list(round2.columns) + [printed_h2], 2), w.h)
        for w in wits2
    )
    _finish(2, t0)


def test_criterion_3_example_310_enumerate_c():
    t0 = time.time()
    printed = GhnfBasis(
        2,
        [V("6", "0"), V("3*x", "0"), V("0", "6"), V("3", "3*x"), V("2*x", "x^3+x")],
    )
    c_minus, c_inf = enumerate_c(printed, 2)
    assert [[str(e) for e in v.entries] for v in c_minus] == [
        ["6", "0"], ["0", "6"], ["3", "3*x"], ["3*x", "3*x^2"],
    ]
    assert [[str(e) for e in v.entries] for v in c_inf] == [
        ["6", "0"], ["3*x", "0"], ["3*x^2", "0"], ["3*x^3", "0"],
        ["0", "6"], ["3", "3*x"], ["3*x", "3*x^2"],
        ["2*x", "x^3+x"], ["2*x^2", "x^4+x^2"], ["2*x^3", "x^5+x^3"],
    ]
    _finish(3, t0)


def test_criterion_4_example_716_dec_laurent():
    t0 = time.time()
    code, out = call(["dec-laurent", "--json"], SYS_716)
    assert code == 0
    components = json.loads(out)["components"]
    assert len(components) == 2
    added = sorted(c[-1] for c in components)
    assert added == ["y1*y2^(-x)*y3^(x^2) + 1", "y1*y2^(-x)*y3^(x^2) - 1"]
    for comp_lines in components:
        text = "\n".join(comp_lines) + "\n"
        for predicate in ("is-prime", "is-reflexive"):
            code, out = call([predicate], text)
            assert (code, out.strip()) == (0, "true")
    _finish(4, t0)


def test_criterion_5_example_718_dec_binomial():
    t0 = time.time()
    code, out = call(["dec-binomial", "--json"], SYS_718)
    assert code == 0
    comps = json.loads(out)["components"]
    assert len(comps) == 4
    summary = sorted(
        (tuple(c["zero"]), tuple(c["nonzero"]), tuple(c["chain"])) for c in comps
    )
    assert ((1, 2), (), ()) in summary
    assert ((2, 3), (1,), ("y1^(x^2) - y1^(2)",)) in summary
    chains = [c["chain"] for c in comps if not c["zero"]]
    assert sorted(ch[-1] for ch in chains) == [
        "y1*y3^(x^2) + y2^(x)",
        "y1*y3^(x^2) - y2^(x)",
    ]
    for ch in chains:
        assert ch[:3] == [
            "y1^(x^2) - y1^(2)",
            "y2^(x^2) - y2^(2)",
            "y1*y3^(2) - y2^(x)",
        ]
    _finish(5, t0)


def test_criterion_6_wellmixed_closure_y3():
    t0 = time.time()
    code, out = call(["wellmixed-closure"], "y1^(3) - 1\n")
    assert code == 0
    from sigma_binomial.textio import parse_laurent_system
    from sigma_binomial.laurent import make_character

    chain, _ = parse_laurent_system(out, 1)
    rho = make_character(chain, ID, 1)
    assert lattice_equal(rho.basis, [V("3"), V("x-1")])
    assert all(d.is_one() for d in rho.constants)
    code, out = call(["wellmixed-closure", "--sigma", "conj"], "y1^(3) - 1\n")
    assert code == 0
    chain, _ = parse_laurent_system(out, 1)
    rho = make_character(chain, CONJ, 1)
    assert lattice_equal(rho.basis, [V("3"), V("x-2")])
    assert all(d.is_one() for d in rho.constants)
    _finish(6, t0)


def test_criterion_7_example_522_units():
    t0 = time.time()
    code, out = call(["wellmixed-closure"], SYS_522)
    assert (code, out.strip()) == (1, "unit")
    code, out = call(["perfect-closure"], SYS_522)
    assert (code, out.strip()) == (1, "unit")
    support = "2, 0\nx-1, 0\n0, 2\n0, x-1\n"
    code, out = call(["is-saturated", "--kind", "m"], support)
    assert (code, out.strip()) == (0, "true")
    _finish(7, t0)


def test_criterion_8_example_623():
    t0 = time.time()
    code, out = call(["is-saturated", "--kind", "p"], MAT_623)
    assert (code, out.strip()) == (0, "true")
    sf = sat_full(parse_matrix(MAT_623), 2)
    assert lattice_equal(sf, [V("x-1", "0"), V("-1", "1")])
    _finish(8, t0)


def test_criterion_9_property_suite():
    t0 = time.time()

    # --- generalized Hermite normal forms -------------------------------
    rng = random.Random(7)
    for trial in range(200):
        n = rng.randint(1, 4)
        gens = [rand_vec(rng, n) for _ in range(rng.randint(1, 4))]
        basis = ghnf(gens, n)
        ok, problems = verify_ghnf(basis)
        assert ok, (trial, problems)
        cols = basis.columns
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                s = s_vector(cols[i], cols[j])
                assert not (s and grem(s, basis)), ("buchberger", trial)
        assert ghnf(cols, n).columns == cols, ("idempotence", trial)
        extra = [
            sum((rand_poly(rng, 2, 3) * g for g in gens), LatVec.zero(n))
            for _ in range(2)
        ]
        assert ghnf(list(gens) + extra, n).columns == cols, ("recombination", trial)
        v = rand_vec(rng, n)
        if v and cols:
            bound = v.max_degree() + max(c.max_degree() for c in cols) + 1
            assert contains(basis, v) == member_oracle(list(cols), v, bound), (
                "oracle", trial,
            )
    print("criterion 9: ghnf family (200 instances) ok")

    # --- saturations -----------------------------------------------------
    for n, gens, sigma in saturation_systems():
        base = ghnf(gens, n)
        sx = sat_x(gens, n)
        sz = sat_z(gens, n)
        sm = sat_m(gens, sigma, n)
        sp = sat_p(gens, sigma, n)
        for g in base.columns:
            assert contains(sx, g) and contains(sz.basis, g)
            assert contains(sm, g) and contains(sp, g)
        assert sat_x(sx.columns, n).columns == sx.columns
        assert sat_z(sz.basis.columns, n).basis.columns == sz.basis.columns
        assert sat_m(sm.columns, sigma, n).columns == sm.columns
        assert sat_p(sp.columns, sigma, n).columns == sp.columns
        if base.columns:
            assert base.rank == sx.rank == sz.basis.rank == sm.rank == sp.rank
        assert (
            sat_x(sat_m(gens, sigma, n)).columns
            == sat_m(sat_x(gens, n), sigma).columns
            == sp.columns
        )
        for g, m in zip(sz.basis.columns, sz.multipliers):
            assert contains(base, m * g)
    print("criterion 9: saturation family (200 instances) ok")

    # --- kernels ---------------------------------------------------------
    rng = random.Random(19)
    for trial in range(200):
        n, s = rng.randint(1, 3), rng.randint(1, 3)
        cols = [rand_vec(rng, n) for _ in range(s)]
        for x in gker(cols):
            image = LatVec.zero(n)
            for c, q in zip(cols, x.entries):
                image = image + c * q
            assert not image, ("gker", trial)
    print("criterion 9: gker family (200 instances) ok")

    # --- Laurent decompositions ------------------------------------------
    for trial, (n, system, sigma) in enumerate(laurent_systems()):
        components = dec_laurent(system, sigma, n)
        for c in components:
            assert is_prime(c), trial
            assert is_reflexive(c), trial
        for c in components[1:]:
            assert lattice_equal(c.basis, components[0].basis), trial
    print("criterion 9: dec_laurent family (200 instances) ok")

    print("criterion 9: PASS (%.1fs)" % (time.time() - t0))


def test_criterion_10_constants_suite():
    t0 = time.time()
    for m in range(1, 13):
        for k in range(1, 6):
            for sigma in (ID, CONJ):
                assert o_m(k * m, sigma) % m == o_m(m, sigma) % m
    rng = random.Random(3)
    pool = [
        const_from_str("2"),
        const_from_str("-1"),
        const_from_str("3^(1/2)"),
        const_from_str("zeta(5)"),
        const_from_str("2*zeta(8)^3"),
        const_from_str("1/3"),
    ]
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        e = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
        f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
        for sigma in (ID, CONJ):
            assert pow_zx(a, e + f, sigma) == pow_zx(a, e, sigma) * pow_zx(a, f, sigma)
            assert pow_zx(a * b, e, sigma) == pow_zx(a, e, sigma) * pow_zx(b, e, sigma)
    for c in pool:
        for k in (1, 2, 3, 4, 5):
            roots = kth_roots(c, k)
            assert len(set(roots)) == k
            for r in roots:
                assert r**k == c
    for m in range(1, 13):
        for sigma in (ID, CONJ):
            for j in range(m):
                z = FieldConst.root_of_unity(m, j)
                assert pow_zx(z, IntPoly((-o_m(m, sigma), 1)), sigma).is_one()
    elapsed = time.time() - t0
    print("criterion 10: PASS (%.1fs)" % elapsed)

"""Tests for Z[x]-lattice vectors, reduction, GHNF, syzygies, kernels."""

import random
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import V, rand_poly, rand_vec, truncated_kernel
from sigma_binomial.polyzx import IntPoly, poly_from_str
from sigma_binomial.zx_lattice import (
    DimensionError,
    GhnfBasis,
    LatVec,
    ZeroVector,
    contains,
    enumerate_c,
    extend,
    ghnf,
    ghnf_track,
    gker,
    grem,
    grem_track,
    lattice_equal,
    member_oracle,
    s_vector,
    verify_ghnf,
    _s_multipliers,
)

P = poly_from_str


def cols_str(basis):
    return [[str(e) for e in c.entries] for c in basis.columns]


def test_leading_term():
    lt = V("x+2", "4").leading_term()
    assert (lt.coeff, lt.deg, lt.row) == (4, 0, 2)
    lt = V("0", "0", "1").leading_term()
    assert (lt.coeff, lt.deg, lt.row) == (1, 0, 3)
    lt = V("3*x^2+x", "0").leading_term()
    assert (lt.coeff, lt.deg, lt.row) == (3, 2, 1)
    with pytest.raises(ZeroVector):
        LatVec.zero(2).leading_term()


def test_grem_examples():
    c = ghnf([V("-x+2", "3*x+2", "0"), V("1", "1", "2*x"), V("1", "2*x+1", "x^2")], 3)
    assert grem(V("0", "2", "x-2"), c)  # not a member
    for col in c.columns:
        assert not grem(col, c)
    basis = ghnf([V("2"), V("x")], 1)
    r, qs = grem_track(V("x^2"), basis)
    assert not r
    rebuilt = LatVec.zero(1)
    for q, col in zip(qs, basis.columns):
        rebuilt = rebuilt + q * col
    assert rebuilt == V("x^2")
    with pytest.raises(DimensionError):
        grem(V("1", "0"), basis)


def test_ghnf_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        ghnf([V("1"), V("1", "x")])
    with pytest.raises(DimensionError):
        ghnf([V("1", "x")], 1)


def test_extend_by_lattice_vectors_returns_the_basis():
    basis = ghnf([V("2", "x"), V("0", "3*x+1"), V("x-1", "0")], 2)
    assert extend(basis, []) is basis
    assert extend(basis, [P("x") * basis.columns[0]]) is basis


def test_extend_rejects_mixed_dimensions():
    for basis in (ghnf([], 2), ghnf([V("2", "x")], 2)):
        with pytest.raises(DimensionError):
            extend(basis, [V("1")])
        with pytest.raises(DimensionError):
            extend(basis, [V("1", "0"), V("1", "0", "0")])


def test_intpoly_times_latvec_scales_each_entry():
    """IntPoly declines a LatVec operand, so LatVec.__rmul__ answers, as
    ``saturation.m_shift(sigma) * g`` needs."""
    v = V("2", "x-1")
    assert P("x+1") * v == V("2*x+2", "x^2-1") == v * P("x+1")
    assert 3 * v == V("6", "3*x-3")


@pytest.mark.parametrize("build, error", [
    (lambda: GhnfBasis(2, [V("1", "0"), LatVec.zero(2)]), ZeroVector),
    (lambda: GhnfBasis(2, [V("1", "0"), V("1")]), DimensionError),
    (lambda: V("1") + V("1", "0"), DimensionError),
    (lambda: s_vector(LatVec.zero(1), V("1")), ZeroVector),
    (lambda: s_vector(V("1"), LatVec.zero(1)), ZeroVector),
], ids=["basis-zero-column", "basis-wrong-dimension", "latvec-mixed-add",
        "s-vector-zero-first", "s-vector-zero-second"])
def test_malformed_input_raises(build, error):
    with pytest.raises(error):
        build()


def test_s_vector_cases():
    # pivot rows differ -> zero
    assert not s_vector(V("x", "0"), V("0", "x"))
    # gcd case: u*(x e1) + v*x*(2 e1) with u+2v = 1
    s = s_vector(V("x"), V("2"))
    assert not s or s.leading_term().deg < 1
    # swapped roles: 6 at x^0 vs 3x
    assert not s_vector(V("6"), V("3*x"))


def test_ghnf_paper_bases_fixed_points():
    b35 = ghnf([V("12"), V("6*x+6"), V("3*x^2+3*x"), V("x^3+x^2")], 1)
    assert cols_str(b35) == [["12"], ["6*x+6"], ["3*x^2+3*x"], ["x^3+x^2"]]
    m1 = ghnf([V("x", "0"), V("2", "2"), V("0", "x")], 2)
    assert cols_str(m1) == [["x", "0"], ["2", "2"], ["0", "x"]]
    b2 = ghnf([V("9*x+3"), V("3*x^2+4*x+1")], 1)
    assert cols_str(b2) == [["9*x+3"], ["3*x^2+4*x+1"]]
    assert lattice_equal(ghnf([V("2*x"), V("3*x")], 1), [V("x")])


def test_verify_ghnf():
    assert verify_ghnf([V("2", "0"), V("x-1", "0"), V("0", "2"), V("0", "x-1")])[0]
    assert verify_ghnf([V("9*x+3"), V("3*x^2+4*x+1")])[0]
    ok, problems = verify_ghnf([V("2"), V("4")])
    assert not ok and problems
    # x^2+x holds x under the pivot x, a coefficient at its leading one
    ok, problems = verify_ghnf([V("x"), V("x^2+x")])
    assert not ok and problems == ["column 1 is not G-reduced against the others"]
    # the C_- illustration matrix is not a GHNF: an S-vector fails
    ok, _ = verify_ghnf(
        [V("6", "0"), V("3*x", "0"), V("0", "6"), V("3", "3*x"), V("2*x", "x^3+x")]
    )
    assert not ok


@pytest.mark.parametrize("cols", [
    [V("-2"), V("x+1")],
    # the raw generators of the benchmark's lattice pool, instance 4
    [V("-3*x^2+2*x+1", "-8", "-6", "-3"), V("0", "-2*x^2-5*x+8", "-6*x-10", "9*x^2+x+7"),
     V("9*x^3+6*x^2-6*x", "0", "2*x^2+2*x+7", "5*x^2-7*x+2")],
], ids=["two-columns", "lattice-4"])
def test_verify_ghnf_reports_a_negative_leading_coefficient(cols):
    """A negative leading coefficient in a block of several columns is
    reported, not raised by the S-vector check's reduction."""
    for basis in (cols, GhnfBasis(cols[0].n, cols)):
        ok, problems = verify_ghnf(basis)
        assert not ok
        assert any("non-positive leading coefficient" in p for p in problems)


@pytest.mark.parametrize("basis, problem", [
    ([LatVec.zero(2)], "zero vector has no leading term"),
    (GhnfBasis(2, [V("0", "1"), V("1", "0")]), "pivot rows not strictly increasing"),
], ids=["zero-vector", "pivot-rows-descending"])
def test_verify_ghnf_reports_malformed_input(basis, problem):
    ok, problems = verify_ghnf(basis)
    assert not ok and problem in problems


def test_rank_contains_lattice_equal():
    m1 = ghnf([V("x", "0"), V("2", "2"), V("0", "x")], 2)
    assert m1.rank == 2
    empty = ghnf([], 2)
    assert empty.rank == 0
    assert contains(empty, LatVec.zero(2)) and not contains(empty, V("1", "0"))
    assert lattice_equal(ghnf([V("3"), V("x-2")], 1), ghnf([V("3"), V("x+1")], 1))


def test_enumerate_c_example_310():
    c = GhnfBasis(
        2, [V("6", "0"), V("3*x", "0"), V("0", "6"), V("3", "3*x"), V("2*x", "x^3+x")]
    )
    c_minus, c_inf = enumerate_c(c, 2)
    assert [[str(e) for e in v.entries] for v in c_minus] == [
        ["6", "0"],
        ["0", "6"],
        ["3", "3*x"],
        ["3*x", "3*x^2"],
    ]
    assert [[str(e) for e in v.entries] for v in c_inf] == [
        ["6", "0"],
        ["3*x", "0"],
        ["3*x^2", "0"],
        ["3*x^3", "0"],
        ["0", "6"],
        ["3", "3*x"],
        ["3*x", "3*x^2"],
        ["2*x", "x^3+x"],
        ["2*x^2", "x^4+x^2"],
        ["2*x^3", "x^5+x^3"],
    ]
    # single-column blocks contribute nothing to C_-
    single = ghnf([V("2")], 1)
    assert enumerate_c(single, 3)[0] == []


def test_c_inf_prefix_z_independent():
    from sigma_binomial.pid_linalg import ker_int

    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 3)
        basis = ghnf([rand_vec(rng, n, 2, 5) for _ in range(rng.randint(1, 3))], n)
        if not basis.columns:
            continue
        _, c_inf = enumerate_c(basis, 2)
        width = max(v.max_degree() for v in c_inf) + 1
        flat = []
        for v in c_inf:
            col = []
            for e in v.entries:
                col.extend(e.coeff(k) for k in range(width))
            flat.append(col)
        assert ker_int(flat) == []


def test_gker_examples():
    e1 = V("1", "0")
    ker = gker([e1, e1])
    assert contains(ghnf(ker, 2), V("1", "-1"))
    ker2 = gker([V("2", "0"), V("x", "0"), V("x", "0")])
    span2 = ghnf(ker2, 3)
    assert contains(span2, V("0", "1", "-1"))
    # the Z[x]-syzygy of (2, x): x*(2 e1) - 2*(x e1) = 0
    assert contains(span2, V("x", "-2", "0"))
    # Z[x]-independent columns -> trivial kernel
    assert gker([V("1", "0"), V("0", "1")]) == []
    # zero column contributes a unit vector
    ker3 = gker([LatVec.zero(1), V("1")])
    assert any([str(e) for e in x.entries] == ["1", "0"] for x in ker3)
    # the output is the kernel's GHNF
    assert gker([V("2", "0"), V("x", "0")]) == [V("-x", "2")]


def _image(x, cols, n):
    return sum((q * c for q, c in zip(x.entries, cols)), LatVec.zero(n))


def test_gker_bounded_completeness():
    rng = random.Random(23)
    for _ in range(25):
        n, s = rng.randint(1, 2), rng.randint(1, 3)
        cols = [rand_vec(rng, n, 2, 3) for _ in range(s)]
        gens = gker(cols)
        span = ghnf(gens, s) if gens else None
        # brute force: integer kernel of the map (coeffs of X) -> M X
        for x in truncated_kernel(cols, 2):
            assert span is not None and contains(span, x)


def _count_completions(monkeypatch) -> list:
    """The list that every later ``_complete`` call appends its inputs to."""
    import sigma_binomial.zx_lattice as zx

    calls, original = [], zx._complete

    def counted(inputs):
        calls.append([it.vec for it in inputs])
        return original(inputs)

    monkeypatch.setattr(zx, "_complete", counted)
    return calls


def test_gker_runs_at_most_one_completion(monkeypatch):
    """The stacked columns (e_l, g_l) of (2, x) certify, and so does their
    one relation.  On the criterion-9 gker family each kernel runs at most
    one completion: the extension's, whose relations gker then returns
    with no certificate after it, or that of relations found by a
    certificate; both counts occur, and each output is its own GHNF."""
    import sigma_binomial.zx_lattice as zx

    log, complete, certified = [], zx._complete, zx._certified

    def logged_complete(inputs):
        out = complete(inputs)
        log.append("completed")
        return out

    monkeypatch.setattr(zx, "_complete", logged_complete)
    monkeypatch.setattr(zx, "_certified", lambda *args: log.append("certified") or certified(*args))
    assert gker([V("2", "0"), V("x", "0")]) == [V("-x", "2")]
    assert "completed" not in log
    rng, runs = random.Random(19), set()
    for _ in range(200):
        n, s = rng.randint(1, 3), rng.randint(1, 3)
        cols = [rand_vec(rng, n) for _ in range(s)]
        log.clear()
        out = gker(cols)
        runs.add(log.count("completed"))
        if "completed" in log:
            assert log[-1] == "completed", (cols, log)
        assert ghnf(out, s).columns == tuple(out), cols
    assert runs == {0, 1}, runs


def test_tracked_extend_reuses_the_basis_pivot_table(monkeypatch):
    """The table that _tracked_extend hands to _extend, the basis's own
    moved down by s rows, is the one the stacked columns compile to."""
    import sigma_binomial.zx_lattice as zx

    real, heads = zx._extend, []

    def checked(head, table, new, s):
        assert table == zx._pivot_table(head), head
        heads.append(len(head))
        return real(head, table, new, s)

    monkeypatch.setattr(zx, "_extend", checked)
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 3)
        basis = ghnf([rand_vec(rng, n) for _ in range(rng.randint(1, 3))], n)
        zx._tracked_extend(basis, [rand_vec(rng, n) for _ in range(rng.randint(1, 2))])
    assert max(heads) > 1


def test_ghnf_certifies_a_ghnf_and_distinct_leading_rows(monkeypatch):
    """ghnf of a GHNF's own columns, and of generators whose leading rows
    differ, runs no completion."""
    calls = _count_completions(monkeypatch)
    rng = random.Random(27)
    for _ in range(40):
        n = rng.randint(1, 4)
        basis = ghnf([rand_vec(rng, n) for _ in range(rng.randint(1, 4))], n)
        before = len(calls)
        assert ghnf(basis.columns, n) == basis
        # one generator per leading row, its leading entry nonzero
        gens = [LatVec(rand_vec(rng, row, 2, 5).entries + (rand_poly(rng, 2, 5) or IntPoly.const(3),)
                       + (IntPoly(),) * (n - row - 1)) for row in rng.sample(range(n), rng.randint(1, n))]
        assert verify_ghnf(ghnf(gens, n))[0]
        assert len(calls) == before, (basis, gens)


def _least_pivot_rem(v, cols):
    """(r, qs) by the rule that canonical reduction follows, one
    coefficient at a time from the last row and the highest degree down:
    a coefficient a*x^d in row i with a outside [0, c) is reduced by the
    column with leading term in row i of degree <= d that is least by
    (|c|, -degree, index), c its leading coefficient."""
    lts = [c.leading_term() for c in cols]
    r, qs = v, [IntPoly() for _ in cols]
    for row in range(v.n, 0, -1):
        for d in range(len(r.entries[row - 1].coeffs) - 1, -1, -1):
            a = r.entries[row - 1].coeff(d)
            applicable = [(abs(lt.coeff), -lt.deg, idx) for idx, lt in enumerate(lts)
                          if lt.row == row and lt.deg <= d]
            if a and applicable:
                lc, _, idx = min(applicable)
                if not 0 <= a < lc:
                    term = IntPoly.term(a // lc, d - lts[idx].deg)
                    r, qs[idx] = r - term * cols[idx], qs[idx] + term
    return r, tuple(qs)


def test_reduction_follows_the_least_pivot_rule():
    """grem and grem_track against ``_least_pivot_rem`` on random vectors:
    by GHNFs, and by unsorted column lists with several pivots per row and
    repeated leading terms (a column twice, a twin with other entries
    below its leading term, and twice a column); v = r + sum q_i*c_i."""
    rng = random.Random(29)
    for trial in range(300):
        n = rng.randint(1, 3)
        if trial % 3 == 0:
            basis = ghnf([rand_vec(rng, n) for _ in range(rng.randint(1, 4))], n)
            cols = basis.columns
        else:
            cols = []
            for _ in range(rng.randint(1, 5)):
                g = rand_vec(rng, n, 3, 6)
                if g:
                    cols.append(g if g.is_normal() else -g)
            for g in list(cols):
                pick = rng.random()
                row = g.leading_term().row
                if pick < 0.2:
                    cols.append(g)
                elif pick < 0.4:
                    cols.append(LatVec(rand_vec(rng, row - 1).entries + g.entries[row - 1:]))
                elif pick < 0.5:
                    cols.append(2 * g)
            rng.shuffle(cols)
            basis = cols
        for _ in range(3):
            v = rand_vec(rng, n, 5, 40)
            r, qs = grem_track(v, basis)
            assert (r, qs) == _least_pivot_rem(v, list(cols)), (v, cols)
            assert grem(v, basis) == r
            assert r + sum((q * c for q, c in zip(qs, cols)), LatVec.zero(n)) == v


def _all_pairs_certificate(basis, inputs, s):
    """Buchberger's test past row s on every same-row pair of columns."""
    pairs = [s_vector(f, g) for i, f in enumerate(basis) for g in basis[i + 1:]
             if f.leading_term().row == g.leading_term().row]
    rels = []
    for v in list(inputs) + pairs:
        r = grem(v, list(basis))
        if any(r.entries[s:]):
            return None
        if r:
            rels.append(r)
    return rels


def test_certificate_of_consecutive_pairs_equals_all_pairs(monkeypatch):
    """Each certificate that ghnf, extend, ghnf_track and gker run on
    random inputs, with s = 0 and s > 0 expression rows: it accepts
    exactly when the test on all same-row pairs does, and its relations
    then span the same lattice.  Both verdicts occur for both kinds of s,
    and some basis has a row of three columns or more."""
    import sigma_binomial.zx_lattice as zx

    seen, certified = set(), zx._certified

    def both(basis, table, inputs, s):
        out = certified(basis, table, inputs, s)
        ref = _all_pairs_certificate(basis, inputs, s)
        assert (out is None) == (ref is None), (basis, inputs, s)
        if out is not None and s:
            dim = basis[0].n
            assert ghnf(out, dim) == ghnf(ref, dim), (basis, inputs, s)
        rows = [c.leading_term().row for c in basis]
        seen.add((s > 0, out is not None, max(rows.count(r) for r in rows) >= 3))
        return out

    monkeypatch.setattr(zx, "_certified", both)
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [rand_vec(rng, n) for _ in range(rng.randint(1, 4))]
        basis = ghnf(gens, n)
        extend(basis, [rand_vec(rng, n, 2, 6)])
        ghnf_track(gens, n)
        gker(gens)
    assert {(s, ok) for s, ok, _ in seen} == {(False, False), (False, True), (True, False), (True, True)}
    assert any(long for _, _, long in seen), seen


def test_member_oracle():
    gens = [V("-x+2", "3*x+2", "0"), V("1", "1", "2*x"), V("1", "2*x+1", "x^2")]
    assert member_oracle(gens, gens[0], 3)
    assert not member_oracle(gens, V("0", "2", "x-2"), 6)
    comb = P("x+1") * gens[0] + P("2") * gens[2]
    assert member_oracle(gens, comb, comb.max_degree() + 4)


def test_ghnf_track_expressions():
    gens = [V("12"), V("6*x+6"), V("3*x^2+3*x")]
    basis, exprs = ghnf_track(gens, 1)
    for col, expr in zip(basis.columns, exprs):
        acc = LatVec.zero(1)
        for q, g in zip(expr, gens):
            acc = acc + q * g
        assert acc == col


# ---------------------------------------------------------------------------
# Properties against independent facts: lattice invariance, the GHNF
# conditions, and the tracked expressions.

PROPERTY = settings(max_examples=60, deadline=timedelta(seconds=2))

polys = st.lists(st.integers(-9, 9), max_size=4).map(IntPoly)


@st.composite
def lattices(draw, max_n=3, max_gens=4):
    """(n, generators) with entries of degree <= 3 and coefficients |c| <= 9."""
    n = draw(st.integers(1, max_n))
    vecs = st.lists(polys, min_size=n, max_size=n).map(LatVec)
    return n, draw(st.lists(vecs, min_size=1, max_size=max_gens))


@PROPERTY
@given(lattices(), st.data())
def test_ghnf_invariant_under_unimodular_recombination(lattice, data):
    n, gens = lattice
    expected = ghnf(gens, n)
    moved = data.draw(st.permutations(gens))
    assert ghnf(moved, n) == expected
    # elementary Z[x]-operations g_i <- -g_i and g_i <- g_i + p*g_j, i != j
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(moved) - 1))
        j = data.draw(st.integers(0, len(moved) - 1))
        if i == j:
            moved[i] = -moved[i]
        else:
            moved[i] = moved[i] + data.draw(polys) * moved[j]
    assert ghnf(moved, n) == expected


@PROPERTY
@given(lattices())
def test_ghnf_output_verifies(lattice):
    n, gens = lattice
    basis = ghnf(gens, n)
    ok, problems = verify_ghnf(basis)
    assert ok, problems
    assert all(contains(basis, g) for g in gens)


@PROPERTY
@given(lattices())
def test_ghnf_track_columns_are_their_expressions(lattice):
    n, gens = lattice
    basis, exprs = ghnf_track(gens, n)
    assert basis == ghnf(gens, n)
    for col, expr in zip(basis.columns, exprs):
        acc = LatVec.zero(n)
        for q, g in zip(expr, gens):
            acc = acc + q * g
        assert acc == col


@PROPERTY
@given(lattices())
def test_gker_generates_the_truncated_kernel(lattice):
    n, cols = lattice
    gens = gker(cols)
    assert all(not _image(x, cols, n) for x in gens)
    span = ghnf(gens, len(cols))
    assert gens == list(span.columns)
    assert verify_ghnf(gens)[0]
    assert all(contains(span, x) for x in truncated_kernel(cols, 2))


@PROPERTY
@given(lattices(), st.data())
def test_contains_agrees_with_member_oracle(lattice, data):
    n, gens = lattice
    vecs = st.lists(polys, min_size=n, max_size=n).map(LatVec)
    small = st.lists(st.integers(-3, 3), max_size=3).map(IntPoly)
    v = sum((data.draw(small) * g for g in gens), LatVec.zero(n))
    if data.draw(st.booleans()):
        v = v + data.draw(vecs)
    basis, exprs = ghnf_track(gens, n)
    # v is a combination of the GHNF columns of degree at most deg v + the
    # columns' degree + 1 (the bound of the seeded loop in test_acceptance),
    # and each column one of the generators of its expression's degree
    col_deg = max((c.max_degree() for c in basis.columns), default=0)
    expr_deg = max((int(q.degree) for e in exprs for q in e if q), default=0)
    bound = max(v.max_degree(), 0) + col_deg + 1 + expr_deg
    assert contains(basis, v) == member_oracle(gens, v, bound)


def _square_tail(maxcoeff: int, trial: int, n: int = 4, maxdeg: int = 3) -> list[LatVec]:
    """n = s generators of the given degree drawn from the tail seed 1, as the benchmark does."""
    rng = random.Random(1)
    for _ in range(trial):
        for _ in range(n):
            rand_vec(rng, n, maxdeg, maxcoeff)
    return [rand_vec(rng, n, maxdeg, maxcoeff) for _ in range(n)]


@pytest.mark.parametrize("maxcoeff, trial", [(10, 2), (1000, 3)])
def test_ghnf_former_tail_timeouts(maxcoeff, trial):
    # these took 28 s and more than 60 s with the pair-queue completion
    gens = _square_tail(maxcoeff, trial)
    start = time.perf_counter()
    basis = ghnf(gens, 4)
    assert time.perf_counter() - start < 2.0
    ok, problems = verify_ghnf(basis)
    assert ok, problems
    assert all(contains(basis, g) for g in gens)
    # and every column lies in the generated lattice
    tracked, exprs = ghnf_track(gens, 4)
    assert tracked == basis
    for col, expr in zip(basis.columns, exprs):
        assert sum((q * g for q, g in zip(expr, gens)), LatVec.zero(4)) == col


@pytest.mark.parametrize("trial", [7, 8])
def test_ghnf_degree_22_tail(trial):
    # n = s = 5, degree 5, entries <= 1000: both need a GHNF column of
    # degree 22; redoing the HNF at doubled caps (21, then 37) took 47 s
    # and 38 s on a 2-vCPU Xeon
    gens = _square_tail(1000, trial, n=5, maxdeg=5)
    start = time.perf_counter()
    basis = ghnf(gens, 5)
    assert time.perf_counter() - start < 5.0
    assert max(c.max_degree() for c in basis.columns) == 22
    ok, problems = verify_ghnf(basis)
    assert ok, problems
    assert all(contains(basis, g) for g in gens)
    tracked, exprs = ghnf_track(gens, 5)
    assert tracked == basis
    for col, expr in zip(basis.columns, exprs):
        assert sum((q * g for q, g in zip(expr, gens)), LatVec.zero(5)) == col


@PROPERTY
@given(lattices())
def test_s_vector_is_multiplier_combination(lattice):
    n, gens = lattice
    vecs = [g for g in gens if g] + list(ghnf(gens, n).columns)
    for f in vecs:
        for g in vecs:
            s = s_vector(f, g)
            if f.leading_term().row != g.leading_term().row:
                assert s == LatVec.zero(n)
            else:
                mf, mg = _s_multipliers(f, g)
                assert s == mf * f - mg * g


def test_completion_budget_error_names_cap_and_shape(monkeypatch):
    from sigma_binomial import zx_lattice as zx

    items = [zx._Input(g) for g in (V("-2", "2*x^2+3*x+3"), V("-2*x^2-3*x+5", "3"))]
    with monkeypatch.context() as patch:
        patch.setattr(zx, "_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"^completion did not stabilize: degree cap 3, last HNF 8x4$"):
            zx._complete(items)
    # the default budget is enough
    assert verify_ghnf(ghnf([it.vec for it in items], 2))[0]


def test_completion_budget_charges_the_work_done():
    # n = s = 6, degree 8, entries <= 1000: the rounds past cap 9 extend an
    # HNF of about 200 columns by 6 shifts each; charged rows times all
    # columns, this lattice was refused at cap 38 after 1.3 s
    gens = _square_tail(1000, 0, n=6, maxdeg=8)
    start = time.perf_counter()
    basis = ghnf(gens, 6)
    assert time.perf_counter() - start < 10.0
    ok, problems = verify_ghnf(basis)
    assert ok, problems
    assert all(contains(basis, g) for g in gens)

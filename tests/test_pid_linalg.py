"""Tests for HNF and kernel computations over Z and Z_p[x]."""

import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_binomial.pid_linalg import (
    _INT_RING,
    _hnf,
    _hnf_int,
    _pivot_row,
    hnf_modpoly,
    int_lattice_contains,
    ker_int,
)
from sigma_binomial.polyzx import ModPoly, NonUnit, inverse_mod, poly_from_str

P = poly_from_str


def M(p, *cols):
    return [[ModPoly(p, P(s).coeffs) for s in col] for col in cols]


def ker_mod(columns, p):
    """The Z_p[x]-kernel, read off the zero columns of the HNF."""
    b, t = hnf_modpoly(columns, p)
    return [tk for bk, tk in zip(b, t) if not any(bk)]


def rand_modpoly_columns(rng, p, rows, cols):
    return [
        [ModPoly(p, [rng.randint(0, p - 1) for _ in range(rng.randint(0, 3))])
         for _ in range(rows)]
        for _ in range(cols)
    ]


def test_ker_int_example():
    # kernel spanned by (0,-1,1) and (1,-2,0)
    f = [[2, 2, 0], [1, 1, 0], [1, 1, 0]]  # rows (2, 1, 1), (2, 1, 1), (0, 0, 0)
    basis = ker_int(f)
    assert len(basis) == 2
    for x in basis:
        assert all(
            sum(row[j] * x[j] for j in range(3)) == 0
            for row in ([2, 1, 1], [2, 1, 1], [0, 0, 0])
        )
    # same lattice as the printed generators
    printed = [(0, -1, 1), (1, -2, 0)]
    for v in printed:
        assert int_lattice_contains(basis, v)
    for v in basis:
        assert int_lattice_contains(printed, v)


def test_ker_int_trivial():
    assert ker_int([[1, 0], [0, 1]]) == []
    basis = ker_int([[0], [0], [0]])
    assert len(basis) == 3
    for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert int_lattice_contains(basis, v)


def test_hnf_modpoly_example_75():
    # step 3.4 of the Z-saturation example: B = [[x^2, 1-x], [0, x^3]]
    f = M(2, ("x^2+2*x-2", "0"), ("1-x", "x^3"))
    b, t = hnf_modpoly(f, 2)
    cols = [[str(e.lift()) for e in c] for c in b]
    assert cols == [["x^2", "0"], ["x+1", "x^3"]]
    # B = F * T exactly
    for k in range(2):
        for r in range(2):
            acc = ModPoly(2)
            for j in range(2):
                acc = acc + f[j][r] * t[k][j]
            assert acc == b[k][r]


def test_hnf_modpoly_unit():
    f = M(2, ("x^2",), ("1",))
    b, t = hnf_modpoly(f, 2)
    nonzero = [c for c in b if any(c)]
    assert len(nonzero) == 1 and str(nonzero[0][0].lift()) == "1"


def test_hnf_modpoly_already_hnf():
    f = M(3, ("x", "0"), ("1", "x^2"))
    b, t = hnf_modpoly(f, 3)
    assert b == f
    one, zero = ModPoly(3, (1,)), ModPoly(3)
    assert t == [[one, zero], [zero, one]]


def test_hnf_modpoly_composite_modulus():
    # a lead that is not a unit mod m stops the HNF with a proper factor
    with pytest.raises(NonUnit) as raised:
        hnf_modpoly(M(15, ("3",)), 15)
    assert raised.value.factor == 3
    with pytest.raises(NonUnit) as raised:
        hnf_modpoly(M(15, ("x+1", "0"), ("2", "5*x+1")), 15)
    assert raised.value.factor == 5
    # with every lead a unit, it is an HNF with monic pivots
    m = 1009 * 1013
    f = M(m, ("2*x^2+3", "0"), ("x+5", "7*x-1"), ("4", "x^2"))
    b, t = hnf_modpoly(f, m)
    nonzero = [c for c in b if any(c)]
    assert [_pivot_row(c) for c in nonzero] == [0, 1]
    assert all(c[_pivot_row(c)].lead == 1 for c in nonzero)
    for k in range(3):
        for r in range(2):
            acc = ModPoly(m)
            for j in range(3):
                acc = acc + f[j][r] * t[k][j]
            assert acc == b[k][r]


def test_hnf_transformation_invertible():
    rng = random.Random(4)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        f = rand_modpoly_columns(rng, p, rows, cols)
        b, t = hnf_modpoly(f, p)
        # rerunning on T must produce unit pivots everywhere: T is invertible
        tb, _ = hnf_modpoly(t, p)
        nonzero = [c for c in tb if any(c)]
        assert len(nonzero) == cols
        for c in nonzero:
            piv = max(i for i in range(cols) if c[i])
            assert c[piv] == ModPoly(p, (1,))
            assert all(c[i].degree <= 0 for i in range(cols))


def test_record_rows_follow_the_column_operations():
    """Record rows above ``top`` are carried, never eliminated: on random
    integer and Z_p[x] matrices A with an arbitrary block R stacked above
    them, the rows from ``top`` on are the HNF of A alone, and the rows
    above are R*U for the transformation U of A's HNF."""
    rng = random.Random(37)
    for trial in range(200):
        rows, cols, top = rng.randint(1, 4), rng.randint(0, 5), rng.randint(0, 3)
        if trial % 2:
            p = rng.choice([2, 3, 5, 7])
            ring = (lambda a, j: (a.degree, j), lambda a, b: divmod(a, b)[0],
                    lambda a, p=p: inverse_mod(a.lead, p))
            a, r = rand_modpoly_columns(rng, p, rows, cols), rand_modpoly_columns(rng, p, top, cols)
            zero, u = ModPoly(p), hnf_modpoly(a, p)[1]
        else:
            ring = _INT_RING
            a = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(rows)] for _ in range(cols)]
            r = [[rng.randint(-9, 9) for _ in range(top)] for _ in range(cols)]
            zero, u = 0, _hnf_int(a)[1]
        out = _hnf([rk + ak for rk, ak in zip(r, a)], top, *ring)
        assert [c[top:] for c in out] == _hnf(a, 0, *ring)
        upper = [c[:top] for c in out]
        assert upper == [[sum((rj[i] * uk[j] for j, rj in enumerate(r)), zero) for i in range(top)]
                         for uk in u]


def test_ker_modpoly_examples():
    f = M(2, ("x^2", "0"), ("1", "0"))
    basis = ker_mod(f, 2)
    assert len(basis) == 1
    x = basis[0]
    assert [str(e.lift()) for e in x] in ([ "1", "x^2"],)
    # full column rank -> empty kernel
    assert ker_mod(M(2, ("x", "0"), ("1", "x^2")), 2) == []
    # duplicate columns over Z_3
    basis = ker_mod(M(3, ("x",), ("x",)), 3)
    assert len(basis) == 1
    u = basis[0]
    assert (u[0] + u[1]) == ModPoly(3)


def test_ker_modpoly_annihilates_randomized():
    rng = random.Random(10)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        f = rand_modpoly_columns(rng, p, rows, cols)
        for x in ker_mod(f, p):
            for r in range(rows):
                acc = ModPoly(p)
                for j in range(cols):
                    acc = acc + f[j][r] * x[j]
                assert not acc


@pytest.fixture(scope="module")
def sympy_hnf():
    return pytest.importorskip("sympy.matrices.normalforms").hermite_normal_form


@st.composite
def int_matrices(draw):
    """A list of columns: up to 5 rows, up to 6 columns, sparse small entries."""
    rows = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-20, 20))
    column = st.lists(entry, min_size=rows, max_size=rows)
    return draw(st.lists(column, max_size=6)), rows


@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(int_matrices())
def test_hnf_int_against_sympy(sympy_hnf, matrix):
    from sympy import Matrix

    cols, rows = matrix
    s = len(cols)
    h, u = _hnf_int(cols)
    # A*U = H with U unimodular
    for k in range(s):
        assert [sum(cols[j][r] * u[k][j] for j in range(s)) for r in range(rows)] == h[k]
    if s:
        assert abs(Matrix(u).det()) == 1
    assert _hnf_int(cols, want_u=False) == (h, [])
    # the shape: zero columns first, then increasing pivot rows with
    # positive pivots and reduced entries in later columns
    pivots = [_pivot_row(c) for c in h]
    nonzero = [c for c, r in zip(h, pivots) if r >= 0]
    live = [r for r in pivots if r >= 0]
    assert pivots == [-1] * (s - len(live)) + live and live == sorted(set(live))
    for k, c in enumerate(nonzero):
        p = c[live[k]]
        assert p > 0 and all(0 <= later[live[k]] < p for later in nonzero[k + 1 :])
    # same Z-span as sympy's HNF, which is oriented differently
    if s:
        w = sympy_hnf(Matrix(rows, s, lambda r, c: cols[c][r]))
        theirs = [[int(w[r, k]) for r in range(rows)] for k in range(w.cols)]
    else:
        theirs = []
    assert all(int_lattice_contains(theirs, c) for c in nonzero)
    assert all(int_lattice_contains(nonzero, c) for c in theirs)


@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(int_matrices(), st.data())
def test_hnf_int_extends_previous_hnf(matrix, data):
    # the completion's step: HNF(A) without its zero columns, plus new
    # columns B, is HNF([A | B])
    a, rows = matrix
    entry = st.one_of(st.just(0), st.integers(-20, 20))
    b = data.draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), max_size=4))
    both = a + b
    h_a, _ = _hnf_int(a, want_u=False)
    h, _ = _hnf_int([c for c in h_a if any(c)] + b, want_u=False)
    nonzero = [c for c in h if any(c)]
    assert nonzero == [c for c in _hnf_int(both, want_u=False)[0] if any(c)]
    try:
        from sympy import Matrix
        from sympy.matrices.normalforms import hermite_normal_form
    except ImportError:
        return
    if both:
        w = hermite_normal_form(Matrix(rows, len(both), lambda r, c: both[c][r]))
        theirs = [[int(w[r, k]) for r in range(rows)] for k in range(w.cols)]
        assert all(int_lattice_contains(theirs, c) for c in nonzero)
        assert all(int_lattice_contains(nonzero, c) for c in theirs)

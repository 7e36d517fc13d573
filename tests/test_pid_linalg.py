"""Tests for HNF and kernel computations over Z and Z_p[x]."""

import itertools
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_binomial.pid_linalg import (
    IntMat,
    ModPolyMat,
    _hnf_int,
    _pivot_row_int,
    hnf_modpoly,
    int_lattice_contains,
    ker_int,
    ker_modpoly,
    scalar_kernel,
)
from sigma_binomial.polyzx import ModPoly, mod_reduce, poly_from_str

P = poly_from_str


def M(p, *cols):
    return ModPolyMat.from_columns(
        p, [[mod_reduce(P(s), p) for s in col] for col in cols]
    )


def test_ker_int_example():
    # kernel spanned by (0,-1,1) and (1,-2,0)
    f = IntMat.from_rows([[2, 1, 1], [2, 1, 1], [0, 0, 0]])
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
    assert ker_int(IntMat.from_rows([[1, 0], [0, 1]])) == []
    basis = ker_int(IntMat.from_rows([[0, 0, 0]]))
    assert len(basis) == 3
    for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert int_lattice_contains(basis, v)


def test_hnf_modpoly_example_75():
    # step 3.4 of the Z-saturation example: B = [[x^2, 1-x], [0, x^3]]
    f = M(2, ("x^2+2*x-2", "0"), ("1-x", "x^3"))
    b, t = hnf_modpoly(f)
    cols = [[str(e.lift()) for e in c] for c in b.columns]
    assert cols == [["x^2", "0"], ["x+1", "x^3"]]
    # B = F * T exactly
    for k in range(2):
        for r in range(2):
            acc = ModPoly(2)
            for j in range(2):
                acc = acc + f.columns[j][r] * t.columns[k][j]
            assert acc == b.columns[k][r]


def test_hnf_modpoly_unit():
    f = M(2, ("x^2",), ("1",))
    b, t = hnf_modpoly(f)
    nonzero = [c for c in b.columns if any(c)]
    assert len(nonzero) == 1 and str(nonzero[0][0].lift()) == "1"


def test_hnf_modpoly_already_hnf():
    f = M(3, ("x", "0"), ("1", "x^2"))
    b, t = hnf_modpoly(f)
    assert b.columns == f.columns
    one, zero = ModPoly(3, (1,)), ModPoly(3)
    assert t.columns == ((one, zero), (zero, one))


def test_hnf_transformation_invertible():
    rng = random.Random(4)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        f = ModPolyMat.from_columns(
            p,
            [
                [ModPoly(p, [rng.randint(0, p - 1) for _ in range(rng.randint(0, 3))])
                 for _ in range(rows)]
                for _ in range(cols)
            ],
        )
        b, t = hnf_modpoly(f)
        # rerunning on T must produce unit pivots everywhere: T is invertible
        tb, _ = hnf_modpoly(t)
        nonzero = [c for c in tb.columns if any(c)]
        assert len(nonzero) == cols
        for c in nonzero:
            piv = max(i for i in range(cols) if c[i])
            assert c[piv] == ModPoly(p, (1,))
            assert all(c[i].degree <= 0 for i in range(cols))


def test_ker_modpoly_examples():
    f = M(2, ("x^2", "0"), ("1", "0"))
    basis = ker_modpoly(f)
    assert len(basis) == 1
    x = basis[0]
    assert [str(e.lift()) for e in x] in ([ "1", "x^2"],)
    # full column rank -> empty kernel
    assert ker_modpoly(M(2, ("x", "0"), ("1", "x^2"))) == []
    # duplicate columns over Z_3
    basis = ker_modpoly(M(3, ("x",), ("x",)))
    assert len(basis) == 1
    u = basis[0]
    assert (u[0] + u[1]) == ModPoly(3)


def test_ker_modpoly_annihilates_randomized():
    rng = random.Random(10)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        f = ModPolyMat.from_columns(
            p,
            [
                [ModPoly(p, [rng.randint(0, p - 1) for _ in range(rng.randint(0, 3))])
                 for _ in range(rows)]
                for _ in range(cols)
            ],
        )
        for x in ker_modpoly(f):
            for r in range(rows):
                acc = ModPoly(p)
                for j in range(cols):
                    acc = acc + f.columns[j][r] * x[j]
                assert not acc


def test_scalar_kernel_example():
    e = M(2, ("x", "0"), ("1", "0"), ("x", "0"))
    basis = scalar_kernel(e)
    assert basis == [(1, 0, 1)]  # (1, 0, -1) over Z_2
    assert scalar_kernel(M(2, ("x", "0"), ("1", "x"))) == []
    dup = scalar_kernel(M(3, ("x+1", "x"), ("x+1", "x")))
    assert len(dup) == 1 and (dup[0][0] + dup[0][1]) % 3 == 0


def test_scalar_kernel_exhaustive_small():
    rng = random.Random(21)
    for _ in range(60):
        p = rng.choice([2, 3])
        rows, cols = rng.randint(1, 2), rng.randint(1, 4)
        e = ModPolyMat.from_columns(
            p,
            [
                [ModPoly(p, [rng.randint(0, p - 1) for _ in range(rng.randint(0, 3))])
                 for _ in range(rows)]
                for _ in range(cols)
            ],
        )
        basis = scalar_kernel(e)
        # brute force over Z_p^cols
        kernel = set()
        for x in itertools.product(range(p), repeat=cols):
            ok = True
            for r in range(rows):
                acc = ModPoly(p)
                for j in range(cols):
                    acc = acc + e.columns[j][r] * x[j]
                if acc:
                    ok = False
                    break
            if ok:
                kernel.add(x)
        span = set()
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            v = [0] * cols
            for c, b in zip(coeffs, basis):
                for j in range(cols):
                    v[j] = (v[j] + c * b[j]) % p
            span.add(tuple(v))
        assert span == kernel


def test_standard_form_degree_discipline():
    rng = random.Random(33)
    from sigma_binomial.pid_linalg import _pivot_row_mod, _scalar_shape

    for _ in range(40):
        p = rng.choice([2, 3])
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        e = ModPolyMat.from_columns(
            p,
            [
                [ModPoly(p, [rng.randint(0, p - 1) for _ in range(rng.randint(0, 3))])
                 for _ in range(rows)]
                for _ in range(cols)
            ],
        )
        # replay the reduction to inspect the final shapes
        work = [list(c) for c in e.columns]
        basis = scalar_kernel(e)  # drives its own copy; recompute shapes here
        shapes = {}
        # after scalar_kernel, the invariant is about its internal state; we
        # validate the public claim instead: surviving shapes are distinct
        # within each pivot row when re-running the elimination
        from sigma_binomial import pid_linalg as pl

        work2 = [list(c) for c in e.columns]
        u = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        while True:
            groups = {}
            for j in range(cols):
                shape = pl._scalar_shape(work2[j])
                if shape[0] >= 0:
                    groups.setdefault(shape, []).append(j)
            clash = None
            for shape in sorted(groups):
                if len(groups[shape]) > 1:
                    clash = groups[shape]
                    break
            if clash is None:
                break
            keep = clash[0]
            row = pl._pivot_row_mod(work2[keep])
            lead = work2[keep][row].lead
            for j in clash[1:]:
                fct = (work2[j][row].lead * pow(lead, -1, p)) % p
                for k in range(rows):
                    work2[j][k] = work2[j][k] - fct * work2[keep][k]
        seen = {}
        for j in range(cols):
            shape = pl._scalar_shape(work2[j])
            if shape[0] >= 0:
                assert shape not in seen
                seen[shape] = j


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
    pivots = [_pivot_row_int(c) for c in h]
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

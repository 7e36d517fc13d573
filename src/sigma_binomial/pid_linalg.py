"""Hermite normal forms and kernels over the PIDs Z and Z_p[x].

All matrices are column-oriented to match the lattice convention used
throughout the package: a matrix is a list of columns, the pivot of a
column is its bottom-most nonzero entry, and elimination works on
columns only.  The Z_p-scalar kernel of a Z_p[x] matrix is computed via
the standard-form reduction that only permits column exchanges and
scalar column additions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyzx import DegenerateInput, ModPoly


@dataclass(frozen=True)
class IntMat:
    """Rectangular integer matrix, stored as a tuple of columns."""

    rows: int
    cols: int
    columns: tuple[tuple[int, ...], ...]

    @classmethod
    def from_columns(cls, columns) -> "IntMat":
        columns = tuple(tuple(c) for c in columns)
        if columns and len({len(c) for c in columns}) != 1:
            raise DegenerateInput("ragged integer matrix")
        rows = len(columns[0]) if columns else 0
        return cls(rows, len(columns), columns)

    @classmethod
    def from_rows(cls, rows) -> "IntMat":
        rows = [tuple(r) for r in rows]
        cols = tuple(tuple(r[j] for r in rows) for j in range(len(rows[0]))) if rows else ()
        return cls.from_columns(cols)


@dataclass(frozen=True)
class ModPolyMat:
    """Rectangular matrix over Z_p[x], stored as a tuple of columns."""

    p: int
    rows: int
    cols: int
    columns: tuple[tuple[ModPoly, ...], ...]

    @classmethod
    def from_columns(cls, p: int, columns) -> "ModPolyMat":
        columns = tuple(tuple(c) for c in columns)
        if columns and len({len(c) for c in columns}) != 1:
            raise DegenerateInput("ragged matrix")
        for col in columns:
            for entry in col:
                if entry.p != p:
                    raise DegenerateInput("mixed moduli in matrix")
        rows = len(columns[0]) if columns else 0
        return cls(p, rows, len(columns), columns)


def _pivot_row_int(col) -> int:
    """Index of the bottom-most nonzero entry, or -1 for a zero column."""
    for i in range(len(col) - 1, -1, -1):
        if col[i]:
            return i
    return -1


def _hnf_int(
    columns: list[list[int]], want_u: bool = True
) -> tuple[list[list[int]], list[list[int]]]:
    """Column HNF over Z with transformation: returns (H, U), A*U = H.

    U is unimodular.  Zero columns of H come first; pivot columns follow
    with strictly increasing (bottom-most) pivot rows and positive
    pivots, and each entry of a pivot row in a later column lies in
    [0, pivot).  H is unique for the Z-span of the columns; U is not.

    Rows are eliminated bottom first by Euclid steps: the live column
    with the smallest entry in the row reduces the others by the nearest
    quotient until one is left.  As soon as that pivot is fixed, the
    pivot columns fixed before it are reduced modulo it, which keeps
    their entries from swelling.  U is only built when ``want_u`` is
    set; otherwise it comes back as an empty list.
    """
    s = len(columns)
    n = len(columns[0]) if columns else 0
    work = [list(c) for c in columns]
    u = [[int(i == j) for i in range(s)] for j in range(s)] if want_u else []

    def nonzeros(vec, stop):
        return [(k, c) for k, c in enumerate(vec[:stop]) if c]

    def sub(j, q, terms, uterms):
        # col_j -= q * col_i, given the nonzero entries of col_i and U_i
        cj = work[j]
        for k, c in terms:
            cj[k] -= q * c
        if want_u:
            uj = u[j]
            for k, c in uterms:
                uj[k] -= q * c

    buckets: dict[int, list[int]] = {}  # pivot row -> columns, for rows not yet done
    for j, col in enumerate(work):
        r = _pivot_row_int(col)
        if r >= 0:
            buckets.setdefault(r, []).append(j)
    fixed: list[int] = []
    for row in range(n - 1, -1, -1):
        live = buckets.pop(row, None)
        if not live:
            continue
        while len(live) > 1:
            i = min(live, key=lambda j: abs(work[j][row]))
            a = work[i][row]
            terms = nonzeros(work[i], row + 1)
            uterms = nonzeros(u[i], s) if want_u else ()
            rest = [i]
            for j in live:
                if j == i:
                    continue
                q, r = divmod(work[j][row], a)
                if 2 * abs(r) > abs(a):
                    q += 1
                sub(j, q, terms, uterms)
                if work[j][row]:
                    rest.append(j)
                else:
                    r = _pivot_row_int(work[j][:row])
                    if r >= 0:
                        buckets.setdefault(r, []).append(j)
            live = rest
        i = live[0]
        if work[i][row] < 0:
            work[i] = [-v for v in work[i]]
            if want_u:
                u[i] = [-v for v in u[i]]
        p = work[i][row]
        terms = nonzeros(work[i], row + 1)
        uterms = nonzeros(u[i], s) if want_u else ()
        for k in fixed:
            q = work[k][row] // p
            if q:
                sub(k, q, terms, uterms)
        fixed.append(i)

    pivots = set(fixed)
    order = [j for j in range(s) if j not in pivots] + fixed[::-1]
    return [work[j] for j in order], ([u[j] for j in order] if want_u else [])


def ker_int(mat: IntMat) -> list[tuple[int, ...]]:
    """Z-basis of {X in Z^s | mat @ X = 0}."""
    cols = [list(c) for c in mat.columns]
    h, u = _hnf_int(cols)
    return [tuple(u[j]) for j in range(len(h)) if _pivot_row_int(h[j]) == -1]


def int_lattice_contains(columns, v) -> bool:
    """Whether integer vector v lies in the Z-span of the given columns."""
    if not columns:
        return not any(v)
    h, _ = _hnf_int([list(c) for c in columns], want_u=False)
    r = list(v)
    for j in range(len(h) - 1, -1, -1):
        row = _pivot_row_int(h[j])
        if row == -1:
            continue
        piv = h[j][row]
        if r[row] % piv:
            return False
        q = r[row] // piv
        if q:
            for k in range(len(r)):
                r[k] -= q * h[j][k]
    return not any(r)


def _pivot_row_mod(col) -> int:
    for i in range(len(col) - 1, -1, -1):
        if col[i]:
            return i
    return -1


def hnf_modpoly(mat: ModPolyMat) -> tuple[ModPolyMat, ModPolyMat]:
    """Column Hermite normal form over Z_p[x]: returns (B, T), B = mat*T.

    T is invertible over Z_p[x].  Zero columns of B come first; pivot
    columns follow with strictly increasing pivot rows, monic pivots, and
    the pivot-row entries of later columns reduced below the pivot degree.
    """
    p = mat.p
    s = mat.cols
    zero = ModPoly(p)
    one = ModPoly(p, (1,))
    work = [list(c) for c in mat.columns]
    t = [[one if i == j else zero for j in range(s)] for i in range(s)]

    def addmul(j, i, q):
        # col_j -= q * col_i
        for vecs in (work, t):
            ci, cj = vecs[i], vecs[j]
            for k in range(len(cj)):
                cj[k] = cj[k] - q * ci[k]

    pivot_of_row: dict[int, int] = {}
    n = mat.rows
    for row in range(n - 1, -1, -1):
        while True:
            live = [
                j
                for j in range(s)
                if j not in pivot_of_row.values() and _pivot_row_mod(work[j]) == row
            ]
            if not live:
                break
            if len(live) == 1:
                pivot_of_row[row] = live[0]
                break
            live.sort(key=lambda j: (work[j][row].degree, j))
            i = live[0]
            for j in live[1:]:
                q, _ = divmod(work[j][row], work[i][row])
                addmul(j, i, q)

    # monic pivots, then reduce pivot-row entries of the other columns
    for row, i in pivot_of_row.items():
        lead_inv = pow(work[i][row].lead, -1, p)
        if lead_inv != 1:
            for vecs in (work, t):
                vecs[i][:] = [e * lead_inv for e in vecs[i]]
    for row in sorted(pivot_of_row, reverse=True):
        i = pivot_of_row[row]
        for j in range(s):
            if j != i and work[j][row]:
                q, _ = divmod(work[j][row], work[i][row])
                if q:
                    addmul(j, i, q)

    order = sorted(
        range(s), key=lambda j: (_pivot_row_mod(work[j]) != -1, _pivot_row_mod(work[j]), j)
    )
    b = ModPolyMat.from_columns(p, [work[j] for j in order])
    tt = ModPolyMat.from_columns(p, [t[j] for j in order])
    return b, tt


def ker_modpoly(mat: ModPolyMat) -> list[tuple[ModPoly, ...]]:
    """Basis of {X in Z_p[x]^s | mat @ X = 0} over the PID Z_p[x]."""
    b, t = hnf_modpoly(mat)
    return [t.columns[j] for j in range(mat.cols) if _pivot_row_mod(b.columns[j]) == -1]


def _scalar_shape(col) -> tuple[int, float]:
    """(pivot row, degree of the pivot entry) of a Z_p[x] column."""
    r = _pivot_row_mod(col)
    return r, (col[r].degree if r >= 0 else -1)


def scalar_kernel(mat: ModPolyMat) -> list[tuple[int, ...]]:
    """Basis of {X in Z_p^l | mat @ X = 0} using only scalar column moves.

    The matrix is driven to standard form: within each pivot row the
    pivot-entry degrees are pairwise distinct (and the surviving columns
    therefore Z_p-independent).  Ties are broken toward the leftmost
    column of minimal pivot degree, which makes the output deterministic.
    """
    p = mat.p
    l = mat.cols
    work = [list(c) for c in mat.columns]
    u = [[1 if i == j else 0 for j in range(l)] for i in range(l)]

    while True:
        groups: dict[tuple[int, float], list[int]] = {}
        for j in range(l):
            shape = _scalar_shape(work[j])
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
        row = _pivot_row_mod(work[keep])
        lead = work[keep][row].lead
        for j in clash[1:]:
            f = (work[j][row].lead * pow(lead, -1, p)) % p
            for k in range(mat.rows):
                work[j][k] = work[j][k] - f * work[keep][k]
            for k in range(l):
                u[j][k] = (u[j][k] - f * u[keep][k]) % p

    return [tuple(u[j]) for j in range(l) if _pivot_row_mod(work[j]) == -1]

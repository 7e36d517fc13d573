"""Hermite normal forms and kernels over Z and over Z_m[x].

All matrices are lists of columns, to match the lattice convention used
throughout the package: the pivot of a column is its bottom-most
nonzero entry, and elimination works on columns only.

One elimination loop, ``_hnf``, serves both rings.  They differ only in
two choices:

- the reducer of a row, the live column whose entry there is least:
  least |a| (the first such in live-list order) with the nearest
  quotient over Z, least (degree, column index) with the polynomial
  quotient over Z_m[x];
- the unit that normalises a pivot: its sign over Z, the inverse of its
  leading coefficient over Z_m[x].

A transformation is recorded one way: the unit vectors of the column
space are stacked above the columns as record rows, which follow every
column operation and are never eliminated, and the transformation is
read off them (Cohen, *A Course in Computational Algebraic Number
Theory*, 1993, section 2.4).  Only ``ker_int`` and ``hnf_modpoly`` need
it; the completion's HNFs carry no record rows.  The kernel of a matrix
is read off the record rows of the zero columns of its HNF.
"""

from __future__ import annotations

from .polyzx import ModPoly, inverse_mod


def _pivot_row(col, top: int = 0) -> int:
    """Index of the bottom-most nonzero entry in rows ``top`` onward, or -1."""
    for i in range(len(col) - 1, top - 1, -1):
        if col[i]:
            return i
    return -1


def _hnf(columns, top, size, near, unit, spent=None):
    """Column HNF over a Euclidean domain of rows ``top`` onward.

    Rows above ``top`` are record rows: they follow every column
    operation and are never eliminated, so columns with unit vectors
    stacked above them come back with the transformation there
    (``_transformed``).  Zero columns (zero from row ``top``) come first;
    pivot columns follow with strictly increasing (bottom-most) pivot
    rows and normal pivots, and each entry of a pivot row in a later
    column is its remainder under ``divmod`` by the pivot.

    Rows are eliminated bottom first by Euclid steps: the live column j
    with the least ``size(entry, j)`` in the row reduces the others by
    ``near(entry, its entry)`` until one is left.  As soon as that pivot
    is fixed and scaled by ``unit(pivot)``, the pivot columns fixed
    before it are reduced modulo it, which keeps their entries from
    swelling.

    ``spent``, a one-item list, gains the number of entries updates rewrite.
    """
    s = len(columns)
    n = len(columns[0]) if columns else 0
    work = [list(c) for c in columns]

    def nonzeros(vec, stop):
        return [(k, c) for k, c in enumerate(vec[:stop]) if c]

    def sub(j, q, terms):
        # col_j -= q * col_i, given the nonzero entries of col_i
        cj = work[j]
        for k, c in terms:
            cj[k] -= q * c

    buckets: dict[int, list[int]] = {}  # pivot row -> columns, for rows not yet done
    for j, col in enumerate(work):
        r = _pivot_row(col, top)
        if r >= 0:
            buckets.setdefault(r, []).append(j)
    fixed: list[int] = []
    rewritten = 0
    for row in range(n - 1, top - 1, -1):
        live = buckets.pop(row, None)
        if not live:
            continue
        while len(live) > 1:
            i = min(live, key=lambda j: size(work[j][row], j))
            a = work[i][row]
            terms = nonzeros(work[i], row + 1)
            rewritten += (len(live) - 1) * len(terms)
            rest = [i]
            for j in live:
                if j == i:
                    continue
                sub(j, near(work[j][row], a), terms)
                if work[j][row]:
                    rest.append(j)
                else:
                    r = _pivot_row(work[j][:row], top)
                    if r >= 0:
                        buckets.setdefault(r, []).append(j)
            live = rest
        i = live[0]
        c = unit(work[i][row])
        if c != 1:
            work[i] = [c * v for v in work[i]]
        p = work[i][row]
        terms = None  # built on first use: an extended HNF leaves most rows alone
        for k in fixed:
            q = divmod(work[k][row], p)[0]
            if q:
                if terms is None:
                    terms = nonzeros(work[i], row + 1)
                sub(k, q, terms)
                rewritten += len(terms)
        fixed.append(i)

    if spent is not None:
        spent[0] += rewritten
    pivots = set(fixed)
    return [work[j] for j in range(s) if j not in pivots] + [work[j] for j in fixed[::-1]]


def _transformed(columns, zero, one, *ring):
    """(H, U) with A*U = H: ``_hnf`` of the columns with the unit vectors
    of the column space stacked above them as record rows, split.  ``ring``
    is ``_hnf``'s size, near, unit and optional spent."""
    s = len(columns)
    units = [[one if i == j else zero for i in range(s)] for j in range(s)]
    out = _hnf([e + list(c) for e, c in zip(units, columns)], s, *ring)
    return [c[s:] for c in out], [c[:s] for c in out]


def _nearest(a: int, b: int) -> int:
    """The q with |a - q*b| <= |b|/2 (rounding half toward -infinity)."""
    q, r = divmod(a, b)
    return q + 1 if 2 * abs(r) > abs(b) else q


# the reducer's size, the quotient and the pivot's unit over Z
_INT_RING = (lambda a, j: abs(a), _nearest, lambda a: -1 if a < 0 else 1)


def _hnf_int(
    columns: list[list[int]], want_u: bool = True, spent: list[int] | None = None
) -> tuple[list[list[int]], list[list[int]]]:
    """Column HNF over Z with transformation: returns (H, U), A*U = H.

    U is unimodular, pivots are positive, and the pivot-row entries of
    later columns lie in [0, pivot).  H is unique for the Z-span of the
    columns; U is not.  U is read off record rows (``_transformed``) when
    ``want_u`` is set, and is an empty list otherwise.  ``spent`` counts
    the work, as in ``_hnf``.
    """
    if want_u:
        return _transformed(columns, 0, 1, *_INT_RING, spent)
    return _hnf(columns, 0, *_INT_RING, spent), []


def hnf_modpoly(columns, m: int):
    """Column HNF over Z_m[x] with transformation: returns (B, T), B = A*T,
    with T read off record rows (``_transformed``).

    T is invertible over Z_m[x], pivots are monic, and the pivot-row
    entries of later columns have degree below the pivot's.  A leading
    coefficient a to invert that is not a unit mod a composite m raises
    NonUnit with gcd(a, m), a proper factor of m.
    """
    return _transformed(columns, ModPoly(m), ModPoly(m, (1,)), lambda a, j: (a.degree, j),
                        lambda a, b: divmod(a, b)[0], lambda a: inverse_mod(a.lead, m))


def ker_int(columns) -> list[list[int]]:
    """Z-basis of {X in Z^s | A X = 0} for the matrix A with these columns."""
    h, u = _hnf_int(columns)
    return [u[j] for j in range(len(h)) if _pivot_row(h[j]) == -1]


def int_lattice_contains(columns, v) -> bool:
    """Whether integer vector v lies in the Z-span of the given columns."""
    h, _ = _hnf_int(columns, want_u=False)
    r = list(v)
    for j in range(len(h) - 1, -1, -1):
        row = _pivot_row(h[j])
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

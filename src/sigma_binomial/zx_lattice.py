"""Z[x]^n vectors, Groebner reduction, and generalized Hermite normal forms.

The monomial order on Z[x]^n compares row first, then degree, then the
absolute value of the coefficient.  The output basis of ``ghnf`` is the
canonical reduced Groebner basis of the lattice (block-structured, the
"generalized Hermite normal form").

Every GHNF is an extension (``_extend``): of the basis it grows, for the
rounds of the saturations and the characters of ``laurent``, and of the
empty basis for ``ghnf``, ``ghnf_track`` and ``gker``.  Each new vector
is its remainder by the basis plus a vector of the basis's lattice, so
the basis and the nonzero remainders span the extended lattice.  Their
minimal leading terms are kept and tail-reduced, which only subtracts
multiples of other kept columns, so every kept candidate lies in the
lattice of the result by construction; only the candidates not kept
must reduce to zero, next to the S-vectors of consecutive columns of a
row (the chain criterion, see ``_certified``), for Buchberger's test to
certify it.  That test is the only Buchberger pass.

When it fails, the extension falls back on the HNF rounds
(``_complete``), which track nothing.  The integer HNF of the
candidates' shifts x^j*g up to a degree cap, flattened row-major so that
a column's HNF pivot is its leading term, contains the basis once the cap
is large enough.  Its columns with minimal leading terms are
tail-reduced and certified by the same test; a failed certificate raises
the cap by one, and the last HNF is extended by the new shifts of that
degree rather than recomputed.

Expressions over generators g_1..g_s and the Z[x]-relations among them
come from s rows above the lattice rows: the extension runs on the
stacked columns (e_l, g_l) in Z[x]^(s+n) (``_tracked_extend``).  These
rows hold no leading term, so reduction only updates them; a remainder
then needs to be zero only past row s, and what it leaves in rows 1..s is
a relation.  The relations so found generate all of them, as the
lifted S-vector syzygies of a strong Groebner basis over a PID generate
its syzygies (Adams and Loustaunau, ch. 4; those of consecutive columns
suffice, see ``_certified``), but they need not form the kernel's GHNF.
A fallback completion gives more: as rows are compared first, its output
holds the GHNF of the relations followed by the GHNF of the g_l, each
column above its expression (the elimination trick, ch. 3; a GHNF is a
strong Groebner basis over Z, so it applies).  So ``gker`` returns the
relations of a completed extension as they are, takes the GHNF of the
others, and runs at most one completion.

Stacked rows are the one way a transformation is recorded.
``grem_track`` reduces (0, v) by the stacked columns of the basis and
reads minus the quotients off rows 1..s of the remainder.  The HNFs over
Z and Z_m[x] read their transforms off unit rows stacked above their
columns, which no elimination step touches (``pid_linalg._transformed``):
``ker_int``'s kernel for ``xfactor``, and ``hnf_modpoly``'s for
``zfactor``.

Two reduction conventions coexist on purpose:

* the canonical reduction (``_reduce``) used by ``grem``, the
  certificates and the completion replaces a coefficient a*x^alpha by its
  remainder in [0, c) whenever a column with leading term c*x^beta in the
  same row and beta <= alpha exists, reducing by the applicable column of
  least |c|, then greatest beta, then lowest index.  This makes the
  reduced basis unique per lattice and ``ghnf`` deterministic.  A column
  set's choices are compiled once, per row and degree, into a
  ``_pivot_table``, so each coefficient costs one lookup, and a vector
  that needs no reduction comes back as it is.  A ``GhnfBasis`` builds its
  table on first use and keeps it, for ``grem``, ``contains``, the
  characters' values and an ``extend`` of it; a certificate builds one
  for the basis it certifies;
* the membership-style reducibility test used by ``verify_ghnf`` only
  flags a monomial when |a| >= |c| for some applicable pivot, which is
  the weakest reading of "multiple of the leading term" and accepts
  bases whose small negative coefficients were left alone.  It reads
  the pivots from a plain list per row, as they are given.

Both agree on the central fact: a vector reduces to zero exactly when it
lies in the lattice.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from . import pid_linalg
from .polyzx import IntPoly, ext_gcd

__all__ = [
    "DimensionError",
    "ZeroVector",
    "LatVec",
    "MonoTerm",
    "GhnfBasis",
    "Block",
    "grem",
    "grem_track",
    "s_vector",
    "ghnf",
    "extend",
    "ghnf_track",
    "verify_ghnf",
    "gker",
    "enumerate_c",
    "contains",
    "lattice_equal",
    "member_oracle",
]


class ZeroVector(ValueError):
    """Raised when an operation needs a nonzero vector."""


class DimensionError(ValueError):
    """Raised when vectors of different ambient dimension are mixed."""


@dataclass(frozen=True)
class MonoTerm:
    """A monomial a*x^deg*e_row of Z[x]^n; row indices are 1-based."""

    coeff: int
    deg: int
    row: int

    def key(self) -> tuple[int, int, int]:
        return (self.row, self.deg, abs(self.coeff))


class LatVec:
    """An element of Z[x]^n, stored as a tuple of IntPoly entries."""

    __slots__ = ("entries", "_lt")

    def __init__(self, entries: Iterable[IntPoly]):
        self.entries: tuple[IntPoly, ...] = tuple(entries)
        self._lt: MonoTerm | None = None

    @classmethod
    def zero(cls, n: int) -> "LatVec":
        return cls(IntPoly() for _ in range(n))

    @classmethod
    def unit(cls, n: int, row: int) -> "LatVec":
        """Standard basis vector; row is 0-based here."""
        return cls(IntPoly.const(1) if i == row else IntPoly() for i in range(n))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return any(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, LatVec) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def _check(self, other: "LatVec") -> None:
        if self.n != other.n:
            raise DimensionError("mixed dimensions %d and %d" % (self.n, other.n))

    def __add__(self, other: "LatVec") -> "LatVec":
        self._check(other)
        return LatVec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "LatVec") -> "LatVec":
        self._check(other)
        return LatVec(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "LatVec":
        return LatVec(-a for a in self.entries)

    def __mul__(self, other) -> "LatVec":
        if isinstance(other, (int, IntPoly)):
            return LatVec(a * other for a in self.entries)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "LatVec":
        return LatVec(a.shift(k) for a in self.entries)

    def exact_div(self, d: int) -> "LatVec":
        return LatVec(a.exact_div(d) for a in self.entries)

    def constant_column(self) -> tuple[int, ...]:
        return tuple(a.coeff(0) for a in self.entries)

    def leading_term(self) -> MonoTerm:
        if self._lt is not None:
            return self._lt
        for i in range(self.n - 1, -1, -1):
            e = self.entries[i]
            if e:
                self._lt = MonoTerm(e.lead, int(e.degree), i + 1)
                return self._lt
        raise ZeroVector("zero vector has no leading term")

    def is_normal(self) -> bool:
        """Positive leading coefficient in the last nonzero coordinate."""
        return bool(self) and self.leading_term().coeff > 0

    def max_degree(self) -> int:
        degs = [int(e.degree) for e in self.entries if e]
        return max(degs) if degs else -1

    def __repr__(self) -> str:
        return "LatVec((%s))" % ", ".join(str(e) for e in self.entries)


def _lt_key(v: LatVec) -> tuple[int, int, int]:
    return v.leading_term().key()


@dataclass(frozen=True)
class Block:
    """One pivot-row block of a generalized Hermite normal form."""

    pivot_row: int  # 1-based
    start: int  # index of the first column of the block
    size: int
    degrees: tuple[int, ...]
    leading_coeffs: tuple[int, ...]


class GhnfBasis:
    """An ordered column set presented as a generalized Hermite normal form.

    The constructor only derives the block structure; use ``verify_ghnf``
    to check the defining conditions, or obtain instances from ``ghnf``
    which always returns the canonical reduced basis.
    """

    __slots__ = ("n", "columns", "blocks", "_pivots")

    def __init__(self, n: int, columns: Sequence[LatVec]):
        self.n = n
        self._pivots = None
        self.columns: tuple[LatVec, ...] = tuple(columns)
        for c in self.columns:
            if c.n != n:
                raise DimensionError("column dimension %d != %d" % (c.n, n))
            if not c:
                raise ZeroVector("zero column in basis")
        blocks = []
        idx = 0
        while idx < len(self.columns):
            row = self.columns[idx].leading_term().row
            j = idx
            degs, lcs = [], []
            while j < len(self.columns) and self.columns[j].leading_term().row == row:
                lt = self.columns[j].leading_term()
                degs.append(lt.deg)
                lcs.append(lt.coeff)
                j += 1
            blocks.append(Block(row, idx, j - idx, tuple(degs), tuple(lcs)))
            idx = j
        self.blocks: tuple[Block, ...] = tuple(blocks)

    @property
    def rank(self) -> int:
        return len(self.blocks)

    def pivot_table(self):
        """The columns' ``_pivot_table``, built on first use and kept."""
        if self._pivots is None:
            self._pivots = _pivot_table(self.columns)
        return self._pivots

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GhnfBasis)
            and self.n == other.n
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.n, self.columns))

    def __repr__(self) -> str:
        return "GhnfBasis(n=%d, columns=[%s])" % (
            self.n,
            "; ".join(repr(c) for c in self.columns),
        )


# ---------------------------------------------------------------------------
# Reduction


def _pivot_table(cols: Sequence[LatVec]) -> dict[int, list]:
    """The columns' pivots, compiled: row (0-based) -> list whose entry d
    is (|lc|, -deg, index) of the column that reduces a coefficient of
    degree d in that row, None below the row's first pivot.

    That column is the applicable one (leading term in the row, degree
    <= d) with the least |lc|, then the greatest degree, then the lowest
    index.  Degrees past the row's last pivot use the last entry.  As
    the applicable set only grows with d, one pass over the row's pivots
    in degree order builds it, in O(columns + largest pivot degree).
    """
    pivots: dict[int, list[tuple[int, int, int]]] = {}
    for idx, g in enumerate(cols):
        lt = g.leading_term()
        pivots.setdefault(lt.row - 1, []).append((lt.deg, abs(lt.coeff), idx))
    table = {}
    for row, plist in pivots.items():
        entries, best = [], None
        for deg, lc, idx in sorted(plist):
            entries += [best] * (deg - len(entries))
            best = min(best or (lc, -deg, idx), (lc, -deg, idx))
        table[row] = entries + [best]
    return table


def _reduce(v: LatVec, cols: Sequence[LatVec], table) -> LatVec:
    """Canonical reduction of v by the columns, whose ``_pivot_table`` is
    ``table``: r = v - (a Z[x]-combination of the columns).

    Every coefficient of r sitting under some column's leading term ends
    up in [0, c) for the column the table names, of least leading
    coefficient c.  r is v itself when v is canonical already.  Rows that
    hold no column's leading term are only updated, so the quotients are
    read off expression rows stacked above v and the columns
    (``grem_track``).
    """
    rows = None  # v's coefficient lists, copied at the first reduction
    for row in range(v.n - 1, -1, -1):
        piv = table.get(row)
        if not piv:
            continue
        cur = v.entries[row].coeffs if rows is None else rows[row]
        last = len(piv) - 1
        for d in range(len(cur) - 1, -1, -1):
            a = cur[d]
            best = piv[d if d < last else last]
            if not a or best is None or 0 <= a < best[0]:
                continue
            lc, ndp, idx = best
            g = cols[idx]
            if g.leading_term().coeff < 0:
                raise AssertionError("reduction requires sign-normalized columns")
            if rows is None:
                rows = [list(e.coeffs) for e in v.entries]
                cur = rows[row]
            q = a // lc
            shift = d + ndp  # d - dp
            for grow in range(row + 1):
                e = g.entries[grow]
                if not e:
                    continue
                target = rows[grow]
                need = len(e.coeffs) + shift
                if len(target) < need:
                    target.extend([0] * (need - len(target)))
                for k, c in enumerate(e.coeffs):
                    if c:
                        target[k + shift] -= q * c
    return v if rows is None else LatVec(IntPoly(cs) for cs in rows)


def _cols_and_table(v: LatVec, basis: "GhnfBasis | Sequence[LatVec]"):
    """The basis columns and their table, a GhnfBasis's own or built."""
    if isinstance(basis, GhnfBasis):
        cols, table = basis.columns, basis.pivot_table()
    else:
        cols = tuple(basis)
        table = _pivot_table(cols)
    if cols and v.n != cols[0].n:
        raise DimensionError("vector dimension %d != %d" % (v.n, cols[0].n))
    return cols, table


def grem(v: LatVec, basis: "GhnfBasis | Sequence[LatVec]") -> LatVec:
    """Canonical normal form of v modulo the basis columns."""
    return _reduce(v, *_cols_and_table(v, basis))


def grem_track(
    v: LatVec, basis: "GhnfBasis | Sequence[LatVec]"
) -> tuple[LatVec, tuple[IntPoly, ...]]:
    """(r, qs): the normal form r = grem(v, basis) and the coefficient of
    each basis column used, v = r + sum(qs[l] * column_l).

    The reduction runs on (0, v) by the stacked columns (e_l, g_l) of
    ``_stacked``, whose pivot table is the basis's own moved down by s, as
    in ``_tracked_extend``; it leaves (-qs, r)."""
    cols, table = _cols_and_table(v, basis)
    s = len(cols)
    r = _reduce(LatVec((IntPoly(),) * s + v.entries), _stacked(cols),
                {row + s: entries for row, entries in table.items()})
    return LatVec(r.entries[s:]), tuple(-q for q in r.entries[:s])


def _is_greduced_lenient(v: LatVec, others: Sequence[LatVec]) -> bool:
    """Paper-style G-reducedness: no monomial is |a| >= |c| under a pivot."""
    lts = [g.leading_term() for g in others]
    return not any(lt.row == row + 1 and lt.deg <= d and abs(a) >= abs(lt.coeff)
                   for row, e in enumerate(v.entries) for d, a in e.monomials() for lt in lts)


def s_vector(f: LatVec, g: LatVec) -> LatVec:
    """The S-polynomial of two vectors; zero when pivot rows differ."""
    if not f or not g:
        raise ZeroVector("S-vector of a zero vector")
    if f.leading_term().row != g.leading_term().row:
        return LatVec.zero(f.n)
    # mf and mg are monomials, one of them a constant: S is a scalar
    # multiple of f minus one of a shift of g, built row by row
    mf, mg = _s_multipliers(f, g)
    df, cf, dg, cg = mf.degree, mf.lead, mg.degree, mg.lead
    rows = []
    for a, b in zip(f.entries, g.entries):
        out = [0] * max(len(a.coeffs) + df, len(b.coeffs) + dg)
        for k, c in enumerate(a.coeffs):
            out[k + df] = cf * c
        for k, c in enumerate(b.coeffs):
            out[k + dg] -= cg * c
        rows.append(IntPoly(out))
    return LatVec(rows)


def _s_multipliers(f: LatVec, g: LatVec) -> tuple[IntPoly, IntPoly]:
    """(mf, mg) with S(f, g) = mf*f - mg*g for f, g with the same pivot row.

    With f the one of larger leading degree k, a its leading coefficient,
    and g's b*x^s: f - (a/b)*x^(k-s)*g when b | a, (b/a)*f - x^(k-s)*g
    when a | b, and u*f + w*x^(k-s)*g from a*u + b*w = gcd(a, b) otherwise.
    """
    ltf, ltg = f.leading_term(), g.leading_term()
    swapped = ltf.deg < ltg.deg
    if swapped:
        f, g = g, f
        ltf, ltg = ltg, ltf
    a, k = ltf.coeff, ltf.deg
    b, s = ltg.coeff, ltg.deg
    if a % b == 0:
        mf, mg = IntPoly.const(1), IntPoly.term(a // b, k - s)
    elif b % a == 0:
        mf, mg = IntPoly.const(b // a), IntPoly.term(1, k - s)
    else:
        _, u, w = ext_gcd(a, b)
        mf, mg = IntPoly.const(u), IntPoly.term(-w, k - s)
    if swapped:
        return -mg, -mf
    return mf, mg


# ---------------------------------------------------------------------------
# Completion


# bench/layertrace.py keys each completion by its inputs' vec and expr
_Input = namedtuple("_Input", ["vec", "expr"], defaults=[None])

# The work a completion may spend before it gives up (see ``_complete``).
_MAX_STEPS = 500000


def _precondition(
    vecs: list[LatVec], cap: int, h: list[list[int]], spent: list[int]
) -> list[list[int]]:
    """Extend the integer HNF of the shifts x^j g to the degree cap.

    Each shift is flattened row-major into Z^(n(cap+1)), so the bottom-most
    pivot of a flattened column is its leading term.  ``h`` holds the
    nonzero HNF columns of the shifts of degree below cap, flattened at
    width cap; it is empty before the first round, which takes every
    shift of degree <= cap afresh.  A zero at the top of each row block
    widens h to width cap + 1 and keeps it in HNF, so a later round only
    adds the new shifts x^(cap - deg g) g, one per input, and eliminates
    them against h.  Returns the nonzero HNF columns at cap, in ascending
    leading-term order; ``spent`` grows by the entries the HNF rewrites.
    """
    n = vecs[0].n
    width = cap + 1
    flat = [[v for r in range(n) for v in col[r * cap : (r + 1) * cap] + [0]] for col in h]
    for g in vecs:
        deg = g.max_degree()
        blocks = [e.coeffs for e in g.entries]
        for j in range(cap - deg if h else 0, cap - deg + 1):
            col = []
            for cs in blocks:
                col.extend((0,) * j + cs + (0,) * (width - j - len(cs)))
            flat.append(col)
    hk, _ = pid_linalg._hnf_int(flat, want_u=False, spent=spent)
    return [c for c in hk if any(c)]


def _minimal_chain(keys: list[tuple[int, int, int]]) -> list[int] | None:
    """Indices of the leading terms that no lower kept one divides.

    ``keys`` come in ascending leading-term order.  Returns None unless,
    in every row, each kept leading coefficient properly divides the one
    kept before it, which a Groebner basis of one variable must satisfy.
    """
    kept: list[int] = []
    for k, (row, _, lc) in enumerate(keys):
        prev = keys[kept[-1]] if kept and keys[kept[-1]][0] == row else None
        if prev is None:
            kept.append(k)
        elif prev[2] % lc == 0:
            if prev[2] != lc:
                kept.append(k)
        elif lc % prev[2]:
            return None
    return kept


def _certified(basis: Sequence[LatVec], table, inputs: Sequence[LatVec], s: int) -> list[LatVec] | None:
    """Buchberger's test past row s: every input and the S-vector of
    every two consecutive columns of a row reduce over the basis to a
    vector that is zero past row s.  Returns the nonzero remainders,
    which live in rows 1..s, or None when the test fails.

    The basis comes in ascending leading-term order, as a chain that
    ``_minimal_chain`` kept, and the pairs it leaves out cannot fail
    (Buchberger's chain criterion).  In one row let the columns have
    leading terms c_1*x^d_1, ..., c_k*x^d_k, with d_i < d_j and c_j | c_i
    for i < j.  The S-syzygy of columns i < j is
    sigma_ij = x^(d_j - d_i)*e_i - (c_i/c_j)*e_j, and for i < m < j
    sigma_ij = x^(d_j - d_m)*sigma_im + (c_i/c_m)*sigma_mj, so the
    consecutive sigma_(i,i+1) generate every sigma_ij, and columns of
    different rows have no leading-term syzygy.  Buchberger's criterion
    over a PID asks only that the S-vectors of a generating set of these
    syzygies reduce to zero (Adams and Loustaunau, ch. 4), here past row
    s.  Lifting the same generating set gives generators of all the
    syzygies (Schreyer, ibid.), so the remainders in rows 1..s, with
    those of the inputs, still generate all the relations (module
    docstring).  ``table`` is the basis's ``_pivot_table``.
    """
    pairs = (s_vector(f, g) for f, g in zip(basis, basis[1:])
             if f.leading_term().row == g.leading_term().row)
    rels = []
    for v in chain(inputs, pairs):
        r = _reduce(v, basis, table)
        if r:
            if any(r.entries[s:]):
                return None
            rels.append(r)
    return rels


def _tail_reduced(basis: list[LatVec], table) -> None:
    """Tail-canonicalize each column by the others, in place; ``table`` is
    the basis's ``_pivot_table``, and stays so.  The canonical form only
    depends on the others' leading terms, which it keeps, so one pass
    leaves every tail reduced.  The leading terms lie in distinct (row,
    degree) places, as in a chain that ``_minimal_chain`` kept, so the
    others' pivots in a column's own row are the table's cut at its
    leading degree: past it the column has no coefficient there."""
    for idx, g in enumerate(basis):
        lt = g.leading_term()
        red = _reduce(g, basis, {**table, lt.row - 1: table[lt.row - 1][: lt.deg]})
        if _lt_key(red) != _lt_key(g):
            raise AssertionError("tail reduction moved a leading term")
        basis[idx] = red


def _reduced_certified(basis: list[LatVec], inputs: Sequence[LatVec], s: int) -> list[LatVec] | None:
    """``_tail_reduced`` on a kept chain, in place, then ``_certified``
    against the inputs, on the chain's one ``_pivot_table``: the step
    that ``_extend`` and ``_complete`` share."""
    table = _pivot_table(basis)
    _tail_reduced(basis, table)
    return _certified(basis, table, inputs, s)


def _complete(inputs: list[_Input]) -> list[LatVec]:
    """The reduced Groebner basis of the inputs' Z[x]-lattice, by linear
    algebra, in ascending leading-term order: ``_extend``'s fallback, on
    its nonzero candidates.

    Round b holds the integer HNF of the shifts of the inputs up to the
    degree cap top + b, where top is the largest input degree.  The first
    round computes it afresh; each later one extends the last HNF by one
    degree (``_precondition``).  A round keeps the columns whose leading
    terms are minimal, tail-canonicalizes them (``_tail_reduced``) and
    certifies the result with ``_certified``.  A round whose leading
    coefficients do not form a divisibility chain, or whose certificate
    fails, moves to the next cap.  A round spends from ``_MAX_STEPS`` its
    rows times its new shifts, one step per tail reduction and one per 20
    entries its HNF rewrites; running out raises RuntimeError.
    """
    vecs = [it.vec for it in inputs]
    n = vecs[0].n
    cap = max(v.max_degree() for v in vecs)
    budget = _MAX_STEPS
    spent = [0]
    h: list[list[int]] = []
    while True:
        cap += 1
        width = cap + 1
        new = len(vecs) if h else sum(cap + 1 - v.max_degree() for v in vecs)
        shape = (n * width, len(h) + new)
        budget -= shape[0] * new
        h = _precondition(vecs, cap, h, spent)
        pivots = [pid_linalg._pivot_row(col) for col in h]
        kept = _minimal_chain([(p // width + 1, p % width, h[k][p]) for k, p in enumerate(pivots)])
        if kept is not None:
            basis = [LatVec(IntPoly(h[k][r * width : (r + 1) * width]) for r in range(n))
                     for k in kept]
            budget -= len(basis)
            if _reduced_certified(basis, vecs, 0) is not None:
                return basis
        if budget < spent[0] // 20:
            raise RuntimeError(
                "completion did not stabilize: degree cap %d, last HNF %dx%d"
                % (cap, shape[0], shape[1])
            )


def _dimension(gens: list[LatVec], n: int | None) -> int:
    """n, defaulting to the first generator's dimension, which every
    generator must have."""
    if n is None:
        n = gens[0].n if gens else 0
    for g in gens:
        if g.n != n:
            raise DimensionError("generator of dimension %d, but n = %d" % (g.n, n))
    return n


def _extend(head: Sequence[LatVec], table, new: Sequence[LatVec], s: int):
    """(cols, completed): the relations, then the GHNF past row s, of the
    lattice of head + new in Z[x]^(s+n), and whether a completion ran:
    the one way to compute a GHNF, which completes only when a
    certificate fails.

    Rows 1..s carry expressions and hold no leading term; past row s the
    head columns are a GHNF, empty when a GHNF is computed from nothing,
    and ``table`` is their ``_pivot_table``.
    A new vector's remainder by them that is zero past row s is a
    relation; the other remainders R, with positive leading coefficients,
    join the head as candidates.  With s = 0 and R empty the head stands;
    with s > 0 the head's own S-vectors still give its relations.  The
    candidates, in leading-term order, keep the leading terms
    ``_minimal_chain`` accepts; these are tail-reduced, which only
    subtracts multiples of the other kept columns and so keeps their
    lattice, and certified with ``_certified`` against the candidates
    that were not kept, which alone need not lie in it.  What the
    certificate leaves in rows 1..s are relations, and with those of the
    new vectors they generate all of them (see the module docstring).  A
    rejected chain or a failed certificate runs ``_complete`` on the
    candidates and the relations, of which there is one at least, as
    s > 0 or R is not empty; its output has the same shape, as the order
    compares rows first, and its relations are their GHNF.
    """
    rems, rels = [], []
    for v in new:
        r = _reduce(v, head, table)
        if r:
            (rems if any(r.entries[s:]) else rels).append(r if r.is_normal() else -r)
    if not rems and not s:
        return head, False
    cands = sorted(list(head) + rems, key=_lt_key)
    kept = _minimal_chain([_lt_key(c) for c in cands])
    if kept is not None:
        cols = [cands[k] for k in kept]
        found = _reduced_certified(cols, [c for k, c in enumerate(cands) if k not in kept], s)
        if found is not None:
            return rels + found + cols, False
    return _complete([_Input(v) for v in cands + rels]), True


def extend(basis: GhnfBasis, new: Sequence[LatVec]) -> GhnfBasis:
    """The GHNF of L(basis) + Z[x]*new, by ``_extend`` with no expression
    rows: a completion runs only when the basis and the new vectors'
    remainders fail to certify.  The basis itself when every new vector
    lies in L(basis)."""
    new = list(new)
    _dimension(new, basis.n)
    cols, _ = _extend(basis.columns, basis.pivot_table(), new, 0)
    return basis if cols is basis.columns else GhnfBasis(basis.n, cols)


def ghnf(gens: Iterable[LatVec], n: int | None = None) -> GhnfBasis:
    """Canonical generalized Hermite normal form of the generated lattice:
    the extension of the empty basis by the generators."""
    gens = list(gens)
    return extend(GhnfBasis(_dimension(gens, n), []), gens)


def ghnf_track(
    gens: Sequence[LatVec], n: int | None = None
) -> tuple[GhnfBasis, tuple[tuple[IntPoly, ...], ...]]:
    """ghnf plus, per output column, its Z[x]-expression over the inputs:
    the tracked extension of the empty basis (``_tracked_extend``)."""
    gens = list(gens)
    return _tracked_extend(GhnfBasis(_dimension(gens, n), []), gens)[:2]


def _stacked(gens: Sequence[LatVec]) -> list[LatVec]:
    """The columns (e_l, g_l) in Z[x]^(s+n), s = len(gens): the unit
    vector e_l in rows 1..s above g_l in rows s+1..s+n."""
    s, zero, one = len(gens), IntPoly(), IntPoly.const(1)
    return [LatVec((zero,) * l + (one,) + (zero,) * (s - l - 1) + g.entries) for l, g in enumerate(gens)]


def _split(cols: Sequence[LatVec], s: int, n: int):
    """(basis, exprs, relations) from the stacked lattice's relations
    followed by its GHNF past row s (``_extend`` of ``_stacked(gens)``).

    The lattice is {(a, sum a_l g_l)}.  Its columns with pivot row past s
    are (expr_k, b_k): the b_k are ghnf(gens), with the same leading terms
    and tails reduced by the same columns, and expr_k is b_k over the g_l.
    The columns with pivot row at most s are (k, 0), and their k generate
    the Z[x]-relations among the g_l; a zero g_l gives the relation e_l.
    """
    k = sum(1 for c in cols if c.leading_term().row <= s)
    return (GhnfBasis(n, [LatVec(c.entries[s:]) for c in cols[k:]]),
            tuple(c.entries[:s] for c in cols[k:]), [LatVec(c.entries[:s]) for c in cols[:k]])


def _tracked_extend(basis: GhnfBasis, new: Sequence[LatVec]):
    """(basis', exprs, relations, completed) for the columns of the basis
    followed by the new vectors, of the same dimension: ``_extend`` of
    the stacked basis columns by the stacked new vectors, which completes
    only when its certificate fails (``_split``).  The relations generate
    the kernel; they are its GHNF when the extension completed.  Rows
    1..s of the stacked columns hold no leading term, so their pivot
    table is the basis's own with every row moved down by s."""
    gens = list(basis.columns) + list(new)
    stacked, r, s = _stacked(gens), len(basis.columns), len(gens)
    table = {row + s: entries for row, entries in basis.pivot_table().items()}
    cols, completed = _extend(stacked[:r], table, stacked[r:], s)
    return _split(cols, s, basis.n) + (completed,)


def verify_ghnf(basis: "GhnfBasis | Sequence[LatVec]") -> tuple[bool, list[str]]:
    """Check the four generalized-Hermite-normal-form conditions.

    Returns (ok, violations).  The G-reducedness condition uses the
    lenient |a| >= |c| reading, so the matrices printed in the source
    material (which keep small negative entries) verify unchanged.  A
    negative leading coefficient is one of the violations returned.
    """
    if not isinstance(basis, GhnfBasis):
        cols = [c for c in basis]
        if not cols:
            return True, []
        try:
            basis = GhnfBasis(cols[0].n, sorted(cols, key=_lt_key))
        except (ZeroVector, DimensionError) as exc:
            return False, [str(exc)]
    problems: list[str] = []
    cols = basis.columns
    keys = [_lt_key(c) for c in cols]
    if keys != sorted(keys):
        problems.append("columns not in ascending order")
    rows = [b.pivot_row for b in basis.blocks]
    if rows != sorted(set(rows)):
        problems.append("pivot rows not strictly increasing")
    # The S-vectors reduce by the columns with each negative leading
    # coefficient negated: that keeps the lattice, and as the pivot rule
    # picks by |lc|, it keeps the remainders as well.
    reducer = basis
    if any(c < 0 for b in basis.blocks for c in b.leading_coeffs):
        reducer = [-c if c.leading_term().coeff < 0 else c for c in cols]
    for b in basis.blocks:
        if list(b.degrees) != sorted(set(b.degrees)):
            problems.append("block row %d: degrees not strictly increasing" % b.pivot_row)
        if any(c <= 0 for c in b.leading_coeffs):
            problems.append("block row %d: non-positive leading coefficient" % b.pivot_row)
        for j in range(b.size - 1):
            hi, lo = b.leading_coeffs[j], b.leading_coeffs[j + 1]
            if lo == 0 or hi % lo:
                problems.append(
                    "block row %d: %d does not divide %d" % (b.pivot_row, lo, hi)
                )
        for j1 in range(b.size):
            for j2 in range(j1 + 1, b.size):
                s = s_vector(cols[b.start + j1], cols[b.start + j2])
                if grem(s, reducer):
                    problems.append(
                        "block row %d: S-vector of columns %d,%d does not reduce"
                        % (b.pivot_row, b.start + j1, b.start + j2)
                    )
    for idx, c in enumerate(cols):
        others = cols[:idx] + cols[idx + 1 :]
        if not _is_greduced_lenient(c, others):
            problems.append("column %d is not G-reduced against the others" % idx)
    return not problems, problems


# ---------------------------------------------------------------------------
# Kernels


def gker(columns: Sequence[LatVec]) -> list[LatVec]:
    """The GHNF of {X in Z[x]^s | M X = 0} for the matrix M with these
    columns, from the relations that the tracked extension of the empty
    basis by the columns finds (``_tracked_extend``).  When that extension
    completed, they are the kernel's GHNF already and come back as they
    are; else their GHNF is taken.  So at most one completion runs."""
    columns = list(columns)
    rels, completed = _tracked_extend(GhnfBasis(_dimension(columns, None), []), columns)[2:]
    if completed:
        return rels
    # ghnf's own body, so that bench/layertrace.py's count of ghnf calls
    # leaves the kernels out
    return list(extend(GhnfBasis(len(columns), []), rels).columns)


# ---------------------------------------------------------------------------
# The sets C_-, C+, and friends


def enumerate_c(basis: GhnfBasis, degree_bound: int) -> tuple[list[LatVec], list[LatVec]]:
    """(C_-, prefix of C_oo with shift exponent <= degree_bound).

    C_- collects, for every block and every non-final column, its shifts
    x^j below the next pivot degree; C_oo adds every shift of the final
    block columns.  Both lists come back ordered by leading term.
    """
    items = []  # (x^k * column, k)
    for b in basis.blocks:
        for j in range(b.size - 1):
            col = basis.columns[b.start + j]
            items.extend((col.shift(k), k) for k in range(b.degrees[j + 1] - b.degrees[j]))
    items.sort(key=lambda t: _lt_key(t[0]))
    c_minus = [v for v, _ in items]
    c_inf = [v for v, k in items if k <= degree_bound]
    for b in basis.blocks:
        last = basis.columns[b.start + b.size - 1]
        c_inf.extend(last.shift(k) for k in range(degree_bound + 1))
    c_inf.sort(key=_lt_key)
    return c_minus, c_inf


# ---------------------------------------------------------------------------
# Queries


def contains(basis: GhnfBasis, v: LatVec) -> bool:
    return not grem(v, basis)


def lattice_equal(a: "GhnfBasis | Iterable[LatVec]", b: "GhnfBasis | Iterable[LatVec]") -> bool:
    """Whether two column sets generate the same lattice (canonical GHNFs equal)."""
    ca = ghnf(a.columns if isinstance(a, GhnfBasis) else a)
    cb = ghnf(b.columns if isinstance(b, GhnfBasis) else b)
    return ca.columns == cb.columns


def member_oracle(gens: Sequence[LatVec], v: LatVec, degree_bound: int) -> bool:
    """Brute-force membership: integer linear algebra over truncated shifts.

    Decides whether v lies in the Z-span of {x^j g | g in gens, j <= bound},
    flattening Z[x]_D^n into Z^(n(D+1)).  Independent of grem; used as an
    oracle in tests.
    """
    gens = [g for g in gens if g]
    if not gens:
        return not v
    n = v.n
    top = max([v.max_degree()] + [g.max_degree() + degree_bound for g in gens])
    width = top + 1

    def flatten(w: LatVec) -> list[int]:
        out = []
        for e in w.entries:
            out.extend(e.coeff(k) for k in range(width))
        return out

    columns = [flatten(g.shift(j)) for g in gens for j in range(degree_bound + 1)]
    return pid_linalg.int_lattice_contains(columns, flatten(v))

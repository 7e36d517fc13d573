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
must reduce to zero, next to the S-vectors, for Buchberger's test to
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
S-vector syzygies of a strong Groebner basis over a PID generate its
syzygies (Adams and Loustaunau, ch. 4), but they need not form the
kernel's GHNF.  A fallback completion gives more: as rows are compared
first, its output holds the GHNF of the relations followed by the GHNF
of the g_l, each column above its expression (the elimination trick,
ch. 3; a GHNF is a strong Groebner basis over Z, so it applies).  So
``gker``, the GHNF of the relations, runs at most one completion.

Two reduction conventions coexist on purpose:

* the canonical reduction used by ``grem`` and the completion replaces a
  coefficient by its remainder in [0, c) whenever a column with leading
  term c*x^beta in the same row and beta <= alpha exists.  This makes the
  reduced basis unique per lattice and ``ghnf`` deterministic;
* the membership-style reducibility test used by ``verify_ghnf`` only
  flags a monomial when |a| >= |c|, which is the weakest reading of
  "multiple of the leading term" and accepts bases whose small negative
  coefficients were left alone.

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

    __slots__ = ("n", "columns", "blocks")

    def __init__(self, n: int, columns: Sequence[LatVec]):
        self.n = n
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


def _pivot_table(cols: Sequence[LatVec]):
    """row (0-based) -> list of (deg, lc, index) for the columns' leading terms."""
    table: dict[int, list[tuple[int, int, int]]] = {}
    for idx, g in enumerate(cols):
        lt = g.leading_term()
        table.setdefault(lt.row - 1, []).append((lt.deg, abs(lt.coeff), idx))
    return table


def _is_canonical(v: LatVec, table) -> bool:
    """Whether no coefficient of v sits outside [0, c) under a pivot."""
    for row, e in enumerate(v.entries):
        plist = table.get(row)
        if not plist:
            continue
        for d, a in e.monomials():
            best = None
            for dp, lc, _ in plist:
                if dp <= d and (best is None or lc < best):
                    best = lc
            if best is not None and not 0 <= a < best:
                return False
    return True

def _reduce(v: LatVec, cols: Sequence[LatVec], track: bool):
    """Canonical reduction of v by the columns.

    Returns (r, qs) with v = r + sum(qs[i] * cols[i]).  Every coefficient
    of r sitting under some column's leading term ends up in [0, c) for
    the smallest applicable leading coefficient c.  qs is None unless
    track is set.
    """
    n = v.n
    table = _pivot_table(cols)
    if _is_canonical(v, table):
        return v, (tuple(IntPoly() for _ in cols) if track else None)
    rows = [list(e.coeffs) for e in v.entries]
    # coefficient lists of the quotients: d only falls, so each column's
    # first term has its largest shift and no shift repeats
    qs = [[] for _ in cols] if track else None

    for row in range(n - 1, -1, -1):
        plist = table.get(row)
        if not plist:
            continue
        d = len(rows[row]) - 1
        while d >= 0:
            a = rows[row][d] if d < len(rows[row]) else 0
            if a:
                applicable = [(lc, -dp, idx) for (dp, lc, idx) in plist if dp <= d]
                if applicable:
                    lc, ndp, idx = min(applicable)
                    if not 0 <= a < lc:
                        if cols[idx].leading_term().coeff < 0:
                            raise AssertionError("reduction requires sign-normalized columns")
                        q = a // lc
                        shift = d + ndp  # d - dp
                        g = cols[idx]
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
                        if track:
                            if not qs[idx]:
                                qs[idx] = [0] * (shift + 1)
                            qs[idx][shift] = q
            d -= 1
    r = LatVec(IntPoly(cs) for cs in rows)
    return r, (tuple(IntPoly(c) for c in qs) if track else None)


def grem(v: LatVec, basis: "GhnfBasis | Sequence[LatVec]") -> LatVec:
    """Canonical normal form of v modulo the basis columns."""
    cols = basis.columns if isinstance(basis, GhnfBasis) else tuple(basis)
    if cols and v.n != cols[0].n:
        raise DimensionError("vector dimension %d != %d" % (v.n, cols[0].n))
    r, _ = _reduce(v, cols, track=False)
    return r


def grem_track(
    v: LatVec, basis: "GhnfBasis | Sequence[LatVec]"
) -> tuple[LatVec, tuple[IntPoly, ...]]:
    """Normal form plus the coefficient of each basis column used."""
    cols = basis.columns if isinstance(basis, GhnfBasis) else tuple(basis)
    if cols and v.n != cols[0].n:
        raise DimensionError("vector dimension %d != %d" % (v.n, cols[0].n))
    return _reduce(v, cols, track=True)


def _is_greduced_lenient(v: LatVec, others: Sequence[LatVec]) -> bool:
    """Paper-style G-reducedness: no monomial is |a| >= |c| under a pivot."""
    table = _pivot_table(others)
    for row, e in enumerate(v.entries):
        plist = table.get(row)
        if not plist:
            continue
        for d, a in e.monomials():
            for dp, lc, _ in plist:
                if dp <= d and abs(a) >= lc:
                    return False
    return True


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


def _certified(basis: Sequence[LatVec], inputs: Sequence[LatVec], s: int) -> list[LatVec] | None:
    """Buchberger's test past row s: every input and every same-row
    S-vector reduces over the basis to a vector that is zero past row s.
    Returns the nonzero remainders, which live in rows 1..s, or None when
    the test fails."""
    pairs = (s_vector(f, g) for i, f in enumerate(basis) for g in basis[i + 1 :]
             if f.leading_term().row == g.leading_term().row)
    rels = []
    for v in chain(inputs, pairs):
        r = _reduce(v, basis, False)[0]
        if r:
            if any(r.entries[s:]):
                return None
            rels.append(r)
    return rels


def _tail_reduced(basis: list[LatVec]) -> list[LatVec]:
    """Tail-canonicalize each column by the others, in place.  The
    canonical form only depends on the others' leading terms, so one
    pass leaves every tail reduced."""
    for idx in range(len(basis)):
        red, _ = _reduce(basis[idx], basis[:idx] + basis[idx + 1 :], False)
        if _lt_key(red) != _lt_key(basis[idx]):
            raise AssertionError("tail reduction moved a leading term")
        basis[idx] = red
    return basis


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
            basis = _tail_reduced([LatVec(IntPoly(h[k][r * width : (r + 1) * width])
                                          for r in range(n)) for k in kept])
            budget -= len(basis)
            if _certified(basis, vecs, 0) is not None:
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
    if any(g.n != n for g in gens):
        raise DimensionError("mixed dimensions in generators")
    return n


def _extend(head: Sequence[LatVec], new: Sequence[LatVec], s: int) -> Sequence[LatVec]:
    """The relations, then the GHNF past row s, of the lattice of head +
    new in Z[x]^(s+n): the one way to compute a GHNF, which completes only
    when a certificate fails.

    Rows 1..s carry expressions and hold no leading term; past row s the
    head columns are a GHNF, empty when a GHNF is computed from nothing.
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
        r = _reduce(v, head, False)[0]
        if r:
            (rems if any(r.entries[s:]) else rels).append(r if r.is_normal() else -r)
    if not rems and not s:
        return head
    cands = sorted(list(head) + rems, key=_lt_key)
    kept = _minimal_chain([_lt_key(c) for c in cands])
    if kept is not None:
        cols = _tail_reduced([cands[k] for k in kept])
        found = _certified(cols, [c for k, c in enumerate(cands) if k not in kept], s)
        if found is not None:
            return rels + found + cols
    return _complete([_Input(v) for v in cands + rels])


def extend(basis: GhnfBasis, new: Sequence[LatVec]) -> GhnfBasis:
    """The GHNF of L(basis) + Z[x]*new, by ``_extend`` with no expression
    rows: a completion runs only when the basis and the new vectors'
    remainders fail to certify.  The basis itself when every new vector
    lies in L(basis)."""
    new = list(new)
    _dimension(new, basis.n)
    cols = _extend(basis.columns, new, 0)
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
    return [LatVec(LatVec.unit(len(gens), l).entries + g.entries) for l, g in enumerate(gens)]


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
    """(basis', exprs, relations) for the columns of the basis followed by
    the new vectors, of the same dimension: ``_extend`` of the stacked
    basis columns by the stacked new vectors, which completes only when
    its certificate fails (``_split``).  The relations generate the
    kernel; they are its GHNF when the extension completed."""
    gens = list(basis.columns) + list(new)
    stacked, r = _stacked(gens), len(basis.columns)
    return _split(_extend(stacked[:r], stacked[r:], len(gens)), len(gens), basis.n)


def verify_ghnf(basis: "GhnfBasis | Sequence[LatVec]") -> tuple[bool, list[str]]:
    """Check the four generalized-Hermite-normal-form conditions.

    Returns (ok, violations).  The G-reducedness condition uses the
    lenient |a| >= |c| reading, so the matrices printed in the source
    material (which keep small negative entries) verify unchanged.
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
                if grem(s, basis):
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
    columns: the GHNF of the relations that the tracked extension of the
    empty basis by the columns finds (``_tracked_extend``).  When that
    extension completes, its relations already are the kernel's GHNF and
    certify, so at most one completion runs."""
    columns = list(columns)
    rels = _tracked_extend(GhnfBasis(_dimension(columns, None), []), columns)[2]
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

"""Z[x]^n vectors, Groebner reduction, and generalized Hermite normal forms.

The monomial order on Z[x]^n compares row first, then degree, then the
absolute value of the coefficient.  The output basis of ``ghnf`` is the
canonical reduced Groebner basis of the lattice (block-structured, the
"generalized Hermite normal form").  It is computed by linear algebra
over Z: the integer HNF of the generators' shifts x^j*g up to a degree
cap, flattened row-major so that a column's HNF pivot is its leading
term, contains the basis once the cap is large enough.  The columns with
minimal leading terms are tail-reduced and then certified by
Buchberger's criterion (every input and every same-row S-vector reduces
to zero); a failed certificate doubles the cap's margin and retries.

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

from dataclasses import dataclass
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
    "leading_term",
    "grem",
    "grem_track",
    "s_vector",
    "ghnf",
    "ghnf_track",
    "verify_ghnf",
    "syzygy_basis",
    "gker",
    "kernel_from_track",
    "enumerate_c",
    "rank",
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

    def coeff(self, row: int, deg: int) -> int:
        return self.entries[row].coeff(deg)

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


def leading_term(v: LatVec) -> MonoTerm:
    return v.leading_term()


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

    def __len__(self) -> int:
        return len(self.columns)

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
    qs = [IntPoly() for _ in cols] if track else None

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
                            qs[idx] = qs[idx] + IntPoly.term(q, shift)
            d -= 1
    r = LatVec(IntPoly(cs) for cs in rows)
    return r, (tuple(qs) if track else None)


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
    ltf, ltg = f.leading_term(), g.leading_term()
    if ltf.row != ltg.row:
        return LatVec.zero(f.n)
    if ltf.deg < ltg.deg:
        f, g = g, f
        ltf, ltg = ltg, ltf
    a, k = ltf.coeff, ltf.deg
    b, s = ltg.coeff, ltg.deg
    if a % b == 0:
        return f - (a // b) * g.shift(k - s)
    if b % a == 0:
        return (b // a) * f - g.shift(k - s)
    _, u, w = ext_gcd(a, b)
    return u * f + w * g.shift(k - s)


def _s_multipliers(f: LatVec, g: LatVec) -> tuple[IntPoly, IntPoly]:
    """(mf, mg) with S(f, g) = mf*f - mg*g, mirroring s_vector's case split."""
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


class _Tracked:
    __slots__ = ("vec", "expr", "key")

    def __init__(self, vec: LatVec, expr: tuple[IntPoly, ...] | None):
        self.vec = vec
        self.expr = expr
        self.key = _lt_key(vec) if vec else None


def _reduce_tracked(item: _Tracked, basis: list[_Tracked], track: bool) -> _Tracked:
    r, qs = _reduce(item.vec, [b.vec for b in basis], track)
    expr = item.expr
    if track and expr is not None:
        expr = list(expr)
        for q, b in zip(qs, basis):
            if q:
                for l in range(len(expr)):
                    if b.expr[l]:
                        expr[l] = expr[l] - q * b.expr[l]
        expr = tuple(expr)
    return _Tracked(r, expr)


def _precondition(items: list[_Tracked], n: int, cap: int, track: bool) -> list[_Tracked]:
    """The integer HNF of every shift x^j g of degree <= cap.

    Each shift is flattened row-major into Z^(n(cap+1)), so the bottom-most
    pivot of a flattened column is its leading term.  Returns the nonzero
    HNF columns in ascending leading-term order, with their expressions
    over the inputs read from the HNF transform when ``track`` is set.
    """
    width = cap + 1
    flat = []
    origin = []
    for idx, it in enumerate(items):
        blocks = [e.coeffs for e in it.vec.entries]
        for j in range(cap - it.vec.max_degree() + 1):
            col = []
            for cs in blocks:
                col.extend((0,) * j + cs + (0,) * (width - j - len(cs)))
            flat.append(col)
            origin.append((idx, j))
    h, u = pid_linalg._hnf_int(flat, want_u=track)
    out = []
    for k in range(len(h)):
        if not any(h[k]):
            continue
        entries = [IntPoly(h[k][r * width : (r + 1) * width]) for r in range(n)]
        expr = None
        if track:
            s = len(items[0].expr)
            expr = [IntPoly() for _ in range(s)]
            for pos, coeff in enumerate(u[k]):
                if coeff:
                    idx, j = origin[pos]
                    mult = IntPoly.term(coeff, j)
                    for l in range(s):
                        if items[idx].expr[l]:
                            expr[l] = expr[l] + mult * items[idx].expr[l]
            expr = tuple(expr)
        out.append(_Tracked(LatVec(entries), expr))
    return out


def _minimal_chain(cols: list[_Tracked]) -> list[_Tracked] | None:
    """Drop the columns whose leading term a lower kept one divides.

    ``cols`` come in ascending leading-term order.  Returns None unless,
    in every row, each kept leading coefficient properly divides the one
    kept before it, which a Groebner basis of one variable must satisfy.
    """
    kept: list[_Tracked] = []
    for it in cols:
        row, _, lc = it.key
        prev = kept[-1].key if kept and kept[-1].key[0] == row else None
        if prev is None:
            kept.append(it)
        elif prev[2] % lc == 0:
            if prev[2] != lc:
                kept.append(it)
        elif lc % prev[2]:
            return None
    return kept


def _certified(basis: list[_Tracked], inputs: list[_Tracked]) -> bool:
    """Whether basis generates the inputs' lattice and passes Buchberger's test."""
    vecs = [it.vec for it in basis]
    if any(_reduce(it.vec, vecs, track=False)[0] for it in inputs):
        return False
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            if basis[a].key[0] == basis[b].key[0]:
                if _reduce(s_vector(vecs[a], vecs[b]), vecs, track=False)[0]:
                    return False
    return True


def _complete(inputs: list[_Tracked], track: bool, max_steps: int = 500000) -> list[_Tracked]:
    """The reduced Groebner basis of the inputs' Z[x]-lattice, by linear algebra.

    Each round takes the integer HNF of the shifts of the inputs up to the
    degree cap W = top + b, where top is the largest input degree and b
    starts at 1 (``_precondition``).  It keeps the columns whose
    leading terms are minimal, tail-canonicalizes them with ``_reduce``
    and certifies the result: every input and every same-row S-vector
    must reduce to zero.  A round whose leading coefficients do not form
    a divisibility chain, or whose certificate fails, doubles b.  HNF
    cells and reductions spend from ``max_steps``; running out raises
    RuntimeError.
    """
    items = [it for it in inputs if it.vec]
    if not items:
        return []
    n = items[0].vec.n
    top = max(it.vec.max_degree() for it in items)
    budget = max_steps
    b = 1
    while True:
        cap = top + b
        shape = (n * (cap + 1), sum(cap - it.vec.max_degree() + 1 for it in items))
        budget -= shape[0] * shape[1]
        cols = _precondition(items, n, cap, track)
        basis = _minimal_chain(cols)
        if basis is not None:
            # canonical form only depends on the others' leading terms,
            # so one pass leaves every tail reduced
            for idx in range(len(basis)):
                budget -= 1
                red = _reduce_tracked(basis[idx], basis[:idx] + basis[idx + 1 :], track)
                if red.key != basis[idx].key:
                    raise AssertionError("tail reduction moved a leading term")
                basis[idx] = red
            if _certified(basis, items):
                return basis
        if budget < 0:
            raise RuntimeError(
                "completion did not stabilize: degree cap %d, last HNF %dx%d"
                % (cap, shape[0], shape[1])
            )
        b *= 2


def ghnf(gens: Iterable[LatVec], n: int | None = None) -> GhnfBasis:
    """Canonical generalized Hermite normal form of the generated lattice."""
    gens = list(gens)
    if n is None:
        n = gens[0].n if gens else 0
    for g in gens:
        if g.n != n:
            raise DimensionError("mixed dimensions in generators")
    items = [_Tracked(g, None) for g in gens if g]
    basis = _complete(items, track=False)
    return GhnfBasis(n, [it.vec for it in basis])


def ghnf_track(
    gens: Sequence[LatVec], n: int | None = None
) -> tuple[GhnfBasis, tuple[tuple[IntPoly, ...], ...]]:
    """ghnf plus, per output column, its Z[x]-expression over the inputs."""
    gens = list(gens)
    if n is None:
        n = gens[0].n if gens else 0
    s = len(gens)
    items = []
    for l, g in enumerate(gens):
        if g.n != n:
            raise DimensionError("mixed dimensions in generators")
        if g:
            expr = tuple(IntPoly.const(1) if i == l else IntPoly() for i in range(s))
            items.append(_Tracked(g, expr))
    basis = _complete(items, track=True)
    return (
        GhnfBasis(n, [it.vec for it in basis]),
        tuple(it.expr for it in basis),
    )


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
# Syzygies and kernels


def syzygy_basis(basis: GhnfBasis) -> list[LatVec]:
    """Schreyer generators of ker(F) for the GHNF columns F, in Z[x]^s."""
    cols = basis.columns
    s = len(cols)
    out = []
    for i in range(s):
        for j in range(i + 1, s):
            if cols[i].leading_term().row != cols[j].leading_term().row:
                continue
            mf, mg = _s_multipliers(cols[i], cols[j])
            svec = s_vector(cols[i], cols[j])
            r, qs = grem_track(svec, basis)
            if r:
                raise AssertionError("S-vector of a GHNF must reduce to zero")
            coords = list(qs)
            coords[i] = coords[i] - mf
            coords[j] = coords[j] + mg
            syz = LatVec([-c for c in coords])
            if syz:
                out.append(syz)
    return out


def kernel_from_track(
    gens: Sequence[LatVec],
    basis: GhnfBasis,
    exprs: Sequence[tuple[IntPoly, ...]],
) -> list[LatVec]:
    """Generators of the Z[x]-relations among nonzero gens, in Z[x]^len(gens).

    ``basis, exprs`` is ``ghnf_track(gens)``.  The Schreyer syzygies of
    the GHNF are lifted through the expressions and joined with the
    relation expressing each generator over the GHNF.  Zero relations
    are dropped; duplicates are not.
    """
    s = len(gens)
    out: list[LatVec] = []
    for syz in syzygy_basis(basis):
        lifted = [IntPoly()] * s
        for k, q in enumerate(syz.entries):
            if q:
                for l in range(s):
                    lifted[l] = lifted[l] + q * exprs[k][l]
        v = LatVec(lifted)
        if v:
            out.append(v)
    for pos in range(s):
        r, qs = grem_track(gens[pos], basis)
        if r:
            raise AssertionError("generator does not reduce to zero in its own lattice")
        rel = [IntPoly()] * s
        rel[pos] = IntPoly.const(1)
        for k, q in enumerate(qs):
            if q:
                for l in range(s):
                    rel[l] = rel[l] - q * exprs[k][l]
        v = LatVec(rel)
        if v:
            out.append(v)
    return out


def gker(columns: Sequence[LatVec]) -> list[LatVec]:
    """Generators of {X in Z[x]^s | M X = 0} for the matrix with these columns.

    Zero columns give unit vectors; the rest comes from one tracked
    completion of the nonzero columns through ``kernel_from_track``.
    """
    columns = list(columns)
    s = len(columns)
    nonzero = [l for l, c in enumerate(columns) if c]
    out: list[LatVec] = [LatVec.unit(s, l) for l, c in enumerate(columns) if not c]
    if not nonzero:
        return out
    sub = [columns[l] for l in nonzero]
    basis, exprs = ghnf_track(sub)
    for rel in kernel_from_track(sub, basis, exprs):
        full = [IntPoly()] * s
        for pos, l in enumerate(nonzero):
            full[l] = rel.entries[pos]
        out.append(LatVec(full))
    # drop exact duplicates, keep deterministic order
    seen = set()
    uniq = []
    for v in out:
        key = v.entries
        if key not in seen:
            seen.add(key)
            uniq.append(v)
    return uniq


# ---------------------------------------------------------------------------
# The sets C_-, C+, and friends


def enumerate_c(basis: GhnfBasis, degree_bound: int) -> tuple[list[LatVec], list[LatVec]]:
    """(C_-, prefix of C_oo with shift exponent <= degree_bound).

    C_- collects, for every block and every non-final column, its shifts
    x^j below the next pivot degree; C_oo adds every shift of the final
    block columns.  Both lists come back ordered by leading term.
    """
    items = _c_minus_items(basis)
    c_minus = [basis.columns[i].shift(k) for i, k in items]
    c_inf = [v for v, (_, k) in zip(c_minus, items) if k <= degree_bound]
    for b in basis.blocks:
        last = basis.columns[b.start + b.size - 1]
        c_inf.extend(last.shift(k) for k in range(degree_bound + 1))
    c_inf.sort(key=_lt_key)
    return c_minus, c_inf


def _c_minus_items(basis: GhnfBasis) -> list[tuple[int, int]]:
    """(column index, shift) pairs generating C_- in leading-term order."""
    items = []
    for b in basis.blocks:
        for j in range(b.size - 1):
            gap = b.degrees[j + 1] - b.degrees[j]
            for k in range(gap):
                items.append((b.start + j, k))
    items.sort(key=lambda t: _lt_key(basis.columns[t[0]].shift(t[1])))
    return items


# ---------------------------------------------------------------------------
# Queries


def rank(basis: GhnfBasis) -> int:
    return basis.rank


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

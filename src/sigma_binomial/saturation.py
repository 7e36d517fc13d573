"""x-, Z-, M-, and P-saturation of Z[x]-lattices.

Each kind has a witness function whose list is empty iff the lattice is
saturated of that kind: ``xfactor`` finds h with x*h in the lattice from
the integer kernel of the constant terms, ``zfactor`` finds h with m*h
in the lattice by working over Z_m[x], and ``mfactor`` returns the
(x - eps)*g outside the lattice for the Z-saturation columns g, with
eps from ``SigmaConfig.eps``.  The x- and Z-saturations loop, extending
the GHNF by the witnesses of their kind (``extend``) until there are
none; each witness lies in every saturated lattice containing the
current one.  The Z loop runs no round when the blocks' pivot rows are
1, ..., k and each block starts at degree 0 (``_saturate``).  The full
saturation is the Z loop after sat_x, M-saturation takes one round, and
P-saturation one after sat_x.  The M step needs no multipliers: it
shifts every column of sat_Z(L) by x - eps (``m_shift``).  ``sat_z``
reads each column's least multiplier into the input off the input's
GHNF (``_multiplier``).

``zfactor`` never factors more than trial division allows.  Every prime
p with p*h in the lattice for some h outside it divides q, the product
of the contents of the blocks' first columns' pivot-row entries
(``torsion_bound``), which divides the product of the blocks' first
leading coefficients.  The primes below 1000 are tested one by one over
Z_p[x], then the cofactor r of q over Z_r[x], whether r is prime or
not.  Over Z_m[x], ZFactor reads the kernel of all the columns mod m off
one HNF; each kernel vector e gives a candidate h = (sum e_l *
column_l) / m.  This kernel finds all m-torsion (see
``_zfactor_prime``), which Example 7.5, step 3.4, finds in three steps
from the blocks' last columns and C_-.  A composite m is treated as a
prime and split where a leading coefficient is not a unit (the D5
principle of Della Dora, Dicrescenzo and Duval, EUROCAL 1985).

Witnesses carry exact linear certificates: every SatWitnessX satisfies
x*h = sum(e_l * column_l) with integer e, every SatWitnessZ satisfies
k*h = sum(e_l * column_l) with e over Z[x] and k either a prime or a
composite with no prime factor below 1000.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from . import pid_linalg
from .constants import SigmaConfig
from .polyzx import IntPoly, ModPoly, NonUnit, _trial_divide
from .zx_lattice import GhnfBasis, LatVec, extend, ghnf, grem

__all__ = [
    "SatWitnessX",
    "SatWitnessZ",
    "TrackedBasis",
    "xfactor",
    "sat_x",
    "zfactor",
    "sat_z",
    "mfactor",
    "sat_m",
    "sat_p",
    "sat_full",
    "is_saturated",
]


@dataclass(frozen=True)
class SatWitnessX:
    """h outside the lattice with x*h = sum(e_l * column_l) inside it."""

    h: LatVec
    e: tuple[int, ...]


@dataclass(frozen=True)
class SatWitnessZ:
    """h outside the lattice with k*h = sum(e_l * column_l) inside it.

    k is a prime, or a composite with no prime factor below 1000 whose
    prime factors were never computed.
    """

    h: LatVec
    k: int
    e: tuple[IntPoly, ...]


@dataclass(frozen=True)
class TrackedBasis:
    """A GHNF with, per column, the least multiplier m >= 1 with
    m*column in the original input lattice."""

    basis: GhnfBasis
    multipliers: tuple[int, ...]


def xfactor(basis: GhnfBasis) -> list[SatWitnessX]:
    """Witnesses against x-saturation; empty iff the lattice is x-saturated."""
    cols = basis.columns
    out = []
    for e in pid_linalg.ker_int([c.constant_column() for c in cols]):
        v = LatVec.zero(basis.n)
        for coeff, col in zip(e, cols):
            if coeff:
                v = v + coeff * col
        h = v.shift(-1)
        if grem(h, basis):
            out.append(SatWitnessX(h, tuple(e)))
    return out


def sat_x(gens, n: int | None = None) -> GhnfBasis:
    """The x-saturation: extend the GHNF by the XFactor witnesses
    (``extend``) until there are none."""
    return _saturate(gens, n, "x")


def _zfactor_prime(basis: GhnfBasis, m: int) -> list[SatWitnessZ]:
    """The ZFactor witnesses for a modulus m > 1, from one HNF B = F*T over
    Z_m[x] of all the columns F mod m.

    Each zero column of B makes the matching column of T, lifted to e
    over Z[x], a kernel vector of F; then v = sum(e_l * column_l) is 0
    mod m, and h = v/m is kept when it lies outside L.

    The list is empty iff L has no m-torsion.  Suppose m*h in L with h
    outside L, and write m*h = sum(e_l * column_l).  Then e mod m lies in
    the kernel K of F.  T is invertible and the pivots of B are monic, so
    the pivot columns of B are independent and K is spanned by the
    columns t_i of T at the zero columns of B, and
    e = sum(c_i * lift(t_i)) + m*w with c_i, w over Z[x].  Each
    v_i = sum(lift(t_i)_l * column_l) is m*h_i, and since Z[x]^n has no
    torsion, h = sum(c_i * h_i) + sum(w_l * column_l).  As h is outside
    L, so is some h_i.

    Both facts hold over Z_m[x] for a composite m too, unless the HNF
    meets a leading coefficient a that is not a unit.  Then g = gcd(a, m)
    splits m, and the witnesses are those of g, else those of m/g: if
    m*h lies in L with h outside L, either g*h lies in L, or g*h does not
    and (m/g)*(g*h) does.

    Example 7.5, step 3.4, takes the kernel of the blocks' last columns
    only, then reduces C_- mod p and looks for Z_p-relations among the
    residues.  The kernel of all the columns covers both steps at once.
    """
    cols = basis.columns
    try:
        b, t = pid_linalg.hnf_modpoly([[ModPoly(m, a.coeffs) for a in c.entries] for c in cols], m)
    except NonUnit as split:
        return _zfactor_prime(basis, split.factor) or _zfactor_prime(basis, m // split.factor)
    out = []
    for bk, tk in zip(b, t):
        if any(bk):
            continue
        e = tuple(c.lift() for c in tk)
        h = sum((c * col for c, col in zip(e, cols) if c), LatVec.zero(basis.n)).exact_div(m)
        if grem(h, basis):
            out.append(SatWitnessZ(h, m, e))
    return out


def torsion_bound(basis: GhnfBasis) -> int:
    """q, the product of the a_i: q*h lies in L for every h in sat_Z(L).
    a_i is the content of the pivot-row entry of block i's first column,
    so q divides the product of the blocks' first leading coefficients.

    By induction on the top row i of h.  Let f_i be the primitive
    generator of the row-i entries of L's vectors with top row i, over
    Q[x], with lc(f_i) > 0; the first column g of block i has the least
    degree among them, so its row-i entry is a multiple of f_i of the
    same degree, and by Gauss's lemma it is a_i*f_i, with
    c_i = a_i*lc(f_i) the block's first leading coefficient.  Some b*h
    lies in L, so the row-i entry of h lies in f_i*Q[x], hence in
    f_i*Z[x] by Gauss's lemma, say u*f_i.  Then a_i*h - u*g lies in
    sat_Z(L) and is zero from row i upward, so the product of the lower
    blocks' a_j times it lies in L.  As u*g lies in L, the product of the
    a_j, j <= i, times h does too.  A row with no block has no entries of
    L with top row there, so h has none either.
    """
    return prod(gcd(*basis.columns[b.start].entries[b.pivot_row - 1].coeffs) for b in basis.blocks)


def zfactor(basis: GhnfBasis) -> list[SatWitnessZ]:
    """Witnesses against Z-saturation; empty iff the lattice is Z-saturated.

    Only divisors of q = ``torsion_bound(basis)`` matter, as q kills all
    torsion.  The primes below 1000 dividing q are tried in ascending
    order, then the cofactor r over Z_r[x], prime or not, without
    factoring it.  The witnesses of the first that yields any are
    returned; the rest wait for the next round.
    """
    small, r = _trial_divide(torsion_bound(basis))
    for m in small + ([r] if r > 1 else []):
        wits = _zfactor_prime(basis, m)
        if wits:
            return wits
    return []


def _multiplier(g: LatVec, basis: GhnfBasis) -> int:
    """The least m >= 1 with m*g in L, for g in sat_Z(L).

    While r = grem(m*g, L) is not 0, with leading term c*x^d in row i, m
    grows by c_L/gcd(c, c_L), c_L the leading coefficient of L's block-i
    column of largest degree <= d, the least applicable one.  By
    induction m divides the least multiplier D = m*k, so
    k*r = D*g - k*(m*g - r) lies in L.  A GHNF is a strong Groebner basis
    over Z (Kandri-Rody and Kapur, JSC 1988) whose blocks' leading
    coefficients form divisibility chains, so c_L divides k*c, and
    c_L/gcd(c, c_L) divides k.  As 0 < c < c_L, each factor is > 1, and
    m divides D, which divides ``torsion_bound(L)``, so the loop ends
    within log2 of that bound steps, without factoring.  The bound is
    the product of the contents a_i, not of the blocks' first leading
    coefficients, so it is sharper where the f_i are not monic.
    """
    m = 1
    while r := grem(m * g, basis):
        lt = r.leading_term()
        c_l = min(lc for b in basis.blocks if b.pivot_row == lt.row
                  for d, lc in zip(b.degrees, b.leading_coeffs) if d <= lt.deg)
        m *= c_l // gcd(lt.coeff, c_l)
    return m


def sat_z(gens, n: int | None = None) -> TrackedBasis:
    """The Z-saturation with each column's least multiplier into the
    input lattice (``_multiplier``)."""
    basis = gens if isinstance(gens, GhnfBasis) else ghnf(gens, n)
    sat = _saturate(basis, None, "z")
    return TrackedBasis(sat, tuple(_multiplier(g, basis) for g in sat.columns))


def m_shift(sigma: SigmaConfig) -> IntPoly:
    """x - eps, with eps from ``SigmaConfig.eps``.

    The paper's M step multiplies each column g with m*g in L by x - o_m.
    As o_m = eps mod m, (x - o_m)*g and (x - eps)*g differ by a multiple
    of m*g, which lies in L, so one shift serves every column.
    """
    return IntPoly((-sigma.eps, 1))


def mfactor(basis: GhnfBasis, sigma: SigmaConfig) -> list[LatVec]:
    """Witnesses against M-saturation: the (x - eps)*g outside L for the
    columns g of sat_Z(L) (``m_shift``); empty iff L is M-saturated.
    Under conj, (x + 1)*g replaces the paper's (x - m + 1)*g; the lattice
    adjoined is the same."""
    shift, cols = m_shift(sigma), _saturate(basis, None, "z").columns
    return [h for h in (shift * g for g in cols) if grem(h, basis)]


def _witnesses(basis: GhnfBasis, kind: str, sigma: SigmaConfig | None) -> list[LatVec]:
    """The witness vectors of one kind: x, z or m."""
    if kind == "x":
        return [w.h for w in xfactor(basis)]
    if kind == "z":
        return [w.h for w in zfactor(basis)]
    return mfactor(basis, sigma)


def _saturate(gens, n: int | None, kind: str):
    """The least lattice containing gens with no witnesses of this kind,
    from rounds that extend the GHNF by the witnesses (``extend``).

    The Z loop needs no witness round when the blocks' pivot rows are
    exactly 1, ..., k and every block's first degree is 0.  Then L lies
    in Z[x]^k x 0, which is Z-saturated, as no vector of L has its top
    row past k.  Each f_i of ``torsion_bound`` has degree 0, so f_i = 1,
    and block i's first column g_i is a_i*e_i plus entries in rows below
    i.  By induction on i, d_i*e_i lies in L, d_i = a_1*...*a_i:
    d_(i-1)*g_i less the multiples of the d_j*e_j, j < i, that clear its
    rows below i is d_i*e_i.  So sat_Z(L) = Z[x]^k x 0, whose GHNF is
    e_1, ..., e_k.  Both conditions are needed: sat_Z((2x - 4)) is
    (x - 2), and (x, 2) in Z[x]^2, with its block in row 2, is
    Z-saturated.
    """
    basis = gens if isinstance(gens, GhnfBasis) else ghnf(gens, n)
    if kind == "z" and all(b.pivot_row == i and b.degrees[0] == 0
                           for i, b in enumerate(basis.blocks, 1)):
        return GhnfBasis(basis.n, [LatVec.unit(basis.n, i) for i in range(len(basis.blocks))])
    while hs := _witnesses(basis, kind, None):
        basis = extend(basis, hs)
    return basis


def sat_m(gens, sigma: SigmaConfig, n: int | None = None) -> GhnfBasis:
    """The M-saturation in one round, extending the GHNF by the witnesses
    W (``extend``): they lie in sat_Z(L), so L + W has the same sat_Z,
    whose (x - eps)*g all lie in L + W."""
    basis = gens if isinstance(gens, GhnfBasis) else ghnf(gens, n)
    return extend(basis, mfactor(basis, sigma))


def sat_p(gens, sigma: SigmaConfig, n: int | None = None) -> GhnfBasis:
    """The P-saturation, sat_m(sat_x(L)), each extending the GHNF by the
    witnesses (``extend``): for L x-saturated, L' = sat_m(L) stays so.
    If x*h lies in L', h lies in sat_Z(L), x-saturated as L is, and
    x*h = eps*h mod L', so h lies in L'."""
    return sat_m(sat_x(gens, n), sigma)


def sat_full(gens, n: int | None = None) -> GhnfBasis:
    """The full saturation {f | a x^k f in L}, sat_Z(sat_x(L)).  If L is
    x-saturated, so is sat_Z(L): if x*h lies in sat_Z(L), x*(a*h) lies in
    L for some a >= 1, so a*h lies in L, and h in sat_Z(L)."""
    return _saturate(sat_x(gens, n), None, "z")


def is_saturated(basis: GhnfBasis, kind: str, sigma: SigmaConfig | None = None) -> bool:
    """Decide x-/Z-/M-/P-saturation of a lattice given by a GHNF.

    A lattice is saturated of a kind exactly when it has no witnesses of
    that kind; P-saturated means both x- and M-saturated.  Kinds m and p
    need sigma, because eps depends on it.
    """
    kinds = {"x": "x", "z": "z", "m": "m", "p": "xm"}.get(kind)
    if kinds is None:
        raise ValueError("unknown saturation kind %r" % kind)
    if "m" in kinds and sigma is None:
        raise ValueError("M-saturation needs a sigma configuration")
    return not any(_witnesses(basis, k, sigma) for k in kinds)

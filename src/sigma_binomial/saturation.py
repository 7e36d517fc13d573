"""x-, Z-, M-, and P-saturation of Z[x]-lattices.

Each kind has a witness function whose list is empty iff the lattice is
saturated of that kind: ``xfactor`` finds h with x*h in the lattice from
the integer kernel of the constant terms, ``zfactor`` finds h with p*h
in the lattice for a prime p by working over Z_p[x], and ``mfactor``
returns (x - o_m)*g for the Z-saturation columns g with multiplier
m != 1.  Each saturation is one loop that adjoins the witnesses of the
first kind that has any until none has (P: x and M; full: x and Z).
Every witness lies in every saturated lattice containing the current
one, so the order of adjoining does not change the result.  ``sat_z``
keeps its own loop, because it also tracks per-column multipliers into
the input lattice.

Witnesses carry exact linear certificates: every SatWitnessX satisfies
x*h = sum(e_l * column_l) with integer e, every SatWitnessZ satisfies
k*h = sum(e_l * column_l) with e over Z[x] and k a prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import pid_linalg
from .constants import SigmaConfig, o_m
from .polyzx import IntPoly, ModPoly, mod_reduce, prime_factors
from .zx_lattice import (
    GhnfBasis,
    LatVec,
    _c_minus_items,
    ghnf,
    ghnf_track,
    grem,
)

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
    """h outside the lattice with k*h = sum(e_l * column_l) inside it."""

    h: LatVec
    k: int
    e: tuple[IntPoly, ...]


@dataclass(frozen=True)
class TrackedBasis:
    """A GHNF with, per column, a multiplier m with m*column in the
    original input lattice."""

    basis: GhnfBasis
    multipliers: tuple[int, ...]


def xfactor(basis: GhnfBasis) -> list[SatWitnessX]:
    """Witnesses against x-saturation; empty iff the lattice is x-saturated."""
    cols = basis.columns
    if not cols:
        return []
    f = pid_linalg.IntMat.from_columns([c.constant_column() for c in cols])
    out = []
    for e in pid_linalg.ker_int(f):
        v = LatVec.zero(basis.n)
        for coeff, col in zip(e, cols):
            if coeff:
                v = v + coeff * col
        if not v:
            continue
        h = v.shift(-1)
        if grem(h, basis):
            out.append(SatWitnessX(h, tuple(e)))
    return out


def sat_x(gens, n: int | None = None) -> GhnfBasis:
    """The x-saturation: adjoin XFactor witnesses until there are none."""
    return _saturate(gens, n, "x")


def _block_end_indices(basis: GhnfBasis) -> list[int]:
    return [b.start + b.size - 1 for b in basis.blocks]


def _vec_mod(v: LatVec, p: int) -> tuple[ModPoly, ...]:
    return tuple(mod_reduce(e, p) for e in v.entries)


def _lift_combination(
    basis: GhnfBasis, parts: list[tuple[int, IntPoly]]
) -> tuple[LatVec, tuple[IntPoly, ...]]:
    """Exact integer vector and expression for sum(coeff * x^0 * column)."""
    v = LatVec.zero(basis.n)
    e = [IntPoly() for _ in basis.columns]
    for idx, coeff in parts:
        if coeff:
            v = v + coeff * basis.columns[idx]
            e[idx] = e[idx] + coeff
    return v, tuple(e)


def _zfactor_prime(basis: GhnfBasis, p: int) -> list[SatWitnessZ]:
    cols = basis.columns
    ends = _block_end_indices(basis)
    fmat = pid_linalg.ModPolyMat.from_columns(
        p, [_vec_mod(cols[i], p) for i in ends]
    )
    kernel = pid_linalg.ker_modpoly(fmat)
    out = []
    if kernel:
        for gvec in kernel:
            v, e = _lift_combination(
                basis, [(ends[k], gvec[k].lift()) for k in range(len(ends))]
            )
            h = v.exact_div(p)
            if grem(h, basis):
                out.append(SatWitnessZ(h, p, e))
        return out

    # the block-end columns are independent mod p; reduce C_- against
    # their Hermite normal form and look for Z_p-relations of the residues
    bmat, tmat = pid_linalg.hnf_modpoly(fmat)
    # lifted versions of the HNF columns as exact combinations of ends
    lifted_b: list[tuple[LatVec, tuple[IntPoly, ...]]] = []
    for k in range(len(ends)):
        parts = [(ends[j], tmat.columns[k][j].lift()) for j in range(len(ends))]
        lifted_b.append(_lift_combination(basis, parts))

    residues = []
    zero_residues = []
    for col_idx, shift in _c_minus_items(basis):
        f = cols[col_idx].shift(shift)
        e_f = [IntPoly() for _ in cols]
        e_f[col_idx] = IntPoly.term(1, shift)
        fmod = list(_vec_mod(f, p))
        f_exact, e_exact = f, list(e_f)
        # reduce against the HNF columns, bottom row first
        for k in range(len(ends) - 1, -1, -1):
            bk = bmat.columns[k]
            prow = pid_linalg._pivot_row_mod(bk)
            if prow < 0 or not fmod[prow]:
                continue
            q, _ = divmod(fmod[prow], bk[prow])
            if q:
                for r in range(basis.n):
                    fmod[r] = fmod[r] - q * bk[r]
                ql = q.lift()
                f_exact = f_exact - LatVec(ql * ent for ent in lifted_b[k][0].entries)
                for l in range(len(cols)):
                    if lifted_b[k][1][l]:
                        e_exact[l] = e_exact[l] - ql * lifted_b[k][1][l]
        if any(fmod):
            residues.append((tuple(fmod), f_exact, tuple(e_exact)))
        else:
            zero_residues.append((f_exact, tuple(e_exact)))

    if zero_residues:
        for f_exact, e_exact in zero_residues:
            h = f_exact.exact_div(p)
            if grem(h, basis):
                out.append(SatWitnessZ(h, p, e_exact))
        if out:
            return out

    if residues:
        emat = pid_linalg.ModPolyMat.from_columns(p, [r[0] for r in residues])
        for bvec in pid_linalg.scalar_kernel(emat):
            v = LatVec.zero(basis.n)
            e = [IntPoly() for _ in cols]
            for coeff, (_, f_exact, e_exact) in zip(bvec, residues):
                if coeff:
                    v = v + coeff * f_exact
                    for l in range(len(cols)):
                        if e_exact[l]:
                            e[l] = e[l] + coeff * e_exact[l]
            h = v.exact_div(p)
            if grem(h, basis):
                out.append(SatWitnessZ(h, p, tuple(e)))
    return out


def zfactor(basis: GhnfBasis) -> list[SatWitnessZ]:
    """Witnesses against Z-saturation; empty iff the lattice is Z-saturated.

    Only prime factors of the product of the blocks' first leading
    coefficients matter; the witnesses of the first prime that yields
    any are returned and the remaining primes wait for the next round.
    """
    if not basis.columns:
        return []
    q = 1
    for b in basis.blocks:
        q *= b.leading_coeffs[0]
    if q == 1:
        return []
    for p in prime_factors(q):
        wits = _zfactor_prime(basis, p)
        if wits:
            return wits
    return []


def sat_z(gens, n: int | None = None) -> TrackedBasis:
    """The Z-saturation with per-column multipliers into the input lattice."""
    if isinstance(gens, GhnfBasis):
        current = list(gens.columns)
        n = gens.n
    else:
        current = [g for g in gens if g]
        if n is None:
            n = current[0].n if current else 0
    mult = [1] * len(current)
    while True:
        basis, exprs = ghnf_track(current, n)
        basis_mult = []
        for expr in exprs:
            contributing = [mult[l] for l in range(len(current)) if expr[l]]
            basis_mult.append(lcm(*contributing) if contributing else 1)
        wits = zfactor(basis)
        if not wits:
            return TrackedBasis(basis, tuple(basis_mult))
        current = list(basis.columns)
        mult = basis_mult
        for w in wits:
            contributing = [basis_mult[l] for l in range(len(basis.columns)) if w.e[l]]
            current.append(w.h)
            mult.append(w.k * (lcm(*contributing) if contributing else 1))


def _m_shifts(basis: GhnfBasis, sigma: SigmaConfig):
    """(g, m, x - o_m) for each sat_Z column g whose multiplier m is not 1."""
    tracked = sat_z(basis)
    return [
        (g, m, IntPoly((-o_m(m, sigma), 1)))
        for g, m in zip(tracked.basis.columns, tracked.multipliers)
        if m != 1
    ]


def mfactor(basis: GhnfBasis, sigma: SigmaConfig) -> list[LatVec]:
    """Witnesses against M-saturation: the (x - o_m)*g outside the lattice,
    for the sat_Z columns g with multiplier m != 1.  Empty iff the
    lattice is M-saturated."""
    shifted = (shift * g for g, _, shift in _m_shifts(basis, sigma))
    return [h for h in shifted if grem(h, basis)]


def _witnesses(basis: GhnfBasis, kinds: str, sigma: SigmaConfig | None) -> list[LatVec]:
    """The witness vectors of the first of these kinds that has any."""
    for kind in kinds:
        if kind == "x":
            hs = [w.h for w in xfactor(basis)]
        elif kind == "z":
            hs = [w.h for w in zfactor(basis)]
        else:
            hs = mfactor(basis, sigma)
        if hs:
            return hs
    return []


def _saturate(gens, n: int | None, kinds: str, sigma: SigmaConfig | None = None):
    """The least lattice containing gens with no witnesses of these kinds."""
    basis = gens if isinstance(gens, GhnfBasis) else ghnf(gens, n)
    while hs := _witnesses(basis, kinds, sigma):
        basis = ghnf(list(basis.columns) + hs, basis.n)
    return basis


def sat_m(gens, sigma: SigmaConfig, n: int | None = None) -> GhnfBasis:
    """The M-saturation: adjoin MFactor witnesses until there are none."""
    return _saturate(gens, n, "m", sigma)


def sat_p(gens, sigma: SigmaConfig, n: int | None = None) -> GhnfBasis:
    """The P-saturation: least lattice that is both x- and M-saturated."""
    return _saturate(gens, n, "xm", sigma)


def sat_full(gens, n: int | None = None) -> GhnfBasis:
    """The full saturation {f | a x^k f in L}: least lattice that is both
    x- and Z-saturated."""
    return _saturate(gens, n, "xz")


def is_saturated(basis: GhnfBasis, kind: str, sigma: SigmaConfig | None = None) -> bool:
    """Decide x-/Z-/M-/P-saturation of a lattice given by a GHNF.

    A lattice is saturated of a kind exactly when it has no witnesses of
    that kind; P-saturated means both x- and M-saturated.  Kinds m and p
    need sigma, because o_m depends on it.
    """
    kinds = {"x": "x", "z": "z", "m": "m", "p": "xm"}.get(kind)
    if kinds is None:
        raise ValueError("unknown saturation kind %r" % kind)
    if "m" in kinds and sigma is None:
        raise ValueError("M-saturation needs a sigma configuration")
    return not _witnesses(basis, kinds, sigma)

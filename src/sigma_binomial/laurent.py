"""Laurent binomial difference ideals presented by partial characters.

A proper ideal is stored as its support lattice (a canonical GHNF) with
one constant per basis column; the generators Y^g_i - d_i then form a
regular coherent chain.  All pseudo-remainder arithmetic happens on
supports with constant tracking, so ideal elements are never expanded
into polynomials.

Every character is grown the same way, by adjoining binomials to one
already known (``_adjoin``): ``make_character`` starts from the empty
character, and the reflexive rounds and the well-mixed round start from
the character they hold.  The supports extend its GHNF
(``zx_lattice._tracked_extend``), which gives each new column's
expression and relations that generate the kernel, and runs a
completion only when its certificate fails.  ``_adjoin`` tests the
relations on the constants; each round of ``dec_laurent`` extends its
basis by one witness and solves the relations for the roots they accept
(``_proper_roots``), so it builds only proper children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .constants import FieldConst, SigmaConfig, principal_root
from .polyzx import IntPoly
from .zx_lattice import DimensionError, GhnfBasis, LatVec, _dimension, _tracked_extend, grem_track
from . import saturation

__all__ = [
    "NotABinomial",
    "NotReflexivePrime",
    "UNIT",
    "UnitIdeal",
    "LaurentBinomial",
    "PartialCharacter",
    "is_unit",
    "normalize_binomial",
    "make_character",
    "member",
    "prem_binomial",
    "is_prime",
    "is_reflexive",
    "is_wellmixed",
    "is_perfect",
    "reflexive_closure",
    "wellmixed_closure",
    "perfect_closure",
    "dec_laurent",
    "dimension",
]


class NotABinomial(ValueError):
    """Raised when two terms collapse to fewer than two monomials."""


class NotReflexivePrime(ValueError):
    """Raised when an operation needs a reflexive prime ideal."""


class UnitIdeal:
    """Marker for the unit ideal [1]."""

    def __repr__(self):
        return "UNIT"


UNIT = UnitIdeal()

# Proper children dec_laurent may build in one round; at the last round
# they are the components.  The criterion-9 Laurent family needs at most
# 27 under either automorphism (trial 101, whose decomposition has 27
# components), and the larger family of the decomposition-oracle tests
# at most 3 (seed 21, trial 12, 3 components); the bound refuses the
# k-th roots of a large k.
_MAX_ROOT_CHOICES = 4096


def is_unit(result) -> bool:
    return isinstance(result, UnitIdeal)


@dataclass(frozen=True)
class LaurentBinomial:
    """A normal-form Laurent binomial Y^support - constant.

    The support is normal (positive leading coefficient in its last
    nonzero coordinate) or zero; a zero support encodes the constant
    binomial 1 - c, which is only proper when c = 1.
    """

    support: LatVec
    constant: FieldConst

    def __str__(self) -> str:
        from .textio import laurent_binomial_to_str

        return laurent_binomial_to_str(self)


def normalize_binomial(
    a_coeff: FieldConst, a_exp: LatVec, b_coeff: FieldConst, b_exp: LatVec
) -> LaurentBinomial:
    """Normal form of a*Y^a_exp + b*Y^b_exp."""
    if a_exp.n != b_exp.n:
        raise DimensionError("mixed dimensions in binomial terms")
    diff = a_exp - b_exp if b_exp else a_exp
    if not diff:
        raise NotABinomial("the two terms share one monomial")
    if diff.is_normal():
        return LaurentBinomial(diff, (b_coeff / a_coeff) * FieldConst.root_of_unity(2))
    return LaurentBinomial(-diff, (a_coeff / b_coeff) * FieldConst.root_of_unity(2))


class PartialCharacter:
    """A proper Laurent binomial ideal: lattice basis plus constants.

    The ambient dimension is ``basis.n``; ``sigma`` acts on the constants
    as ``SigmaConfig.eps`` says."""

    __slots__ = ("sigma", "basis", "constants")

    def __init__(self, sigma: SigmaConfig, basis: GhnfBasis, constants: tuple[FieldConst, ...]):
        if not isinstance(sigma, SigmaConfig):
            raise TypeError("sigma must be a SigmaConfig, not %r" % (sigma,))
        if len(constants) != len(basis.columns):
            raise ValueError("one constant per basis column required")
        self.sigma = sigma
        self.basis = basis
        self.constants = constants

    @property
    def binomials(self) -> tuple[LaurentBinomial, ...]:
        return tuple(
            LaurentBinomial(g, d) for g, d in zip(self.basis.columns, self.constants)
        )

    def value(self, v: LatVec) -> FieldConst | None:
        """rho(v) when v lies in the support lattice, else None."""
        r, qs = grem_track(v, self.basis)
        if r:
            return None
        return _apply(qs, self.constants, self.sigma)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialCharacter)
            and self.sigma == other.sigma
            and self.basis == other.basis
            and self.constants == other.constants
        )

    def __hash__(self) -> int:
        return hash((self.sigma, self.basis, self.constants))

    def __repr__(self) -> str:
        return "PartialCharacter(%s)" % "; ".join(str(b) for b in self.binomials)


def _apply(exponents, consts, sigma: SigmaConfig) -> FieldConst:
    """prod consts[l]^exponents[l], with Z[x]-exponents acting through
    sigma as in ``pow_zx``: radicals to q(1), turns to q(eps)
    (``SigmaConfig.eps``).  In one pass, the exponents of each prime and
    the turn add up over all factors, and one FieldConst is built."""
    eps = sigma.eps
    radical, turn = {}, Fraction(0)
    for q, c in zip(exponents, consts):
        if q:
            e1 = q(1)
            for p, e in c.factors:
                radical[p] = radical.get(p, 0) + e * e1
            if c.turn:
                turn += c.turn * q(eps)
    return FieldConst._normal(tuple(sorted((p, e) for p, e in radical.items() if e)), turn % 1)


def _with_constants(part, consts, sigma: SigmaConfig) -> PartialCharacter:
    """The character with these constants on the supports of
    ``part = _tracked_extend(basis, new)``, (basis, exprs, relations,
    completed), when the constants send every relation to 1 (``_adjoin``
    and ``_proper_roots`` check that).  The constant of basis column k is
    the constants to expr_k, the same for every expression of the column.
    """
    basis, exprs, _, _ = part
    return PartialCharacter(sigma, basis, tuple(_apply(e, consts, sigma) for e in exprs))


def make_character(binomials, sigma: SigmaConfig, n: int | None = None):
    """Present [binomials] by a partial character, or UNIT if improper.

    The ideal is proper exactly when every Z[x]-relation of the supports
    sends the constants to 1.  The supports, stacked under unit vectors,
    extend the empty character (``_adjoin``): that gives their GHNF, each
    column's expression over the supports, and relations that generate
    all of them, with no completion when the certificate of
    ``zx_lattice._extend`` holds, as it does when the supports have
    distinct leading rows.  Properness is tested on the relations, and
    the constants go through the expressions (``_with_constants``).
    """
    binomials = list(binomials)
    if n is None and not binomials:
        raise ValueError("ambient dimension required for an empty system")
    n = _dimension([b.support for b in binomials], n)
    return _adjoin(PartialCharacter(sigma, GhnfBasis(n, []), ()), binomials)


def _adjoin(rho: PartialCharacter, binomials):
    """rho with the binomials adjoined, or UNIT: ``_tracked_extend`` of
    rho's basis by their supports, then, on rho's constants followed by
    theirs, the test of the relations and ``_with_constants``.

    The extension's relations generate the kernel.  As ``pow_zx`` is
    Z[x]-linear in the exponent, every relation among the supports sends
    the constants to 1 exactly when each generator does; a zero support's
    relation is e_l, so its constant must be 1.
    """
    part = _tracked_extend(rho.basis, [b.support for b in binomials])
    consts = rho.constants + tuple(b.constant for b in binomials)
    if any(not _apply(r.entries, consts, rho.sigma).is_one() for r in part[2]):
        return UNIT
    return _with_constants(part, consts, rho.sigma)


def member(b: LaurentBinomial, rho: PartialCharacter) -> bool:
    """Y^f - c lies in the ideal iff f is in the lattice and c = rho(f)."""
    value = rho.value(b.support)
    return value is not None and value == b.constant


def prem_binomial(b: LaurentBinomial, rho: PartialCharacter) -> LaurentBinomial:
    """Pseudo-remainder of a binomial against the character's chain.

    The support reduces by grem; the constant divides out the chain
    constants raised to the same cofactors.
    """
    r, qs = grem_track(b.support, rho.basis)
    return LaurentBinomial(r, b.constant / _apply(qs, rho.constants, rho.sigma))


def is_prime(rho: PartialCharacter) -> bool:
    """I(rho) is prime iff its support lattice is Z-saturated."""
    return saturation.is_saturated(rho.basis, "z")


def is_reflexive(rho: PartialCharacter) -> bool:
    """I(rho) is reflexive iff its support lattice is x-saturated."""
    return saturation.is_saturated(rho.basis, "x")


def is_wellmixed(rho: PartialCharacter) -> bool:
    """Every binomial forced by well-mixedness is already a member.

    M-saturation of the support follows: a member's support lies in the
    lattice.
    """
    return not _wellmixed_forced(rho)


def is_perfect(rho: PartialCharacter) -> bool:
    """Reflexive and well-mixed: then no step of the perfect closure
    adjoins anything, so it returns rho."""
    return is_reflexive(rho) and is_wellmixed(rho)


def _reflexive_forced(rho: PartialCharacter):
    """sigma^{-1}-preimages of the XFactor witnesses: binomials in every
    reflexive ideal containing I(rho), with supports outside its lattice.
    The exponents e_l*x apply sigma, which is sigma^(-1) as sigma^2 = id
    (``SigmaConfig.eps``)."""
    return [
        LaurentBinomial(w.h, _apply([IntPoly.term(k, 1) for k in w.e], rho.constants, rho.sigma))
        for w in saturation.xfactor(rho.basis)
    ]


def _wellmixed_forced(rho: PartialCharacter):
    """The binomials forced into any well-mixed ideal containing I(rho)
    that are not members: for each column g of sat_Z(L) with least
    multiplier m > 1 (``saturation.sat_z``), support (x - eps) g with
    constant a^(x - eps), a the principal m-th root of rho(m g), and
    x - eps from ``saturation.m_shift`` (eps is ``SigmaConfig.eps``).

    The paper's binomial, with support (x - o_m) g and constant
    a^(x - o_m), differs from this one by a member: (o_m - eps) g is a
    multiple of m g, as o_m = eps mod m.  Another m-th root is a times a
    root of unity zeta of order dividing m, and zeta^(x - eps) = 1, so
    the root choice is irrelevant too.
    """
    shift = saturation.m_shift(rho.sigma)
    sat = saturation.sat_z(rho.basis)
    forced = []
    for g, m in zip(sat.basis.columns, sat.multipliers):
        if m == 1:
            continue
        value = rho.value(m * g)
        if value is None:
            raise AssertionError("multiplier violated")
        b = LaurentBinomial(shift * g, _apply((shift,), (principal_root(value, m),), rho.sigma))
        if not member(b, rho):
            forced.append(b)
    return forced


def reflexive_closure(binomials, sigma: SigmaConfig, n: int | None = None):
    """Reflexive closure: adjoin sigma^{-1}-preimages of XFactor witnesses
    until there are none; UNIT as soon as the ideal is improper."""
    rho = make_character(binomials, sigma, n)
    while not is_unit(rho) and (forced := _reflexive_forced(rho)):
        rho = _adjoin(rho, forced)
    return rho


def _wellmixed_round(rho):
    """rho with its well-mixed forced binomials adjoined once, or UNIT.

    Over the result rho', of lattice L' = L + (x - eps) sat_Z(L), nothing
    is forced.  sat_Z(L') = sat_Z(L), and for each of its columns g the
    least multiplier m' over L' divides m over L, as m g lies in L'.  So
    the principal roots have a'^m = rho'(m g) = rho(m g) = a^m, a' = a zeta
    with zeta^m = 1, and zeta^(x - eps) = 1: each binomial forced over L'
    is one that rho held or the round adjoined.  If L is x-saturated, so
    is L' (``saturation.sat_p``).
    """
    if is_unit(rho) or not (forced := _wellmixed_forced(rho)):
        return rho
    return _adjoin(rho, forced)


def wellmixed_closure(binomials, sigma: SigmaConfig, n: int | None = None):
    """Well-mixed closure: one well-mixed round (``_wellmixed_round``)."""
    return _wellmixed_round(make_character(binomials, sigma, n))


def perfect_closure(binomials, sigma: SigmaConfig, n: int | None = None):
    """Perfect closure, the least reflexive and well-mixed ideal: one
    well-mixed round on the reflexive closure (``_wellmixed_round``)."""
    return _wellmixed_round(reflexive_closure(binomials, sigma, n))


def _proper_roots(relations, rho: PartialCharacter, w: saturation.SatWitnessZ):
    """(a, u0, s) for a ZFactor witness w = (h, k, e), a the principal
    k-th root of rho(k h) and s | k: rho's constants followed by
    a*zeta_k^u send every relation to 1 exactly when u = u0 mod s; None
    when no u does.

    ``_apply`` raises turns to q(eps) and zeta_k has no radical part, so
    relation r sends them to v_r * zeta_k^(u*b_r), v_r its value at u = 0
    and b_r = r_last(eps).  That is 1 exactly when v_r has no radical
    part, t_r = k*turn(v_r) is an integer and t_r + u*b_r = 0 mod k.  The
    solutions of the congruences met so far are u0 + sZ; on u = u0 + s*j,
    the next one reads b_r*s*j = c mod k, c = -(t_r + u0*b_r).  With
    g = gcd(b_r*s, k), it is solvable exactly when g | c, by
    j = (c/g) * (b_r*s/g)^(-1) mod k/g, and then s grows to s*k/g, which
    divides k as s does.
    """
    k, sigma = w.k, rho.sigma
    u0, s = 0, 1
    consts = rho.constants + (principal_root(_apply(w.e, rho.constants, sigma), k),)
    for r in relations:
        v, b = _apply(r.entries, consts, sigma), r.entries[-1](sigma.eps)
        c, g = -(v.turn * k + u0 * b), math.gcd(b * s, k)
        if v.factors or c.denominator != 1 or c.numerator % g:
            return None
        u0, s = u0 + s * (c.numerator // g) * pow(b * s // g, -1, k // g), s * k // g
    return consts[-1], u0 % s, s


def dec_laurent(binomials, sigma: SigmaConfig, n: int | None = None) -> list[PartialCharacter]:
    """Decompose the perfect closure into reflexive prime characters.

    Empty output means the perfect closure is the unit ideal.  The
    components are the characters of sat_Z(L) that extend the reflexive
    closure rho, of lattice L; each round adjoins one ZFactor witness
    (h, k, e), with a k-th root of rho(k h) as the constant of support h.

    The branch tree is walked round by round, starting from the
    reflexive closure.  Branches differ only in their constants: every
    character of a round has the same basis, hence the same witnesses,
    and every child the same supports.  So ``zfactor`` and the extension
    of the basis by h (``_tracked_extend``) run once per round, with no
    completion unless its certificate fails.  Only the proper children
    are built: with a the principal root, the roots a*zeta_k^u that every
    relation of the extension accepts form one coset of u
    (``_proper_roots``), and each child takes its constants through the
    expressions (``_with_constants``).  A child restricts to its parent
    and takes its own root on h, so no two children are equal.

    A round with more than ``_MAX_ROOT_CHOICES`` proper children raises
    RuntimeError before any is built: a witness order k can be a large
    prime or an unfactored composite.  At the last round the count is the
    number of components.
    """
    start = reflexive_closure(binomials, sigma, n)
    level = [] if is_unit(start) else [start]
    while level and (wits := saturation.zfactor(level[0].basis)):
        w = wits[0]
        part = _tracked_extend(level[0].basis, [w.h])
        nodes = [(rho.constants,) + c for rho in level if (c := _proper_roots(part[2], rho, w))]
        choices = sum(w.k // s for *_, s in nodes)
        if choices > _MAX_ROOT_CHOICES:
            raise RuntimeError(
                "decomposition budget exhausted: %d proper root choices in one round, more than %d"
                % (choices, _MAX_ROOT_CHOICES)
            )
        level = [_with_constants(part, consts + (a * FieldConst.root_of_unity(w.k, u),), sigma)
                 for consts, a, u0, s in nodes for u in range(u0, w.k, s)]
    # every character of the last round has the same basis: sort by constants
    return sorted(level, key=lambda rho: [str(d) for d in rho.constants])


def dimension(rho: PartialCharacter) -> int:
    """Difference dimension n - rank for a reflexive prime character."""
    if not (is_reflexive(rho) and is_prime(rho)):
        raise NotReflexivePrime("dimension needs a reflexive prime ideal")
    return rho.basis.n - rho.basis.rank

"""Non-Laurent binomial difference ideals and their decomposition.

A plain binomial Y^{f+} - c Y^{f-} corresponds to the Laurent binomial
Y^{f+ - f-} - c; monomials are carried as plain binomials with an empty
minus side and no constant.  DecMono strips monomials by branching over
which of their variables vanishes; DecBinomial combines that with the
Laurent decomposition of the monomial-free part.  A component is its
zeroed variables, its nonzero variables and the partial character of
the remaining ones; its chain is read off the character.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import FieldConst, SigmaConfig
from .polyzx import IntPoly
from .zx_lattice import LatVec, _dimension
from .laurent import (
    LaurentBinomial,
    NotABinomial,
    PartialCharacter,
    dec_laurent,
    make_character,
    member,
    normalize_binomial,
)

__all__ = [
    "PlainBinomial",
    "MonoTriple",
    "Component",
    "to_plain",
    "to_laurent",
    "dec_mono",
    "dec_binomial",
    "member_sat",
]


@dataclass(frozen=True)
class PlainBinomial:
    """Y^{fplus} - constant * Y^{fminus}; constant None marks a monomial.

    fplus and fminus have N[x] entries and share no monomial (they are
    the positive and negative parts of one normal vector).
    """

    fplus: LatVec
    fminus: LatVec
    constant: FieldConst | None

    @property
    def is_monomial(self) -> bool:
        return self.constant is None

    def variables(self) -> frozenset[int]:
        return frozenset(
            i
            for i in range(self.fplus.n)
            if self.fplus.entries[i] or self.fminus.entries[i]
        )

    def __str__(self) -> str:
        from .textio import plain_binomial_to_str

        return plain_binomial_to_str(self)


@dataclass(frozen=True)
class MonoTriple:
    """Worklist state of DecMono: zeroed variables, items, excluded variables."""

    zero_vars: frozenset[int]
    items: tuple[PlainBinomial, ...]
    nonzero_vars: frozenset[int]


@dataclass(frozen=True)
class Component:
    """Zeroed variables, nonzero variables and a partial character: the
    ideal is the coordinate ideal of the zeroed variables plus the
    character's, the saturation ideal of its chain.  The chain is read
    off the character, in plain form."""

    zero_vars: frozenset[int]
    nonzero_vars: frozenset[int]
    character: PartialCharacter

    @property
    def chain(self) -> tuple[PlainBinomial, ...]:
        return tuple(to_plain(b) for b in self.character.binomials)


def _split_parts(v: LatVec) -> tuple[LatVec, LatVec]:
    plus = []
    minus = []
    for e in v.entries:
        plus.append(IntPoly(max(c, 0) for c in e.coeffs))
        minus.append(IntPoly(max(-c, 0) for c in e.coeffs))
    return LatVec(plus), LatVec(minus)


def to_plain(b: LaurentBinomial) -> PlainBinomial:
    """Positive/negative split of the support, coefficient by coefficient."""
    plus, minus = _split_parts(b.support)
    return PlainBinomial(plus, minus, b.constant)


def to_laurent(b: PlainBinomial) -> LaurentBinomial:
    if b.is_monomial:
        raise NotABinomial("a monomial has no Laurent binomial form")
    support = b.fplus - b.fminus
    if not support:
        raise NotABinomial("the two sides share every monomial")
    if not support.is_normal():
        raise ValueError("plain binomial sides are not in canonical order")
    return LaurentBinomial(support, b.constant)


def _touches(v: LatVec, zeros: frozenset[int]) -> bool:
    return any(bool(v.entries[i]) for i in zeros)


def _substitute_zero(
    items, zeros: frozenset[int]
) -> tuple[PlainBinomial, ...] | None:
    """Set the given variables to zero; None when a branch dies.

    A side touching a zeroed variable vanishes.  A binomial losing one
    side degenerates to the monomial of the surviving side; losing both
    sides drops it; a surviving side with empty support means a nonzero
    constant equals zero, which kills the branch.
    """
    out = []
    for b in items:
        plus_dead = _touches(b.fplus, zeros)
        minus_dead = False if b.is_monomial else _touches(b.fminus, zeros)
        if b.is_monomial:
            if not plus_dead:
                out.append(b)
            continue
        if plus_dead and minus_dead:
            continue
        if not plus_dead and not minus_dead:
            out.append(b)
            continue
        survivor = b.fminus if plus_dead else b.fplus
        if not survivor:
            return None
        out.append(PlainBinomial(survivor, LatVec.zero(survivor.n), None))
    return tuple(out)


def dec_mono(triple: MonoTriple) -> list[MonoTriple]:
    """Split off the monomials of a system by zeroing one variable at a time.

    Every output triple is monomial-free and already zero-substituted;
    branches whose monomial only involves excluded variables disappear.
    """
    out: list[MonoTriple] = []
    work = [triple]
    while work:
        cur = work.pop()
        items = _substitute_zero(cur.items, cur.zero_vars)
        if items is None:
            continue
        monos = [b for b in items if b.is_monomial]
        if not monos:
            out.append(MonoTriple(cur.zero_vars, items, cur.nonzero_vars))
            continue
        m = monos[0]
        rest = tuple(b for b in items if b is not m)
        candidates = sorted(m.variables() - cur.nonzero_vars)
        for i, var in enumerate(candidates):
            work.append(
                MonoTriple(
                    cur.zero_vars | {var},
                    rest,
                    cur.nonzero_vars | set(candidates[:i]),
                )
            )
    return out


def _component_sort_key(comp: Component):
    return (
        sorted(comp.zero_vars),
        [str(b) for b in comp.chain],
        sorted(comp.nonzero_vars),
    )


def dec_binomial(items, sigma: SigmaConfig, n: int | None = None) -> list[Component]:
    """Decompose {items} into reflexive prime components (Algorithm shape).

    Each component is a set of zeroed variables together with a
    character over the rest (``Component``).  An empty list means the
    perfect closure is the unit ideal.
    """
    items = list(items)
    if n is None and not items:
        raise ValueError("ambient dimension required for an empty system")
    n = _dimension([b.fplus for b in items], n)
    components: list[Component] = []
    work = dec_mono(MonoTriple(frozenset(), tuple(items), frozenset()))
    while work:
        cur = work.pop()
        if not cur.items:
            components.append(Component(cur.zero_vars, cur.nonzero_vars, make_character([], sigma, n)))
            continue
        for rho in dec_laurent([to_laurent(b) for b in cur.items], sigma, n):
            components.append(Component(cur.zero_vars, cur.nonzero_vars, rho))
        # some live variable is zero: branch on the monomial of the live
        # ones (_substitute_zero would drop one with a zeroed variable)
        live = LatVec(IntPoly((int(i not in cur.zero_vars),)) for i in range(n))
        mono = PlainBinomial(live, LatVec.zero(n), None)
        work.extend(dec_mono(MonoTriple(cur.zero_vars, cur.items + (mono,), cur.nonzero_vars)))
    components.sort(key=_component_sort_key)
    return components


def member_sat(b: PlainBinomial, comp: Component) -> bool:
    """Membership in [zeroed variables] + sat(chain).

    A term touching a zeroed variable vanishes; what survives must be a
    binomial of the component's Laurent ideal (a surviving monomial or
    constant never belongs to the proper saturation ideal).  The
    automorphism is the one the character holds (``SigmaConfig.eps``).
    """
    survivors = _substitute_zero((b,), comp.zero_vars)
    if survivors is None or (survivors and survivors[0].is_monomial):
        return False
    if not survivors:
        return True
    if not b.fplus - b.fminus:
        return b.constant.is_one()
    query = normalize_binomial(
        FieldConst.one(), b.fplus, b.constant * FieldConst.root_of_unity(2), b.fminus)
    return member(query, comp.character)

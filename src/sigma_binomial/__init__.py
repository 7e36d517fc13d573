"""Exact arithmetic for Z[x]-lattices and binomial difference ideals.

The package computes generalized Hermite normal forms (reduced Groebner
bases of Z[x]-lattices), the x-/Z-/M-/P-saturations of such lattices,
characteristic sets and membership for Laurent binomial difference
ideals, reflexive/well-mixed/perfect closures, and the decomposition of
perfect binomial difference ideals into reflexive prime components.
"""

from .polyzx import (
    DegenerateInput,
    DivisionByZero,
    ExactDivisionError,
    IntPoly,
    ModPoly,
    NonUnit,
    ext_gcd,
    poly_from_str,
    poly_to_str,
)
from .zx_lattice import (
    Block,
    DimensionError,
    GhnfBasis,
    LatVec,
    MonoTerm,
    ZeroVector,
    contains,
    enumerate_c,
    ghnf,
    ghnf_track,
    gker,
    grem,
    grem_track,
    lattice_equal,
    member_oracle,
    s_vector,
    verify_ghnf,
)
from .pid_linalg import hnf_modpoly, ker_int
from .constants import (
    FieldConst,
    SigmaConfig,
    const_from_str,
    const_to_str,
    kth_roots,
    o_m,
    pow_zx,
)
from .saturation import (
    SatWitnessX,
    SatWitnessZ,
    TrackedBasis,
    is_saturated,
    mfactor,
    sat_full,
    sat_m,
    sat_p,
    sat_x,
    sat_z,
    xfactor,
    zfactor,
)
from .laurent import (
    UNIT,
    LaurentBinomial,
    NotABinomial,
    NotReflexivePrime,
    PartialCharacter,
    UnitIdeal,
    dec_laurent,
    dimension,
    is_perfect,
    is_prime,
    is_reflexive,
    is_unit,
    is_wellmixed,
    make_character,
    member,
    normalize_binomial,
    perfect_closure,
    prem_binomial,
    reflexive_closure,
    wellmixed_closure,
)
from .binomial import (
    Component,
    MonoTriple,
    PlainBinomial,
    dec_binomial,
    dec_mono,
    member_sat,
    to_laurent,
    to_plain,
)

__version__ = "0.1.0"

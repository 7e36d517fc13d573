import random

import pytest

from sigma_binomial.constants import FieldConst, SigmaConfig, const_from_str
from sigma_binomial.laurent import LaurentBinomial
from sigma_binomial.pid_linalg import ker_int
from sigma_binomial.polyzx import IntPoly, poly_from_str
from sigma_binomial.zx_lattice import LatVec


def V(*polys: str) -> LatVec:
    """Column vector from polynomial strings."""
    return LatVec(poly_from_str(s) for s in polys)


def rand_poly(rng, maxdeg=3, maxcoeff=10) -> IntPoly:
    return IntPoly([rng.randint(-maxcoeff, maxcoeff) for _ in range(rng.randint(0, maxdeg + 1))])


def rand_vec(rng, n, maxdeg=3, maxcoeff=10) -> LatVec:
    return LatVec(rand_poly(rng, maxdeg, maxcoeff) for _ in range(n))


def truncated_kernel(cols, dx):
    """The nonzero vectors of a Z-basis of {X | deg X <= dx, sum X_j cols_j = 0},
    by ker_int on the flattened shifts, independent of the completion."""
    s = len(cols)
    top = dx + max((c.max_degree() for c in cols if c), default=0) + 1
    flat_cols = []
    for j in range(s):
        for k in range(dx + 1):
            v = cols[j].shift(k)
            col = []
            for e in v.entries:
                col.extend(e.coeff(t) for t in range(top + 1))
            flat_cols.append(col)
    out = []
    for ivec in ker_int(flat_cols):
        x = LatVec(IntPoly(ivec[j * (dx + 1) : (j + 1) * (dx + 1)]) for j in range(s))
        if x:
            out.append(x)
    return out


def saturation_systems(seed: int = 11, trials: int = 200):
    """The criterion-9 saturation family: (n, gens, sigma) per trial."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 3)
        gens = [rand_vec(rng, n, 2, 6) for _ in range(rng.randint(1, 3))]
        sigma = SigmaConfig.IDENTITY if rng.random() < 0.5 else SigmaConfig.CONJUGATION
        yield n, gens, sigma


def laurent_systems(seed: int = 13, trials: int = 200, nvars=(1, 3), sizes=(1, 3), maxdeg=2):
    """The criterion-9 Laurent family: (n, binomials, sigma) per trial.

    n and the number of binomials are drawn from the ranges nvars and
    sizes; exponents have degree at most maxdeg and coefficients in [-3, 3].
    """
    rng = random.Random(seed)
    pool = [
        FieldConst.one(),
        const_from_str("-1"),
        const_from_str("2"),
        const_from_str("4"),
        const_from_str("zeta(3)"),
        const_from_str("zeta(4)"),
        const_from_str("-2"),
        const_from_str("3"),
    ]
    for _ in range(trials):
        n = rng.randint(*nvars)
        system = []
        for _ in range(rng.randint(*sizes)):
            while True:
                v = LatVec(
                    IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, maxdeg + 1))])
                    for _ in range(n)
                )
                if v:
                    break
            if not v.is_normal():
                v = -v
            system.append(LaurentBinomial(v, rng.choice(pool)))
        sigma = SigmaConfig.IDENTITY if rng.random() < 0.5 else SigmaConfig.CONJUGATION
        yield n, system, sigma


@pytest.fixture
def vec():
    return V

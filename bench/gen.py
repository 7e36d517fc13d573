"""Seeded instance pools for the four workloads.

The criterion-9 generators of the test suite are reimplemented here with
the same random-number call sequence, so that later edits to the tests
cannot change what the benchmark runs.  Everything is plain data (lists
of integer coefficient lists and strings); the worker turns it into
library objects.  Nothing here imports the library.

An instance is a dict with an ``op`` naming the operation and the
operation's arguments.  ``key(instance)`` is a stable digest of the
input, used to look up the stored output digest.
"""

from __future__ import annotations

import hashlib
import json
import random

GHNF_SEED, SAT_SEED, GKER_SEED, LAURENT_SEED = 7, 11, 19, 13
TAIL_SEED = 1
FAMILY_TRIALS = 200
TAIL_TRIALS = 10
# Half of the larger saturation lattices hang in factoring at the seed
# commit; five per bound keep a round short while still showing that.
SAT_TAIL_TRIALS = 5
LAURENT_CONSTANTS = ("1", "-1", "2", "4", "zeta(3)", "zeta(4)", "-2", "3")


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def rand_poly(rng: random.Random, maxdeg: int = 3, maxcoeff: int = 10) -> list[int]:
    """Same draws as ``tests/conftest.py::rand_poly``."""
    return _trim([rng.randint(-maxcoeff, maxcoeff) for _ in range(rng.randint(0, maxdeg + 1))])


def rand_vec(rng: random.Random, n: int, maxdeg: int = 3, maxcoeff: int = 10) -> list[list[int]]:
    return [rand_poly(rng, maxdeg, maxcoeff) for _ in range(n)]


def ghnf_family(trials: int = FAMILY_TRIALS) -> list[dict]:
    """Criterion 9, GHNF part: the generators handed to ``ghnf``.

    The draws the test spends on its recombination and oracle checks are
    made and discarded, so trial k here is trial k of the test.
    """
    rng = random.Random(GHNF_SEED)
    out = []
    for trial in range(trials):
        n = rng.randint(1, 4)
        gens = [rand_vec(rng, n) for _ in range(rng.randint(1, 4))]
        for _ in range(2):
            for _ in gens:
                rand_poly(rng, 2, 3)
        rand_vec(rng, n)
        out.append({"op": "ghnf", "family": "ghnf", "trial": trial, "n": n, "gens": gens})
    return out


def gker_family() -> list[dict]:
    rng = random.Random(GKER_SEED)
    out = []
    for trial in range(FAMILY_TRIALS):
        n, s = rng.randint(1, 3), rng.randint(1, 3)
        cols = [rand_vec(rng, n) for _ in range(s)]
        out.append({"op": "gker", "family": "gker", "trial": trial, "n": n, "gens": cols})
    return out


def saturation_family() -> list[tuple[int, list, str]]:
    """Criterion 9, saturation part: (n, generators, sigma) per trial."""
    rng = random.Random(SAT_SEED)
    out = []
    for _ in range(FAMILY_TRIALS):
        n = rng.randint(1, 3)
        gens = [rand_vec(rng, n, 2, 6) for _ in range(rng.randint(1, 3))]
        sigma = "id" if rng.random() < 0.5 else "conj"
        out.append((n, gens, sigma))
    return out


def _normal(v: list[list[int]]) -> list[list[int]]:
    """Negate v unless its last nonzero entry has a positive leading coefficient."""
    for entry in reversed(v):
        if entry:
            return v if entry[-1] > 0 else [[-c for c in e] for e in v]
    return v


def laurent_family() -> list[tuple[int, list, str]]:
    """Criterion 9, decomposition part: (n, [(support, constant)], sigma)."""
    rng = random.Random(LAURENT_SEED)
    out = []
    for _ in range(FAMILY_TRIALS):
        n = rng.randint(1, 3)
        system = []
        for _ in range(rng.randint(1, 3)):
            while True:
                v = [_trim([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]) for _ in range(n)]
                if any(v):
                    break
            system.append([_normal(v), rng.choice(LAURENT_CONSTANTS)])
        sigma = "id" if rng.random() < 0.5 else "conj"
        out.append((n, system, sigma))
    return out


def square_tail(op: str, n: int, s: int, maxdeg: int, maxcoeff: int,
                trials: int = TAIL_TRIALS) -> list[dict]:
    """Larger lattices: s generators in Z[x]^n of the given degree and size."""
    rng = random.Random(TAIL_SEED)
    family = "%s_n%d_c%d" % (op, n, maxcoeff)
    return [
        {"op": op, "family": family, "trial": t, "n": n,
         "gens": [rand_vec(rng, n, maxdeg, maxcoeff) for _ in range(s)]}
        for t in range(trials)
    ]


# The paper's worked examples as CLI calls: (example, argv, stdin text).
MAT_71 = "-x+2, 3*x+2, 0\n1, 1, 2*x\n1, 2*x+1, x^2\n"
MAT_71_SAT = "-x+2, 3*x+2, 0\n1, -3, 4\n0, 2, x-2\n"
MAT_75 = "x^2+2*x-2, 0\nx+2, 4\n1, 2*x\n"
MAT_623 = "x-1, 0\n-2, 2\n0, x-1\n"
SYS_716 = "y1^(x^2-2) - 1\ny2^(x^2-2) - 1\ny1*y2^(-x)*y3^(2) - 1\n"
SYS_716_COMPONENTS = (
    "y1^(x^2-2) - 1\ny2^(x^2-2) - 1\ny1*y2^(-x)*y3^(2) - 1\ny1*y2^(-x)*y3^(x^2) - 1\n",
    "y1^(x^2-2) - 1\ny2^(x^2-2) - 1\ny1*y2^(-x)*y3^(2) - 1\ny1*y2^(-x)*y3^(x^2) + 1\n",
)
SYS_718 = "y1^(x^2) - y1^(2)\ny2^(x^2) - y2^(2)\ny1*y3^(2) - y2^(x)\n"
SYS_522 = "y1^(2) + 1\ny1^(x) - y1\ny2^(2) + 1\ny2^(x) + y2\n"
SUPPORT_522 = "2, 0\nx-1, 0\n0, 2\n0, x-1\n"
PAPER_CALLS = (
    ("7.1", ["satx"], MAT_71),
    ("7.1", ["is-saturated", "--kind", "x"], MAT_71_SAT),
    ("7.5", ["satz"], MAT_75),
    ("7.16", ["dec-laurent", "--json"], SYS_716),
    ("7.16", ["is-prime"], SYS_716_COMPONENTS[0]),
    ("7.16", ["is-reflexive"], SYS_716_COMPONENTS[0]),
    ("7.16", ["is-prime"], SYS_716_COMPONENTS[1]),
    ("7.16", ["is-reflexive"], SYS_716_COMPONENTS[1]),
    ("7.18", ["dec-binomial", "--json"], SYS_718),
    ("y1^3", ["wellmixed-closure"], "y1^(3) - 1\n"),
    ("y1^3", ["wellmixed-closure", "--sigma", "conj"], "y1^(3) - 1\n"),
    ("5.22", ["wellmixed-closure"], SYS_522),
    ("5.22", ["perfect-closure"], SYS_522),
    ("5.22", ["is-saturated", "--kind", "m"], SUPPORT_522),
    ("6.23", ["is-saturated", "--kind", "p"], MAT_623),
)


def lattice_pool() -> list[dict]:
    """ghnf on the criterion-9 GHNF family, gker on its kernel family,
    and ghnf on n = s = 4, degree-3 lattices with entries up to 10 and 1000."""
    return (ghnf_family() + gker_family()
            + square_tail("ghnf", 4, 4, 3, 10) + square_tail("ghnf", 4, 4, 3, 1000))


def saturate_pool() -> list[dict]:
    """sat_z and sat_p on the criterion-9 saturation family (each trial with
    the test's sigma), and sat_z on n = s = 3, degree-3 lattices with entries
    up to 100 and 1000."""
    out = []
    for trial, (n, gens, sigma) in enumerate(saturation_family()):
        out.append({"op": "sat_z", "family": "sat", "trial": trial, "n": n, "gens": gens})
        out.append({"op": "sat_p", "family": "sat", "trial": trial, "n": n, "gens": gens, "sigma": sigma})
    return (out + square_tail("sat_z", 3, 3, 3, 100, trials=SAT_TAIL_TRIALS)
            + square_tail("sat_z", 3, 3, 3, 1000, trials=SAT_TAIL_TRIALS))


def decompose_pool() -> list[dict]:
    """dec_laurent on the criterion-9 Laurent family, each trial with the test's sigma."""
    return [
        {"op": "dec_laurent", "family": "laurent", "trial": trial, "n": n,
         "system": system, "sigma": sigma}
        for trial, (n, system, sigma) in enumerate(laurent_family())
    ]


def cli_pool() -> list[dict]:
    return [
        {"op": "cli", "family": "paper", "trial": i, "example": ex, "argv": argv, "stdin": text}
        for i, (ex, argv, text) in enumerate(PAPER_CALLS)
    ]


POOLS = {
    "lattice": lattice_pool,
    "saturate": saturate_pool,
    "decompose": decompose_pool,
    "cli_paper": cli_pool,
}


def key(instance: dict) -> str:
    """Stable digest of an instance's input (family and trial excluded)."""
    payload = {k: v for k, v in instance.items() if k not in ("family", "trial")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]

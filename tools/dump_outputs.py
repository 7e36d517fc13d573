"""Write the canonical outputs of a source tree, one per line, for differential checks.

Usage:
    python3 tools/dump_outputs.py SRC_ROOT OUT [--sat-seeds 11] [--laurent-seeds 13] [--digests PATH]

SRC_ROOT is the root of a checkout (holding ``src/`` and ``bench/``);
the library and the benchmark's instance generators are both taken from
it.  OUT receives one line per output:

- every output of the ``lattice``, ``saturate``, ``decompose`` and
  ``cli_paper`` benchmark pools, rendered as the benchmark renders it
  (a ``gker`` output is the GHNF of the kernel, so it is canonical too);
- ``verify_ghnf``'s verdict and messages on the raw generators of each
  ``lattice``-pool instance, which are no GHNF: once as a list, which it
  sorts, and once as a ``GhnfBasis`` in the order given;
- on the criterion-9 saturation family, per seed and trial: the
  ``zfactor`` witnesses (h, k, e) and the ``xfactor`` witnesses (h, e)
  of the input's GHNF, which pin ``ker_int``'s transform, ``sat_z`` with
  its least multipliers, ``sat_m`` and ``sat_p`` under both automorphisms,
  and ``sat_full``; also, per automorphism, ``is_saturated`` of the
  input's GHNF for kinds m and p, and the GHNF of the input plus its
  ``mfactor`` witnesses (the witness vectors are not canonical, the
  lattice they add is);
- on a cofactor family per saturation seed (``_cofactor_family``), whose
  torsion bounds have a composite cofactor past trial division: ``sat_z``
  with its least multipliers, ``sat_full``, ``sat_p`` under both
  automorphisms, whether ``zfactor`` is empty, and ``dec_laurent`` of the
  binomials Y^g - 1 over the input's GHNF columns g under both
  automorphisms, a refusal without its count; the witnesses are left
  out, as the split of the cofactor decides them, not the lattice;
- on the criterion-9 Laurent family, per seed and trial: the reflexive,
  well-mixed and perfect closures and ``dec_laurent``; then, for the
  system's own character, its perfect closure and each of its
  components, ``value`` and ``prem_binomial`` on fixed query supports
  (see ``_queries``);
- the exit code and stdout of ``cli.run`` on a fixed matrix of cases:
  every command on the paper inputs of ``bench/gen.py`` and on empty,
  unit and malformed inputs, each plain, with ``--json``, with
  ``--sigma conj`` and with ``--nvars`` matching, different and
  negative, then with the input as a file before and after the options;
  and a list of usage errors.  ``-h`` is left out.

The seed options take comma-separated lists.  Two trees that compute the
same outputs give files that ``cmp`` finds identical.  Only the standard
library is used.

With ``--digests PATH`` the tool also writes one line per output to PATH:
its key and a short digest of its value (``write_digests``).  The
default-seed digests are committed as ``tests/dump_digests.txt``, and
``tests/test_dump_digests.py`` regenerates them and names every key that
changed, went missing or is new.  A change that alters outputs on purpose
rewrites that file with::

    python3 tools/dump_outputs.py . OUT --digests tests/dump_digests.txt

The digests at CI's extra seeds, which reach the completion fallbacks,
are committed as ``tests/dump_digests_seeds.txt``; CI compares them with
``diff``, and the same change rewrites them with::

    python3 tools/dump_outputs.py . OUT --digests tests/dump_digests_seeds.txt \
        --sat-seeds 111,112,113,114,23 --laurent-seeds 113,114,115,116,21,22
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import re
import sys
import tempfile


def _load(root: str):
    """The library and the bench modules ``gen`` and ``worker`` of one tree.

    The library is imported first: ``worker`` puts its own tree's ``src``
    at the front of ``sys.path`` on import, which must not decide which
    library is loaded.  No bytecode is written into the tree.
    """
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(root, "src"))
    sb = importlib.import_module("sigma_binomial")
    cli = importlib.import_module("sigma_binomial.cli")
    sys.path.insert(0, os.path.join(root, "bench"))
    gen = importlib.import_module("gen")
    worker = importlib.import_module("worker")
    return sb, cli, gen, worker


def _with_seed(gen, name: str, seed: int, family):
    """A family of ``gen`` built at another seed (it reads the seed when called)."""
    saved = getattr(gen, name)
    setattr(gen, name, seed)
    try:
        return family()
    finally:
        setattr(gen, name, saved)


def _guard(fn):
    """fn()'s value, or the exception it raised, as an output in its own right."""
    try:
        return fn()
    except Exception as exc:
        return "raised %s: %s" % (type(exc).__name__, exc)


# The command names are listed here, not read from the tree, so that
# trees with different command tables can be compared.
MATRIX_COMMANDS = ("ghnf", "kernel", "satx", "satz", "satm", "satp", "is-saturated")
SYSTEM_COMMANDS = (
    "charset", "member", "reflexive-closure", "wellmixed-closure", "perfect-closure",
    "is-prime", "is-reflexive", "is-wellmixed", "is-perfect", "dec-laurent",
    "dec-binomial", "dimension",
)
# Each command with the options it requires, once per value tried.
REQUIRED = {
    "is-saturated": [["--kind", k] for k in "xzmp"],
    "member": [["--query", "y1^(2) - 1"], ["--query", "y1^(2)*y2^(-2*x)*y3^(2*x^2) - 1"]],
}
EXTRA_INPUTS = ("", "y1 - 1\ny1 - 2\n", "garbage&&\n")
USAGE_ERRORS = (
    [], ["frobnicate"], ["is-saturated"], ["member"], ["ghnf", "--kind", "x"],
    ["charset", "--query", "y1 - 1"], ["ghnf", "--sigma", "bad"], ["ghnf", "--nvars", "x"],
    ["ghnf", "--nvars", "-2"], ["ghnf", "a.txt", "b.txt"], ["ghnf", "--bogus"],
)


def _cli_cases(gen, tmp):
    """(tag, argv, stdin) for every CLI case; input files are written under tmp."""
    inputs = list(dict.fromkeys([text for _, _, text in gen.PAPER_CALLS] + list(EXTRA_INPUTS)))
    for idx, text in enumerate(inputs):
        path = os.path.join(tmp, "input%d.txt" % idx)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        lines = [l for l in text.splitlines() if l.strip()]
        matrix_n = len(lines[0].split(",")) if lines else 0
        system_n = max((int(m) for m in re.findall(r"y(\d+)", text)), default=0)
        for cmd in MATRIX_COMMANDS + SYSTEM_COMMANDS:
            n = matrix_n if cmd in MATRIX_COMMANDS else system_n
            variants = (
                ("plain", []), ("json", ["--json"]), ("conj", ["--sigma", "conj"]),
                ("nvars", ["--nvars", str(n)]), ("nvars+1", ["--nvars", str(n + 1)]),
                ("nvars-1", ["--nvars", "-1"]),
            )
            for r, required in enumerate(REQUIRED.get(cmd, [[]])):
                tag = "cli/%s/%d/%d" % (cmd, r, idx)
                for name, opts in variants:
                    yield "%s/%s" % (tag, name), [cmd] + required + opts, text
                opts = required + ["--json", "--sigma", "conj"]
                yield tag + "/file-first", [cmd, path] + opts, ""
                yield tag + "/file-last", [cmd] + opts + [path], ""
    for k, argv in enumerate(USAGE_ERRORS):
        yield "cli/usage/%d" % k, argv, ""


COFACTOR_TRIALS = 60
# every 40th prime in [1009, 10^5], as in tests/test_saturation.py
MID_PRIMES = [p for p in range(1009, 10**5, 2)
              if all(p % d for d in range(3, int(p ** 0.5) + 1, 2))][::40]


def _cofactor_family(seed: int):
    """(n, generators as coefficient lists) per trial, n = 1-3.

    Generator k is zero past row k, with small entries before it and
    entry k equal to c*f: c one of 1, p1, p2, p1*p2, and f of constant
    term +-1 with a leading coefficient that is a multiple of p1*p2 for
    k = 0, of 1, p1 or p2 otherwise, for two primes p1, p2 of
    ``MID_PRIMES``.  So the torsion bound's cofactor past 1000 is built
    from p1 and p2, and the contents decide whether there is torsion.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(COFACTOR_TRIALS):
        p1, p2 = rng.sample(MID_PRIMES, 2)
        n = rng.randint(1, 3)

        def poly(lead):
            content = rng.choice([1, 1, 1, p1, p2, p1 * p2])
            lower = [rng.choice([1, -1])] + [rng.randint(-4, 4)] * rng.randint(0, 1)
            return [content * c for c in lower + [lead]]

        gens = []
        for k in range(n):
            lead = (p1 * p2 if k == 0 else rng.choice([1, p1, p2])) * rng.randint(1, 6)
            small = [[rng.randint(-4, 4) for _ in range(rng.randint(0, 2))] for _ in range(k)]
            gens.append(small + [poly(lead)] + [[]] * (n - k - 1))
        out.append((n, gens))
    return out


def _columns(basis):
    return [[str(e) for e in c.entries] for c in basis.columns]


def _sat_z(sb, gens, n):
    tracked = sb.sat_z(gens, n)
    return _columns(tracked.basis), tracked.multipliers


def _queries(sb, rho):
    """Query supports for a character: the unit vectors, one vector that
    few lattices hold, and four combinations of rho's columns (so inside
    its lattice), one of them not normal."""
    n = rho.basis.n
    out = [sb.LatVec.unit(n, row) for row in range(n)]
    out.append(sb.LatVec([sb.IntPoly((-2, 0, 1))] + [sb.IntPoly((3, 1))] * (n - 1)))
    cols = rho.basis.columns
    if cols:
        out += [sum(cols, sb.LatVec.zero(n)), sb.IntPoly((1, 1)) * cols[0] - 2 * cols[-1],
                sb.IntPoly((0, 3)) * cols[0], -cols[-1]]
    return out


def _value_prem(sb, rho):
    """rho.value and prem_binomial, with constant 2*zeta(6), per query support."""
    const = sb.const_from_str("2*zeta(6)")
    rows = []
    for v in _queries(sb, rho):
        value = rho.value(v)
        r = sb.prem_binomial(sb.LaurentBinomial(v, const), rho)
        rows.append((str(v), value if value is None else str(value),
                     str(r.support), str(r.constant)))
    return rows


def dump(root: str, out, sat_seeds, laurent_seeds) -> int:
    sb, cli, gen, worker = _load(root)
    lines = 0

    def emit(tag, value):
        nonlocal lines
        out.write("%s %s\n" % (tag, json.dumps(value if isinstance(value, str) else repr(value))))
        lines += 1

    for workload in ("lattice", "saturate", "decompose", "cli_paper"):
        for idx, inst in enumerate(gen.POOLS[workload]()):
            op = worker.prepare(sb, cli, inst)
            emit("%s/%d" % (workload, idx), _guard(lambda: op.render(op.call())))
    for idx, inst in enumerate(gen.POOLS["lattice"]()):
        gens = [worker._vec(sb, g) for g in inst["gens"]]
        emit("verify_ghnf/lattice/%d" % idx, _guard(lambda: sb.verify_ghnf(gens)))
        emit("verify_ghnf/lattice/%d/as_given" % idx,
             _guard(lambda: sb.verify_ghnf(sb.GhnfBasis(inst["n"], gens))))

    sigmas = (sb.SigmaConfig.IDENTITY, sb.SigmaConfig.CONJUGATION)
    for seed in sat_seeds:
        family = _with_seed(gen, "SAT_SEED", seed, gen.saturation_family)
        for trial, (n, gens, _) in enumerate(family):
            gens = [worker._vec(sb, g) for g in gens]
            tag = "sat/%d/%d" % (seed, trial)

            def witnesses():
                return [(str(w.h), w.k, [str(e) for e in w.e])
                        for w in sb.zfactor(sb.ghnf(gens, n))]

            emit(tag + "/zfactor", _guard(witnesses))
            emit(tag + "/xfactor",
                 _guard(lambda: [(str(w.h), list(w.e)) for w in sb.xfactor(sb.ghnf(gens, n))]))
            emit(tag + "/sat_z", _guard(lambda: _sat_z(sb, gens, n)))
            for sigma in sigmas:
                emit("%s/sat_m/%s" % (tag, sigma.name), _guard(lambda: _columns(sb.sat_m(gens, sigma, n))))
                emit("%s/sat_p/%s" % (tag, sigma.name), _guard(lambda: _columns(sb.sat_p(gens, sigma, n))))
                for kind in "mp":
                    emit("%s/is_saturated_%s/%s" % (tag, kind, sigma.name),
                         _guard(lambda: sb.is_saturated(sb.ghnf(gens, n), kind, sigma)))

                def with_witnesses():
                    basis = sb.ghnf(gens, n)
                    return _columns(sb.ghnf(list(basis.columns) + sb.mfactor(basis, sigma), n))

                emit("%s/mfactor/%s" % (tag, sigma.name), _guard(with_witnesses))
            emit(tag + "/sat_full", _guard(lambda: _columns(sb.sat_full(gens, n))))

        for trial, (n, gens) in enumerate(_cofactor_family(seed)):
            gens = [worker._vec(sb, g) for g in gens]
            tag = "cofactor/%d/%d" % (seed, trial)
            emit(tag + "/sat_z", _guard(lambda: _sat_z(sb, gens, n)))
            emit(tag + "/sat_full", _guard(lambda: _columns(sb.sat_full(gens, n))))
            emit(tag + "/zfactor_empty", _guard(lambda: sb.zfactor(sb.ghnf(gens, n)) == []))
            for sigma in sigmas:
                emit("%s/sat_p/%s" % (tag, sigma.name), _guard(lambda: _columns(sb.sat_p(gens, sigma, n))))

                def components():
                    one = sb.const_from_str("1")
                    system = [sb.LaurentBinomial(g, one) for g in sb.ghnf(gens, n).columns]
                    try:
                        comps = sb.dec_laurent(system, sigma, n)
                    except RuntimeError as exc:
                        # the count of root choices a refusal names is a
                        # product of witness orders, which are not canonical
                        return "refused: %s" % str(exc).split(":")[0]
                    return [[str(b) for b in c.binomials] for c in comps]

                emit("%s/dec_laurent/%s" % (tag, sigma.name), _guard(components))

    for seed in laurent_seeds:
        family = _with_seed(gen, "LAURENT_SEED", seed, gen.laurent_family)
        for trial, (n, system, sigma_name) in enumerate(family):
            system = [sb.LaurentBinomial(worker._vec(sb, v), sb.const_from_str(c)) for v, c in system]
            sigma = worker._sigma(sb, sigma_name)
            tag = "laurent/%d/%d" % (seed, trial)
            for name in ("reflexive_closure", "wellmixed_closure", "perfect_closure"):
                closure = getattr(sb, name)
                emit("%s/%s" % (tag, name), _guard(lambda: repr(closure(system, sigma, n))))
            emit(tag + "/dec_laurent",
                 _guard(lambda: [[str(b) for b in c.binomials] for c in sb.dec_laurent(system, sigma, n)]))

            def characters():
                rhos = [sb.make_character(system, sigma, n), sb.perfect_closure(system, sigma, n)]
                rhos += sb.dec_laurent(system, sigma, n)
                return [rho for rho in rhos if not sb.is_unit(rho)]

            emit(tag + "/value_prem", _guard(lambda: [_value_prem(sb, rho) for rho in characters()]))

    with tempfile.TemporaryDirectory() as tmp:
        for tag, argv, text in _cli_cases(gen, tmp):
            op = worker.prepare(sb, cli, {"op": "cli", "argv": argv, "stdin": text})
            emit(tag, _guard(lambda: op.render(op.call())))
    return lines


def write_digests(dump_path: str, digest_path: str) -> None:
    """One line 'KEY DIGEST' per line of a dump, in its order: DIGEST is
    the first 12 hex digits of the SHA-256 of the line's value."""
    with open(dump_path, encoding="utf-8") as src, open(digest_path, "w", encoding="utf-8") as out:
        for line in src:
            key, value = line.rstrip("\n").split(" ", 1)
            out.write("%s %s\n" % (key, hashlib.sha256(value.encode()).hexdigest()[:12]))


def read_digests(path: str) -> dict[str, str]:
    """The digest of each key of a file that ``write_digests`` wrote."""
    with open(path, encoding="utf-8") as src:
        return dict(line.split() for line in src)


def _seeds(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", metavar="SRC_ROOT")
    parser.add_argument("out", metavar="OUT")
    parser.add_argument("--sat-seeds", type=_seeds, default=[11],
                        help="criterion-9 saturation family seeds (default 11)")
    parser.add_argument("--laurent-seeds", type=_seeds, default=[13],
                        help="criterion-9 Laurent family seeds (default 13)")
    parser.add_argument("--digests", metavar="PATH",
                        help="also write each output's key and digest to PATH")
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as out:
        lines = dump(os.path.abspath(args.root), out, args.sat_seeds, args.laurent_seeds)
    print("%d outputs written to %s" % (lines, args.out))
    if args.digests:
        write_digests(args.out, args.digests)
        print("%d digests written to %s" % (lines, args.digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write the canonical outputs of a source tree, one per line, for differential checks.

Usage:
    python3 tools/dump_outputs.py SRC_ROOT OUT [--sat-seeds 11] [--laurent-seeds 13]

SRC_ROOT is the root of a checkout (holding ``src/`` and ``bench/``);
the library and the benchmark's instance generators are both taken from
it.  OUT receives one line per output:

- every output of the ``lattice``, ``saturate``, ``decompose`` and
  ``cli_paper`` benchmark pools, rendered as the benchmark renders it,
  except that a ``gker`` output is written as the GHNF of the kernel it
  generates: its generator list is not canonical, the kernel is;
- on the criterion-9 saturation family, per seed and trial: the
  ``zfactor`` witnesses (h, k, e) of the input's GHNF, ``sat_z`` with
  its multipliers, ``sat_m`` and ``sat_p`` under both automorphisms,
  and ``sat_full``;
- on the criterion-9 Laurent family, per seed and trial: the reflexive,
  well-mixed and perfect closures and ``dec_laurent``.

The seed options take comma-separated lists.  Two trees that compute the
same outputs give files that ``cmp`` finds identical.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys


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


def _columns(basis):
    return [[str(e) for e in c.entries] for c in basis.columns]


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
            text = op.canon if inst["op"] == "gker" else op.render
            emit("%s/%d" % (workload, idx), _guard(lambda: text(op.call())))

    sigmas = (sb.SigmaConfig.IDENTITY, sb.SigmaConfig.CONJUGATION)
    for seed in sat_seeds:
        family = _with_seed(gen, "SAT_SEED", seed, gen.saturation_family)
        for trial, (n, gens, _) in enumerate(family):
            gens = [worker._vec(sb, g) for g in gens]
            tag = "sat/%d/%d" % (seed, trial)

            def witnesses():
                return [(str(w.h), w.k, [str(e) for e in w.e])
                        for w in sb.zfactor(sb.ghnf(gens, n))]

            def satz():
                tracked = sb.sat_z(gens, n)
                return _columns(tracked.basis), tracked.multipliers

            emit(tag + "/zfactor", _guard(witnesses))
            emit(tag + "/sat_z", _guard(satz))
            for sigma in sigmas:
                emit("%s/sat_m/%s" % (tag, sigma.name), _guard(lambda: _columns(sb.sat_m(gens, sigma, n))))
                emit("%s/sat_p/%s" % (tag, sigma.name), _guard(lambda: _columns(sb.sat_p(gens, sigma, n))))
            emit(tag + "/sat_full", _guard(lambda: _columns(sb.sat_full(gens, n))))

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
    return lines


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
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as out:
        lines = dump(os.path.abspath(args.root), out, args.sat_seeds, args.laurent_seeds)
    print("%d outputs written to %s" % (lines, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

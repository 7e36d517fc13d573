"""Benchmark worker: imports the library, then answers one instance per line.

Started by ``run.py`` as ``python3 bench/worker.py [--trace [--hide NAME]...]``;
``--hide`` makes the tracer treat an internal function as missing.  The
protocol runs over the worker's original stdin/stdout as JSON lines;
fd 1 is pointed at stderr so that nothing the library prints can corrupt
it.  Only the library call is timed: building the arguments, a garbage
collection, rendering the output, hashing it and every check happen
outside.

Each output has a raw digest (of everything the call returned) and a
canonical digest (of the part the stored digests pin down).  They differ
for ``gker``, whose generator list is not canonical (the canonical form
is the GHNF of the kernel it generates), and for ``sat_z``, whose
multipliers are not (only the basis is).  Those parts are checked by a
certificate instead.  A request lists the raw digests already checked
in this run for the instance; an output with one of them is not checked
again.

Messages received:
  {"id": n, "instance": {...}, "known": [raw, ...], "certify": bool}
  ``certify``: no digest is stored, so the whole output needs a certificate.

Messages sent:
  {"ready": true}                                  after the imports
  {"s": secs, "raw": hex, "check": bool} | {"error": msg}    per instance
  {"digest": hex, "cert": bool, "why": str}        if "check" was true
  {"spans": [...], "counters": {...}}              per instance, traced workers only
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Points x = t at which the gker certificate evaluates both matrices.
RANK_POINTS = tuple(range(-8, 9))


def _vec(sb, entries):
    return sb.LatVec(sb.IntPoly(c) for c in entries)


def _cols_text(cols) -> str:
    return "\n".join(", ".join(str(e) for e in c.entries) for c in cols)


def _sigma(sb, name):
    return sb.SigmaConfig.IDENTITY if name == "id" else sb.SigmaConfig.CONJUGATION


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _rank_at(cols, t: int) -> int:
    """Rank over Q of the matrix with these columns, evaluated at x = t."""
    rows = [[Fraction(sum(c * t ** k for k, c in enumerate(p.coeffs))) for p in col.entries]
            for col in cols]
    rank = 0
    width = len(rows[0]) if rows else 0
    for j in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class Op:
    """How to run one instance and check its output.

    ``render`` gives the whole output as text (the raw digest).
    ``canon`` gives its canonical text, or is None when the rendering is
    canonical already.  ``check`` certifies the non-canonical part, or is
    None.  ``certify`` certifies the whole output, for instances with no
    stored digest.
    """

    def __init__(self, call, render, certify, canon=None, check=None):
        self.call, self.render, self.certify = call, render, certify
        self.canon, self.check = canon, check


def prepare(sb, cli, inst) -> Op:
    op = inst["op"]
    n = inst.get("n")
    if op == "cli":
        return _prepare_cli(cli, inst)
    if op == "dec_laurent":
        system = [sb.LaurentBinomial(_vec(sb, v), sb.const_from_str(c)) for v, c in inst["system"]]
        sigma = _sigma(sb, inst["sigma"])
        return Op(
            lambda: sb.dec_laurent(system, sigma, n),
            lambda comps: "\n\n".join("\n".join(str(b) for b in c.binomials) for c in comps),
            lambda comps: (all(sb.is_prime(c) and sb.is_reflexive(c) for c in comps),
                           "a component is not prime and reflexive"),
        )
    gens = [_vec(sb, g) for g in inst["gens"]]

    def ghnf_cert(basis):
        ok, problems = sb.verify_ghnf(basis)
        if not ok:
            return False, "; ".join(problems)
        if not all(sb.contains(basis, g) for g in gens):
            return False, "an input is not in the returned lattice"
        return True, ""

    if op == "ghnf":
        return Op(lambda: sb.ghnf(gens, n), lambda b: _cols_text(b.columns), ghnf_cert)
    if op == "gker":
        s = len(gens)

        def gker_check(kernel):
            """Every generator maps to zero, and they span a kernel of rank s - rank(M).

            Ranks over Q(x) are bounded below by ranks at points; once the
            kernel's rank at some point reaches s minus the largest rank of
            M seen, both are exact, because mapping to zero bounds the
            kernel's rank by s - rank(M).
            """
            for x in kernel:
                image = sb.LatVec.zero(n)
                for c, q in zip(gens, x.entries):
                    image = image + c * q
                if image:
                    return False, "a kernel generator does not map to zero"
            rank_m = rank_k = 0
            for t in RANK_POINTS:
                rank_m = max(rank_m, _rank_at(gens, t))
                rank_k = max(rank_k, _rank_at(kernel, t))
                if rank_k == s - rank_m:
                    return True, ""
            return False, "the kernel generators have rank below s - rank(M)"

        return Op(lambda: sb.gker(gens), _cols_text, gker_check,
                  canon=lambda kernel: _cols_text(sb.ghnf(kernel, s).columns), check=gker_check)
    if op == "sat_z":
        def multipliers_check(tracked):
            """m*g lies in the input lattice for every column g with multiplier m."""
            if len(tracked.multipliers) != len(tracked.basis.columns):
                return False, "one multiplier per column expected"
            base = sb.ghnf(gens, n)
            for g, m in zip(tracked.basis.columns, tracked.multipliers):
                if m < 1 or not sb.contains(base, m * g):
                    return False, "m*g is not in the input lattice"
            return True, ""

        def satz_cert(tracked):
            ok, why = ghnf_cert(tracked.basis)
            return multipliers_check(tracked) if ok else (ok, why)

        return Op(
            lambda: sb.sat_z(gens, n),
            lambda t: _cols_text(t.basis.columns) + "\n# " + " ".join(map(str, t.multipliers)),
            satz_cert,
            canon=lambda t: _cols_text(t.basis.columns),
            check=multipliers_check,
        )
    if op == "sat_p":
        sigma = _sigma(sb, inst["sigma"])
        return Op(lambda: sb.sat_p(gens, sigma, n), lambda b: _cols_text(b.columns), ghnf_cert)
    raise ValueError("unknown op %r" % op)


def _prepare_cli(cli, inst) -> Op:
    argv, text = list(inst["argv"]), inst["stdin"]

    def call():
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
        try:
            code = cli.run(argv)
            return code, sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved

    def no_certificate(_):
        return False, "no stored digest and no certificate for CLI output"

    return Op(call, lambda r: "%d\n%s" % r, no_certificate)


def check_output(op: Op, result, certify: bool) -> dict:
    """The canonical digest and the certificate verdict for a fresh output."""
    try:
        digest = _digest(op.canon(result)) if op.canon else _digest(op.render(result))
        if certify:
            ok, why = op.certify(result)
        elif op.check is not None:
            ok, why = op.check(result)
        else:
            ok, why = True, ""
    except Exception as exc:  # a crashing check is a failed check
        return {"digest": "", "cert": False, "why": "%s: %s" % (type(exc).__name__, exc)}
    return {"digest": digest, "cert": ok, "why": why}


def main() -> None:
    proto_in = os.fdopen(os.dup(0), "r")
    proto_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(msg):
        proto_out.write(json.dumps(msg) + "\n")
        proto_out.flush()

    import sigma_binomial as sb
    import sigma_binomial.cli as cli

    tracer = None
    args = sys.argv[1:]
    if "--trace" in args:
        import layertrace

        hidden = [args[i + 1] for i, a in enumerate(args[:-1]) if a == "--hide"]
        tracer = layertrace.Tracer.install(hidden)
    # Everything alive now lives for the whole process.  Frozen, it is left
    # out of every later collection, so the per-instance collection below
    # only sweeps what earlier instances left behind.
    gc.collect()
    gc.freeze()
    send({"ready": True})
    for line in proto_in:
        req = json.loads(line)
        op = prepare(sb, cli, req["instance"])
        # Every instance starts from the same collector state, so the
        # collections it pays for do not depend on what ran before it.
        gc.collect()
        if tracer is not None:
            tracer.begin(req["id"])
        reply = None
        try:
            t0 = time.perf_counter()
            result = op.call()
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # reported to the runner as a failed instance
            result, reply = None, {"error": "%s: %s" % (type(exc).__name__, exc)}
        finally:
            if tracer is not None:
                tracer.end()
        if reply is None:
            raw = _digest(op.render(result))
            reply = {"s": elapsed, "raw": raw, "check": raw not in req["known"]}
        send(reply)
        if reply.get("check"):
            send(check_output(op, result, req["certify"]))
        if tracer is not None:
            send(tracer.flush())


if __name__ == "__main__":
    main()

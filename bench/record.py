#!/usr/bin/env python3
"""Record the stored output digests and generator references in expected.json.

    python3 bench/record.py

Runs every pool instance of every workload once, in pool order, with the
timeout ``RECORD_TIMEOUT_S`` of run.py, and stores the canonical digest
of each output that finishes and passes its certificate.  Instances that
time out get no digest; the benchmark checks them by certificate if they
ever finish.  Run this only at a commit whose outputs are trusted: the
digests are the contract later commits are checked against.  One line
per instance (family, trial, op, status, seconds) goes to stderr.
"""

from __future__ import annotations

import json
import os
import sys

import gen
import run as bench

ROOT = bench.ROOT


def trial_101_components() -> int:
    """Number of components of criterion-9 seed 13 trial 101, computed here."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sigma_binomial as sb

    n, system, sigma = gen.laurent_family()[101]
    binomials = [sb.LaurentBinomial(sb.LatVec(sb.IntPoly(c) for c in v), sb.const_from_str(k))
                 for v, k in system]
    cfg = sb.SigmaConfig.IDENTITY if sigma == "id" else sb.SigmaConfig.CONJUGATION
    return len(sb.dec_laurent(binomials, cfg, n))


def reference() -> dict:
    """Inputs the start-up self-check compares the generators against."""
    n, system, sigma = gen.laurent_family()[101]
    return {
        "ghnf_seed7_first": [{"n": i["n"], "gens": i["gens"]} for i in gen.ghnf_family(trials=3)],
        "laurent_seed13_trial101": {"input": [n, system, sigma], "components": trial_101_components()},
    }


def record(workload: str) -> dict:
    digests = {}
    w = bench.Worker()
    try:
        for idx, inst in enumerate(gen.POOLS[workload]()):
            w.send({"id": idx, "instance": inst, "known": [], "certify": False})
            msg = w.recv(bench.RECORD_TIMEOUT_S)
            if msg is None:
                w.kill()
                w = bench.Worker()
                status, secs = "timeout", bench.RECORD_TIMEOUT_S
            elif "error" in msg:
                raise SystemExit("%s %s raised %s" % (inst["family"], inst["trial"], msg["error"]))
            else:
                verdict = w.recv(bench.CERT_TIMEOUT_S)
                if verdict is None or not verdict["cert"]:
                    raise SystemExit("%s %s: output check failed: %s"
                                     % (inst["family"], inst["trial"], verdict and verdict["why"]))
                digests[gen.key(inst)] = verdict["digest"]
                status, secs = "ok", msg["s"]
            print("%s %s %s %s %.6f" % (inst["family"], inst["trial"], inst["op"], status, secs),
                  file=sys.stderr, flush=True)
    finally:
        w.kill()
    return digests


def main() -> int:
    expected = {"reference": reference(), "digests": {}}
    for workload in sorted(gen.POOLS):
        expected["digests"][workload] = record(workload)
    with open(bench.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

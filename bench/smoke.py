"""Self-test of the benchmark: ``python3 bench/run.py --smoke``.

Runs every workload at tiny size, once untraced and once traced, and
checks that:
  * the generators reproduce the test suite's instances, and seed 13
    trial 101 is the 27-component system;
  * every output matches its digest, every certificate accepts the
    seed commit's outputs, and a wrong digest is caught;
  * the gker check rejects an empty kernel, the sat_z check rejects
    multipliers that are too small, and an instance that raises makes
    the run incorrect;
  * traced and untraced runs give byte-identical outputs;
  * the reported metrics are exactly the ones BENCHMARK.json names;
  * a hidden internal function is reported as absent, not a crash.
Exits 0 and prints ``smoke: ok`` when all hold.
"""

from __future__ import annotations

import json
import os
import sys

import gen
import record
import run as bench
import worker

TINY_PER_FAMILY = 2


def tiny(pool):
    out, seen = [], {}
    for inst in pool:
        family = (inst["family"], inst["op"], inst.get("sigma"))
        if seen.get(family, 0) < TINY_PER_FAMILY:
            seen[family] = seen.get(family, 0) + 1
            out.append(inst)
    return out


def check(cond, what):
    if not cond:
        raise SystemExit("smoke: FAILED: " + what)


def check_checks(workload, pool) -> None:
    """Certificates accept the outputs; a wrong stored digest is a mismatch."""
    timeout = bench.TIMEOUT_S[workload]
    if workload != "cli_paper":  # CLI output is checked by digest only
        run = bench.Run({}, timeout, bench.SETTLE_S[workload])
        attempts = run.run_pass(list(enumerate(pool)))[0][0]
        done = [a for a in attempts if a["status"] != "timeout"]
        check(done and all(a["status"] == "ok" for a in done),
              "%s: a certificate rejected a seed output: %s" % (workload, run.failures))
    run = bench.Run({gen.key(i): "0" * 32 for i in pool}, timeout, bench.SETTLE_S[workload])
    attempts = run.run_pass(list(enumerate(pool)))[0][0]
    check(all(a["status"] in ("mismatch", "timeout") for a in attempts),
          "%s: a wrong digest was not caught" % workload)


def check_certificates() -> None:
    """The non-canonical checks reject wrong outputs, and a raising call is incorrect."""
    sys.path.insert(0, os.path.join(bench.ROOT, "src"))
    import sigma_binomial as sb
    import sigma_binomial.cli as cli

    gker = next(i for i in gen.gker_family() if worker.prepare(sb, cli, i).call())
    op = worker.prepare(sb, cli, gker)
    check(op.check(op.call())[0] and not op.check([])[0], "the gker check accepts an empty kernel")
    for inst in gen.saturate_pool():
        if inst["op"] == "sat_z":
            op = worker.prepare(sb, cli, inst)
            tracked = op.call()
            if any(m > 1 for m in tracked.multipliers):
                break
    ones = sb.TrackedBasis(tracked.basis, tuple(1 for _ in tracked.multipliers))
    check(op.check(tracked)[0] and not op.check(ones)[0], "the sat_z check accepts multipliers of 1")
    bad = {"op": "ghnf", "family": "bad", "trial": 0, "n": 2, "gens": [[[1]], [[1], [2]]]}
    result = bench.measure("lattice", 0, 0, False, pool=[bad, gen.ghnf_family(trials=1)[0]])
    check(not result["correct"] and result["failed"] == 1, "an instance that raises leaves the run correct")


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    expected = bench.load_expected()
    bench.self_check(expected)
    check(record.trial_101_components() == expected["reference"]["laurent_seed13_trial101"]["components"] == 27,
          "seed 13 trial 101 is not the 27-component system")
    for workload in sorted(gen.POOLS):
        pool = tiny(gen.POOLS[workload]())
        plain = bench.measure(workload, 0, 0, False, pool=pool)
        check(plain["correct"], "%s: an untraced output failed its check" % workload)
        check(set(plain["metrics"]) == e2e, "%s: end-to-end metrics differ from BENCHMARK.json" % workload)
        traced = bench.measure(workload, 0, 0, True, pool=pool)
        check(traced["correct"], "%s: a traced output failed its check" % workload)
        check(set(traced["metrics"]) == layers, "%s: per-layer metrics differ from BENCHMARK.json" % workload)
        a = {x["key"]: x["raw"] for x in plain["_rounds"][0] if x["status"] == "ok"}
        b = {x["key"]: x["raw"] for x in traced["_traced"] if x["status"] == "ok"}
        check(a and all(b[k] == v for k, v in a.items() if k in b),
              "%s: traced and untraced outputs differ" % workload)
        check_checks(workload, pool)
        print("smoke: %s: %d instances, %d timeouts, outputs identical traced and untraced"
              % (workload, len(pool), plain["_timeouts"]))
    check_certificates()
    hidden = bench.measure("lattice", 0, 0, True, pool=tiny(gen.lattice_pool()),
                           hidden=("zx_lattice._reduce",))
    check(hidden["correct"], "lattice with _reduce hidden: an output failed its check")
    m = hidden["metrics"]
    check(m["zx_lattice._reduce.calls"].get("absent") and m["zx_lattice._reduce.self_s"].get("absent"),
          "a hidden internal function is not reported as absent")
    check(not m["zx_lattice.ghnf.calls"].get("absent") and m["zx_lattice.ghnf.calls"]["value"] > 0,
          "public layers stopped being traced when an internal one was hidden")
    print("smoke: ok")
    return 0

#!/usr/bin/env python3
"""Benchmark of sigma_binomial: four workloads, one worker process at a time.

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # every workload in turn
    python3 bench/run.py --smoke

Each workload has a fixed pool of instances (see ``gen.py``).  A run
executes a fixed number of rounds (``ROUNDS``); each round runs the
pool in a fresh worker, in an order drawn from ``--seed``, leaving out
instances that timed out or whose readings add up to ``SETTLE_S``.  The
first round always completes; later rounds start no instance after
``--seconds``.
Every instance has a wall-clock timeout; a timed-out worker is killed
and restarted.  An instance's latency is its fastest round; an instance
answered in no round counts as failed, at the timeout latency.  Outputs
are checked against stored digests of their canonical part (see
worker.py), and by a certificate where no digest is stored or where the
output has a part that is not canonical.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine, the Python version, the commit and the seed.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one round runs, each instance first in a traced worker and then in an
untraced one, and the metrics are the per-layer ones.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layertrace  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")

# Per-instance wall-clock limit, set in a wide gap of the seed-state
# latency distribution so that timing noise cannot move an instance
# across it: lattice finishes at <= 2.1 s or hangs for > 28 s; saturate
# finishes at <= 0.32 s or takes > 3 s; decompose finishes at <= 0.1 s
# except seed 13 trial 101, which takes ~7 s; the CLI examples take
# < 30 ms.
TIMEOUT_S = {"lattice": 4.0, "saturate": 1.0, "decompose": 1.0, "cli_paper": 5.0}
# record.py stores a digest for every instance that finishes within this
# limit; the others are checked by certificate if they ever finish.
RECORD_TIMEOUT_S = 60.0
# Rounds per run.  Each round runs the whole pool in a fresh worker, and
# an instance's latency is its fastest round, as timeit does: on a shared
# machine the slower readings measure the other tenants.  The first round
# always completes; later ones start no instance after --seconds.  The
# counts are set so that on a 2-vCPU Xeon all rounds end within 30 s
# with a few seconds to spare; a fixed count keeps a faster commit from
# taking more readings per instance, which would lower its minima by
# itself, and a slow spell of the machine from taking fewer.
ROUNDS = {"lattice": 13, "saturate": 10, "decompose": 22, "cli_paper": 64}
# An instance that timed out is not run again in the run, nor is one
# whose readings add up to SETTLE_S.  So the budget goes to the short
# instances, whose readings scatter most and which set the latency
# percentiles; on cli_paper every call runs in every round.
SETTLE_S = {"lattice": 0.1, "saturate": 0.2, "decompose": 0.5, "cli_paper": 2.0}
STARTUP_TIMEOUT_S = 30.0
CERT_TIMEOUT_S = 60.0
SETUP_SPAWNS = 5
# --seconds is never taken to be longer than this.
RUN_LIMIT_S = 150.0
PR_SET_PDEATHSIG = 1


# Attempt statuses that make a run incorrect: a wrong output, or a call
# that raised or killed its worker.  A timeout only makes the instance failed.
BAD = ("mismatch", "error")


class WorkerFailed(RuntimeError):
    pass


def _die_with_parent() -> None:
    """In a new worker: ask Linux to kill it if the runner dies first."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass  # not Linux: workers still exit when their stdin closes


class Worker:
    """One worker interpreter speaking the JSON-lines protocol of worker.py."""

    def __init__(self, trace: bool = False, hidden=()):
        argv = [sys.executable, WORKER]
        if trace:
            argv.append("--trace")
            for name in hidden:
                argv += ["--hide", name]
        self.trace = trace
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
                                     preexec_fn=_die_with_parent)
        self.buf = b""
        self.maxrss_kb = 0
        try:
            msg = self.recv(STARTUP_TIMEOUT_S)
        except WorkerFailed:
            msg = None
        if not msg or not msg.get("ready"):
            self.kill()
            raise WorkerFailed("worker did not start (is src/sigma_binomial importable?)")
        self.setup_s = time.perf_counter() - t0

    def send(self, msg: dict) -> None:
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()

    def recv(self, timeout: float):
        """Next message, or None if none arrives within ``timeout`` seconds."""
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise WorkerFailed("worker exited")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def _reap(self) -> None:
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss

    def close(self) -> None:
        if self.proc.returncode is None:
            self.proc.stdin.close()
            self.proc.stdout.close()
            self._reap()

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self._reap()


class Run:
    """State of one benchmark run: results, checks, worker statistics."""

    def __init__(self, digests: dict, timeout: float, settle_s: float):
        self.digests = digests
        self.timeout = timeout
        self.settle_s = settle_s
        # key -> {raw output digest: verdict}; each distinct output is checked once per run
        self.verdicts: dict = {}
        self.setups: list[float] = []
        self.rss_kb: list[int] = []
        self.failures: list[str] = []
        self.readings: dict = {}  # pool index -> latency in each round run so far
        self.timed_out: set = set()  # pool indices that timed out in some round

    def start(self, trace=False, hidden=()) -> Worker:
        w = Worker(trace, hidden)
        if not trace:
            self.setups.append(w.setup_s)
        return w

    def finish(self, w: Worker, kill=False) -> None:
        w.kill() if kill else w.close()
        if not w.trace:
            self.rss_kb.append(w.maxrss_kb)

    def run_pass(self, order, sides=((False, ()),), deadline=None):
        """Run each (pool index, instance) of ``order`` once per side.

        A side is (trace, hidden) and has its own worker; with two sides an
        instance runs in one worker and then in the other, so that both
        readings see the same machine.  Returns (attempts per side, trace
        messages).  No instance starts after ``deadline``.
        """
        attempts, traces = [[] for _ in sides], []
        workers = [self.start(trace, hidden) for trace, hidden in sides]
        try:
            for idx, inst in order:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                seen = self.readings.get(idx, [])
                if idx in self.timed_out or sum(seen) >= self.settle_s:
                    continue
                for k, (trace, hidden) in enumerate(sides):
                    att, msg, workers[k] = self._one(workers[k], idx, inst, trace, hidden)
                    self.readings.setdefault(idx, []).append(att["s"])
                    attempts[k].append(att)
                    if msg is not None:
                        traces.append(msg)
        except BaseException:
            for w in workers:
                w.kill()
            raise
        for w in workers:
            self.finish(w)
        return attempts, traces

    def _one(self, w, idx, inst, trace, hidden):
        key = gen.key(inst)
        want = self.digests.get(key)
        verdicts = self.verdicts.setdefault(key, {})
        att = {"idx": idx, "key": key, "status": "ok"}
        w.send({"id": idx, "instance": inst, "known": list(verdicts), "certify": want is None})
        try:
            msg = w.recv(self.timeout)
        except WorkerFailed:
            msg = {"error": "worker died", "died": True}
        if msg is None or msg.get("died"):
            self.finish(w, kill=True)
            if msg is None:
                self.timed_out.add(idx)
                att.update(status="timeout", s=self.timeout)
            else:
                self.failures.append("%s %s: worker died" % (inst["family"], inst["trial"]))
                att.update(status="error", s=self.timeout)
            return att, None, self.start(trace, hidden)
        if "error" in msg:
            self.failures.append("%s %s: %s" % (inst["family"], inst["trial"], msg["error"]))
            att.update(status="error", s=self.timeout)
            return att, self._trace_msg(w, trace), w
        att["s"], att["raw"] = msg["s"], msg["raw"]
        lost = False  # the worker hung or died while checking, and was killed
        if msg["check"]:
            try:
                verdict = w.recv(CERT_TIMEOUT_S)
            except WorkerFailed:
                verdict = None
            if verdict is None:
                lost = True
                self.finish(w, kill=True)
                verdict = {"digest": "", "cert": False, "why": "the output check did not finish"}
            if want is not None and verdict["digest"] != want:
                verdict.update(cert=False, why="output does not match its stored digest")
            verdicts[msg["raw"]] = verdict["cert"]
            if not verdict["cert"]:
                self.failures.append("%s %s: %s" % (inst["family"], inst["trial"], verdict["why"]))
        if not verdicts.get(msg["raw"], False):
            att.update(status="mismatch", s=self.timeout)
        if lost:
            return att, None, self.start(trace, hidden)
        return att, self._trace_msg(w, trace), w

    def _trace_msg(self, w, trace):
        if not trace:
            return None
        msg = w.recv(CERT_TIMEOUT_S)
        if msg is None:
            raise WorkerFailed("traced worker sent no spans")
        return msg


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def self_check(expected: dict) -> None:
    """The owned generators still produce the test suite's instances."""
    ref = expected["reference"]
    first = gen.ghnf_family(trials=len(ref["ghnf_seed7_first"]))
    if [{"n": i["n"], "gens": i["gens"]} for i in first] != ref["ghnf_seed7_first"]:
        raise SystemExit("generator self-check failed: seed 7 does not give the test's first instances")
    n, system, sigma = gen.laurent_family()[101]
    if [n, system, sigma] != ref["laurent_seed13_trial101"]["input"]:
        raise SystemExit("generator self-check failed: seed 13 trial 101 changed")


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_of(rounds) -> list[dict]:
    """Each instance's best attempt over the rounds, in pool order.

    A wrong output or an error (the call raised, or the worker died) in
    any round sticks to the instance.  Otherwise an instance answered in
    any round is answered, at its fastest latency; one never answered
    timed out, at the timeout latency.
    """
    best: dict = {}
    for attempts in rounds:
        for a in attempts:
            b = best.get(a["idx"])
            if b is None or b["status"] not in BAD and (
                    a["status"] in BAD
                    or (a["status"] != "ok", a["s"]) < (b["status"] != "ok", b["s"])):
                best[a["idx"]] = a
    return [best[i] for i in sorted(best)]


def end_to_end(run: Run, best) -> dict:
    answered = sum(1 for a in best if a["status"] == "ok")
    lat = [a["s"] for a in best]
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "instances_per_s": (answered / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "answered_share": (answered / len(best), "share"),
        "peak_rss_mb": (max(run.rss_kb) / 1024.0, "MB"),
    }


def per_layer(traces, traced, untraced, absent) -> dict:
    """Per-layer totals over the traced pass's spans and counters."""
    calls: dict = {}
    self_s: dict = {}
    counters: dict = {}
    completion_keys: list = []
    branches = 0
    for msg in traces:
        names, spans = msg["names"], msg["spans"]
        for name, (c, s) in layertrace.self_times(names, spans).items():
            calls[name] = calls.get(name, 0) + c
            self_s[name] = self_s.get(name, 0.0) + s
        branches += layertrace.children_of(names, spans, "laurent.dec_laurent", "laurent.make_character")
        for name, value in msg["counters"].items():
            if name == "zx_lattice.completion.keys":
                completion_keys += value
            elif name.endswith((".hits", ".units")):
                counters[name] = counters.get(name, 0) + value
            else:
                counters[name] = max(counters.get(name, 0), value)

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("zx_lattice._reduce", "pid_linalg._hnf_int", "polyzx.prime_factors",
                  "saturation._zfactor_prime", "pid_linalg.hnf_modpoly", "laurent.make_character",
                  "constants.pow_zx", "constants.kth_roots", "cli._build_parser", "binomial.dec_mono",
                  "zx_lattice.ghnf", "zx_lattice.ghnf_track"):
        m[layer + ".calls"] = (calls.get(layer, 0), "count")
    for layer in ("zx_lattice._reduce", "zx_lattice._complete", "zx_lattice._precondition",
                  "pid_linalg._hnf_int", "polyzx.prime_factors", "saturation._zfactor_prime",
                  "saturation.xfactor", "pid_linalg.hnf_modpoly", "laurent.make_character",
                  "constants.pow_zx", "constants.kth_roots", "cli._build_parser", "cli.run",
                  "binomial.dec_mono"):
        m[layer + ".self_s"] = (self_s.get(layer, 0.0), "s")
    m["textio.self_s"] = (sum(v for k, v in self_s.items() if k.startswith("textio.")), "s")
    m["pid_linalg._hnf_int.max_bits"] = (counters.get("pid_linalg._hnf_int.max_bits", 0), "bits")
    m["pid_linalg._hnf_int.max_cells"] = (counters.get("pid_linalg._hnf_int.max_cells", 0), "count")
    m["polyzx.prime_factors.max_in_bits"] = (counters.get("polyzx.prime_factors.max_in_bits", 0), "bits")
    m["zx_lattice.completion.distinct_share"] = (share(len(set(completion_keys)), len(completion_keys)), "share")
    m["saturation.zfactor.hit_share"] = (
        share(counters.get("saturation._zfactor_prime.hits", 0), calls.get("saturation._zfactor_prime", 0)),
        "share")
    m["laurent.make_character.unit_share"] = (
        share(counters.get("laurent.make_character.units", 0), calls.get("laurent.make_character", 0)),
        "share")
    m["laurent.dec_laurent.branches"] = (branches, "count")
    m["zx_lattice.out_bits_max"] = (counters.get("zx_lattice.out_bits_max", 0), "bits")
    pairs = [(traced[k], untraced[k]) for k in traced if k in untraced]
    m["trace.overhead_share"] = (
        share(sum(t for t, _ in pairs), sum(u for _, u in pairs)) - 1.0 if pairs else 0.0, "share")
    out = {}
    for name, (value, unit) in m.items():
        entry = {"value": value, "unit": unit}
        if any(name.startswith(a + ".") for a in absent) or (
                name == "zx_lattice.completion.distinct_share" and "zx_lattice._complete" in absent) or (
                name == "saturation.zfactor.hit_share" and "saturation._zfactor_prime" in absent):
            entry["absent"] = True
        out[name] = entry
    return out


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "sigma_binomial")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "cpu": cpu, "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": src.hexdigest()[:16]}


def measure(workload: str, seed: int, seconds: float, trace: bool, pool=None, hidden=()) -> dict:
    """One run.  ``pool`` and ``hidden`` are for the self-test (smoke.py)."""
    expected = load_expected()
    self_check(expected)
    pool = gen.POOLS[workload]() if pool is None else pool
    run = Run(expected["digests"][workload], TIMEOUT_S[workload], SETTLE_S[workload])
    rng = random.Random("%s:%d" % (workload, seed))
    if not trace:
        for _ in range(SETUP_SPAWNS):
            run.finish(run.start())
    rounds, traced, traces = [], [], []
    deadline = time.perf_counter() + min(seconds, RUN_LIMIT_S)
    for r in range(1 if trace else ROUNDS[workload]):
        if r and time.perf_counter() >= deadline:
            break
        order = list(enumerate(pool))
        rng.shuffle(order)
        if trace:
            (traced, plain), traces = run.run_pass(order, sides=((True, hidden), (False, ())))
            rounds.append(plain)
        else:
            rounds.append(run.run_pass(order, deadline=deadline if r else None)[0][0])
    if trace:
        absent = traces[0]["absent"] if traces else []
        metrics = per_layer(traces, _ok_times(traced), _ok_times(rounds[0]), absent)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(run, best_of(rounds)).items()}
    best = best_of(rounds + [traced])
    for line in run.failures[:20]:
        print("check: " + line, file=sys.stderr)
    return {"correct": not any(a["status"] in BAD for a in best),
            "attempted": len(best),
            "failed": sum(1 for a in best if a["status"] != "ok"),
            "metrics": metrics,
            "_rounds": rounds, "_traced": traced,
            "_timeouts": sum(1 for a in best if a["status"] == "timeout")}


def _ok_times(attempts) -> dict:
    return {a["idx"]: a["s"] for a in attempts if a["status"] == "ok"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(gen.POOLS), help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0, help="draws the order of each round")
    ap.add_argument("--seconds", type=float, default=30.0, help="time budget for the rounds (at least one round runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's self-test instead")
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally, so that every live worker is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.smoke:
        import smoke

        return smoke.main()
    for workload in [args.workload] if args.workload else list(gen.POOLS):
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        info = environment(workload, args.seed)
        info.update(rounds=len(result.pop("_rounds")), timeouts=result.pop("_timeouts"),
                    instance_timeout_s=TIMEOUT_S[workload], trace=args.trace)
        del result["_traced"]
        print(json.dumps({"info": info}))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

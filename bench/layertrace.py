"""Per-layer tracing from outside the library.

Each layer function is wrapped and the wrapper is rebound in every
``sigma_binomial`` module that holds the function, whether as an
attribute (``from .zx_lattice import ghnf``) or as a value in a
module-level table (the CLI's command dictionaries).  Nothing under
``src/`` is edited.

Public entry points are required: tracing fails if one is missing.
Internal functions are optional, because planned rewrites delete or
replace them; a missing one is reported as absent.

While an instance runs, each wrapped call records a span
``(name, start, end, parent, extra)``; ``extra`` is the time the wrapper
spent on its own bookkeeping, which is charged to no layer.  Spans stay
in memory until the instance ends, then go to the runner with the
counters that only the wrapper can see (input sizes, output bits,
distinct completion inputs).  ``self_times`` and ``children_of`` turn
one instance's spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "sigma_binomial"

# (module, function, required)
LAYERS = (
    ("zx_lattice", "ghnf", True),
    ("zx_lattice", "ghnf_track", True),
    ("zx_lattice", "gker", True),
    ("zx_lattice", "_precondition", False),
    ("zx_lattice", "_complete", False),
    ("zx_lattice", "_reduce", False),
    ("pid_linalg", "_hnf_int", False),
    ("pid_linalg", "hnf_modpoly", True),
    ("polyzx", "prime_factors", False),
    ("saturation", "sat_z", True),
    ("saturation", "sat_p", True),
    ("saturation", "xfactor", True),
    ("saturation", "zfactor", True),
    ("saturation", "_zfactor_prime", False),
    ("laurent", "make_character", True),
    ("laurent", "reflexive_closure", True),
    ("laurent", "dec_laurent", True),
    ("constants", "pow_zx", True),
    ("constants", "kth_roots", True),
    ("binomial", "dec_mono", True),
    ("binomial", "dec_binomial", True),
    ("cli", "run", True),
    ("cli", "_build_parser", False),
)
# Every function defined in this module is traced, and reported as one layer.
WHOLE_MODULES = ("textio",)


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _basis_bits(basis) -> int:
    return max((_bits(p.coeffs) for c in basis.columns for p in c.entries), default=0)


def _completion_key(inputs, track) -> int:
    # Built from ints, bools and tuples only, whose hashes are the same in
    # every process (None's is not), so keys from different worker
    # processes can be compared.  -1 stands for an untracked input.
    return hash((bool(track), tuple(
        (tuple(p.coeffs for p in it.vec.entries),
         -1 if it.expr is None else tuple(p.coeffs for p in it.expr))
        for it in inputs
    )))


def _note_hnf_int(counters, args, kwargs, result):
    columns = args[0]
    cells = len(columns) * (len(columns[0]) if columns else 0)
    h, u = result
    bits = max(max((_bits(c) for c in h), default=0), max((_bits(c) for c in u), default=0))
    counters["pid_linalg._hnf_int.max_cells"] = max(counters.get("pid_linalg._hnf_int.max_cells", 0), cells)
    counters["pid_linalg._hnf_int.max_bits"] = max(counters.get("pid_linalg._hnf_int.max_bits", 0), bits)


def _note_prime_factors(counters, args, kwargs, result):
    bits = abs(args[0]).bit_length()
    name = "polyzx.prime_factors.max_in_bits"
    counters[name] = max(counters.get(name, 0), bits)


def _note_complete(counters, args, kwargs, result):
    track = kwargs.get("track", args[1] if len(args) > 1 else False)
    counters.setdefault("zx_lattice.completion.keys", []).append(_completion_key(args[0], track))


def _note_ghnf(counters, args, kwargs, result):
    basis = result[0] if isinstance(result, tuple) else result
    name = "zx_lattice.out_bits_max"
    counters[name] = max(counters.get(name, 0), _basis_bits(basis))


def _note_zfactor_prime(counters, args, kwargs, result):
    if result:
        counters["saturation._zfactor_prime.hits"] = counters.get("saturation._zfactor_prime.hits", 0) + 1


def _note_make_character(counters, args, kwargs, result):
    if type(result).__name__ == "UnitIdeal":
        counters["laurent.make_character.units"] = counters.get("laurent.make_character.units", 0) + 1


NOTES = {
    "pid_linalg._hnf_int": _note_hnf_int,
    "polyzx.prime_factors": _note_prime_factors,
    "zx_lattice._complete": _note_complete,
    "zx_lattice.ghnf": _note_ghnf,
    "zx_lattice.ghnf_track": _note_ghnf,
    "saturation._zfactor_prime": _note_zfactor_prime,
    "laurent.make_character": _note_make_character,
}


class Tracer:
    """Span recorder for one worker process; active only inside an instance."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict = {}
        self.absent: list[str] = []
        self.instance = None

    @classmethod
    def install(cls, hidden=()) -> "Tracer":
        """Wrap every layer function; names in ``hidden`` are treated as missing."""
        tracer = cls()
        importlib.import_module(PACKAGE)
        targets = []
        for mod_name, fn_name, required in LAYERS:
            module = importlib.import_module("%s.%s" % (PACKAGE, mod_name))
            name = "%s.%s" % (mod_name, fn_name)
            fn = None if name in hidden else getattr(module, fn_name, None)
            if fn is None:
                if required:
                    raise RuntimeError("public layer function %s is missing" % name)
                tracer.absent.append(name)
                continue
            targets.append((name, fn))
        for mod_name in WHOLE_MODULES:
            module = importlib.import_module("%s.%s" % (PACKAGE, mod_name))
            for fn_name, fn in sorted(vars(module).items()):
                if callable(fn) and getattr(fn, "__module__", None) == module.__name__ \
                        and not isinstance(fn, type):
                    targets.append(("%s.%s" % (mod_name, fn_name), fn))
        for name, fn in targets:
            tracer._rebind(fn, tracer._wrap(name, fn))
        return tracer

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, 0.0)
            if note is not None:
                note(self.counters, args, kwargs, result)
                spans[idx] = (nid, t0, t1, parent, clock() - t1)
            return result

        return wrapper

    @staticmethod
    def _rebind(fn, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = wrapper

    def begin(self, instance_id) -> None:
        self.instance = instance_id
        self.active = True

    def end(self) -> None:
        self.active = False
        self.stack.clear()

    def flush(self) -> dict:
        """The instance's spans and counters, as a message; clears both."""
        msg = {
            "instance": self.instance,
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "counters": self.counters,
            "absent": self.absent,
        }
        self.spans.clear()
        self.counters = {}
        return msg


def self_times(names, spans) -> dict:
    """Per-name (calls, self seconds) for one instance's spans.

    A span's self time is its duration minus the time its direct children
    cover, where a child covers its own duration plus its bookkeeping.
    """
    covered = [0.0] * len(spans)
    for nid, t0, t1, parent, extra in spans:
        if parent >= 0:
            covered[parent] += (t1 - t0) + extra
    out: dict = {}
    for (nid, t0, t1, parent, extra), cov in zip(spans, covered):
        calls, self_s = out.get(names[nid], (0, 0.0))
        out[names[nid]] = (calls + 1, self_s + (t1 - t0) - cov)
    return out


def children_of(names, spans, parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
    parents = {i for i, s in enumerate(spans) if names[s[0]] == parent_name}
    return sum(1 for s in spans if names[s[0]] == child_name and s[3] in parents)

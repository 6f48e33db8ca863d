"""Outside-in tracing of gamma2lab for the benchmark's traced runs.

``install()`` wraps every public function of the package's modules and the
LAPACK/ARPACK entry points it calls.  Each call records one span
``(id, parent, name, start_ns, end_ns)`` in memory; nothing is written until
``Tracer.dump`` runs after the last operation.  Self time of a span is its
duration minus the durations of its direct children, so the self times of
all spans add up to the time covered by the outermost ones.

Wrapping happens from outside the package: a wrapped function replaces the
original under every name that refers to it in any ``gamma2lab`` module,
because modules such as ``bounds`` import functions by name.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("fock", "canonical", "rdm", "pairing", "bounds", "cli")
LINALG = (("numpy.linalg", ("svd", "eigh", "eigvalsh")),
          ("scipy.sparse.linalg", ("eigsh",)))
COMPLEX_BYTES = 16


class Tracer:
    """In-memory span recorder with per-call hooks for layer counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.originals: dict[str, object] = {}

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the id; filled in on exit
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        self.originals[name] = fn
        return traced

    def summary(self) -> dict:
        """Self time and call count per span name, plus the counters.

        The mask-cache hit ratio comes from the public ``cache_info()`` of
        ``fock.occupation_masks``; the child process starts with it empty.
        """
        masks = self.originals.get("fock.occupation_masks")
        if masks is not None:
            info = masks.cache_info()
            lookups = info.hits + info.misses
            self.counters["fock.mask_cache_hit_ratio"] = (
                info.hits / lookups if lookups else 0.0)
        child = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for sid, _, name, start, end in self.spans:
            self_ns[name] += end - start - child[sid]
            calls[name] += 1
        return {"self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "calls": dict(calls), "counters": dict(self.counters)}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: a header, then one span per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name",
                                            "start_ns", "end_ns"],
                                 "clock": "time.perf_counter_ns",
                                 "spans": len(self.spans)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


def _rebind(original, replacement) -> None:
    """Point every gamma2lab module-level name bound to ``original`` elsewhere."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "gamma2lab"
                                  or modname.startswith("gamma2lab.")):
            continue
        for attr, obj in list(vars(module).items()):
            if obj is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap the package and linalg entry points; return the live tracer."""
    import importlib

    tracer = Tracer()
    eigsh_depth = [0]
    counters = tracer.counters

    masks_cache = importlib.import_module("gamma2lab.fock").occupation_masks
    misses_seen = [masks_cache.cache_info().misses]

    def masks_hook(args, kwargs, result):
        misses = masks_cache.cache_info().misses
        if misses > misses_seen[0]:  # this call enumerated, it was not a hit
            counters["fock.states_enumerated"] += len(result)
            misses_seen[0] = misses

    def gamma2_hook(args, kwargs, result):
        basis = args[0].basis
        nbytes = (math.comb(basis.d, basis.N - 2) * basis.d * (basis.d - 1) // 2
                  * COMPLEX_BYTES)
        counters["rdm.gamma2_column_bytes"] = max(
            counters["rdm.gamma2_column_bytes"], nbytes)

    def report_hook(args, kwargs, result):
        counters["cli.report_bytes"] += os.path.getsize(args[1])

    def matvec_hook(args, kwargs, result):
        if eigsh_depth[0]:
            counters["bounds.lanczos_matvecs"] += 1

    def eigvalsh_hook(args, kwargs, result):
        counters["linalg.eigvalsh.dim_max"] = max(
            counters["linalg.eigvalsh.dim_max"], args[0].shape[-1])

    hooks = {"fock.occupation_masks": masks_hook,
             "rdm.compute_gamma2": gamma2_hook,
             "cli.write_report": report_hook,
             "pairing.apply_B_star": matvec_hook,
             "linalg.eigvalsh": eigvalsh_hook}

    for layer in LAYERS:
        module = importlib.import_module(f"gamma2lab.{layer}")
        for attr, fn in list(_public_functions(module)):
            name = f"{layer}.{attr}"
            _rebind(fn, tracer.wrap(name, fn, hooks.get(name)))

    for modname, attrs in LINALG:
        module = importlib.import_module(modname)
        for attr in attrs:
            fn = getattr(module, attr)
            wrapped = tracer.wrap(f"linalg.{attr}", fn, hooks.get(f"linalg.{attr}"))
            if attr == "eigsh":
                wrapped = _counting_depth(wrapped, eigsh_depth)
            setattr(module, attr, wrapped)

    return tracer


def _counting_depth(fn, depth):
    """Keep ``depth[0]`` > 0 while ``fn`` runs, so nested calls can tell."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        depth[0] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1

    return counted

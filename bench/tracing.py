"""Spans around the public functions of each invsem layer.

The wrappers live here, in the benchmark, and are installed by replacing
module attributes while a pass runs.  Every module reaches the others
through module attributes (``core.validate(...)``), and a module's own
calls go through its globals, so calls between layers and within a layer
are both seen.  Each call records one span (name, start, end, parent);
spans stay in memory and are written out once, at the end of the run.

Generator functions are not wrapped: their work happens while the caller
iterates, so it counts as the caller's self time.  In ``cli`` only the
entry point ``run`` is wrapped, so that its self time is the command
line's own work (argument parsing, JSON encoding and decoding, file I/O)
with the library calls below it taken out.
"""

import contextlib
import dataclasses
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("core", "actions", "congruences", "morphisms", "trhull", "billhardt",
          "products", "cli")
CLI_ENTRY = ("run",)
COUNTS = ("core.validate.cells", "actions.enumerate_actions.found",
          "actions.enumerate_surjective_eps.found", "congruences.enumerate_congruences.found",
          "billhardt.find_transversal.found", "products.table_bytes",
          "cli.json_bytes_written", "cli.json_bytes_read")


def _tables(obj, depth=6):
    """{id: nbytes} of the Cayley tables reachable through dataclass fields."""
    from invsem.core import FiniteSemigroup
    out, seen, todo = {}, set(), [(obj, 0)]
    while todo:
        o, d = todo.pop()
        if id(o) in seen or d > depth:
            continue
        seen.add(id(o))
        if isinstance(o, FiniteSemigroup):
            out[id(o.table)] = o.table.nbytes
        elif isinstance(o, (tuple, list)) and len(o) <= 8:
            todo.extend((x, d + 1) for x in o)
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            todo.extend((getattr(o, f.name), d + 1) for f in dataclasses.fields(o))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.stack = []
        self.counts = {}
        self.patches = []
        for layer in LAYERS:
            mod = importlib.import_module(f"invsem.{layer}")
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                        or (layer == "cli" and attr not in CLI_ENTRY)):
                    continue
                qual = f"{layer}.{attr}"
                self.patches.append((mod, attr, fn, self._wrap(qual, fn)))

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after(self, qual, args, kwargs, result):
        """Counts read off a call's inputs and outputs."""
        if qual == "core.validate":
            self._count("core.validate.cells", result.order ** 2)
        elif qual in ("actions.enumerate_actions", "actions.enumerate_surjective_eps",
                      "congruences.enumerate_congruences"):
            self._count(f"{qual}.found", len(result))
        elif qual == "billhardt.find_transversal":
            self._count(f"{qual}.found", int(result is not None))
        elif qual.startswith("products.build_") and not any(
                self.names[self.name[i]].startswith("products.build_") for i in self.stack):
            # outermost builder only; tables handed in as arguments are not built here
            built = _tables(result)
            for i in _tables(args + tuple(kwargs.values())):
                built.pop(i, None)
            self._count("products.table_bytes", sum(built.values()))
        elif qual == "cli.run":
            argv = list(args[0]) if args else []
            out = None
            for flag in ("-o", "--out"):
                if flag in argv[:-1]:
                    out = argv[argv.index(flag) + 1]
            if out is not None and os.path.exists(out):
                self._count("cli.json_bytes_written", os.path.getsize(out))
            self._count("cli.json_bytes_read", sum(
                os.path.getsize(a) for a in argv
                if a != out and a.endswith(".json") and os.path.isfile(a)))

    def _wrap(self, qual, fn):
        nid = len(self.names)
        self.names.append(qual)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self.stack

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            self._after(qual, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextlib.contextmanager
    def active(self):
        for mod, attr, _, traced in self.patches:
            setattr(mod, attr, traced)
        try:
            yield
        finally:
            for mod, attr, fn, _ in self.patches:
                setattr(mod, attr, fn)

    def self_times(self):
        """(self seconds, calls) per wrapped name: a span's duration minus the
        durations of the spans directly below it."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        name = np.asarray(self.name, dtype=np.int64)
        below = parent >= 0
        child = np.bincount(parent[below], weights=dur[below], minlength=len(dur))
        k = len(self.names)
        return (np.bincount(name, weights=dur - child, minlength=k),
                np.bincount(name, minlength=k))

    def metrics(self, passes):
        """Per-pass layer metrics: self time and calls of every wrapped
        function, self time of every layer, the counts, and the part of the
        pass that no span covers (benchmark glue, fixtures, partial_bijections)."""
        self_s, calls = self.self_times()
        n = len(passes)
        out = {layer + ".self_s": 0.0 for layer in LAYERS}
        for qual, s, c in zip(self.names, self_s, calls):
            out[f"{qual}.self_s"] = float(s) / n
            out[f"{qual}.calls"] = float(c) / n
            out[qual.split(".")[0] + ".self_s"] += float(s) / n
        out["unattributed.self_s"] = (sum(passes) - float(self_s.sum())) / n
        for key in COUNTS:
            out[key] = self.counts.get(key, 0) / n
        return out

    def write(self, path):
        np.savez(path, start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 name=np.asarray(self.name, dtype=np.int64),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 names=np.array(json.dumps(self.names)))

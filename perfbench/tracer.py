"""Per-layer tracing installed from the benchmark's side.

The library is left untouched: ``Tracer.install`` replaces every module
binding of each wrapped function (``from .structures import canonical_key``
copies the reference, so each importing module is patched too), wraps
methods on their classes, and restores everything on ``uninstall``.

Spans are kept in memory as parallel arrays with parent links.  A span's
self time is its duration minus the durations of its direct children; spans
nest strictly because the library is single-threaded.  Generators are timed
per ``next()`` call, so time the consumer spends between items is not
charged to them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# Wrapped callables: (module, attribute path, span name, kind).
# kind is "call" or "gen"; methods are given as "Class.method".
FUNCTIONS = (
    ("structures", "search_morphisms", "structures.search_morphisms", "gen"),
    ("structures", "canonical_key", "structures.canonical_key", "call"),
    ("structures", "Structure.__init__", "structures.Structure.init", "call"),
    ("structures", "induced_substructure", "structures.induced_substructure", "call"),
    ("structures", "verify_morphism", "structures.verify_morphism", "call"),
    ("structures", "are_isomorphic", "structures.are_isomorphic", "call"),
    ("structures", "copies_of", "structures.copies_of", "call"),
    ("closures", "closed_violation", "closures.closed_violation", "call"),
    ("closures", "semi_closed_violation", "closures.semi_closed_violation", "call"),
    ("closures", "u_closure_set", "closures.u_closure_set", "call"),
    ("completion", "ClassPlugin.obstacles_up_to", "completion.obstacles_up_to", "call"),
    ("completion", "try_completion", "completion.try_completion", "call"),
    ("completion", "completion_iff_strong", "completion.completion_iff_strong", "call"),
    ("metric", "four_values", "metric.four_values", "call"),
    ("metric", "complete_metric_graph", "metric.complete_metric_graph", "call"),
    ("metric", "structure_to_sgraph", "metric.structure_to_sgraph", "call"),
    ("metric", "sgraph_to_structure", "metric.sgraph_to_structure", "call"),
    ("pieces", "PieceFamily.__init__", "pieces.PieceFamily.init", "call"),
    ("pieces", "canonical_lift", "pieces.canonical_lift", "call"),
    ("pieces", "forb_membership", "pieces.forb_membership", "call"),
    ("ramsey", "verify_arrow", "ramsey.verify_arrow", "call"),
    ("ramsey", "partite_construction", "ramsey.partite_construction", "call"),
    ("ramsey", "partite_lemma", "ramsey.partite_lemma", "call"),
    ("ramsey", "identification_step", "ramsey.identification_step", "call"),
    ("ramsey", "unary_ramsey", "ramsey.unary_ramsey", "call"),
    ("ramsey", "hales_jewett_N", "ramsey.hales_jewett_N", "call"),
)

# Methods every plugin subclass defines for itself.
PLUGIN_METHODS = (
    ("try_strong_completion", "completion.try_strong_completion", "call"),
    ("patterns", "completion.patterns", "gen"),
)

LAYERS = ("structures", "closures", "completion", "metric", "pieces", "ramsey")
TASK_SPAN = "task"


# Counters read off a wrapped function's return value: name -> (suffix, amount).
RESULT_COUNTERS = {
    "completion.try_strong_completion": ("ok", lambda r: int(r.ok)),
    "completion.completion_iff_strong": ("checked", lambda r: r.checked),
    "ramsey.verify_arrow": ("nodes", lambda r: r.colourings_examined),
    "ramsey.hales_jewett_N": ("colourings_examined", lambda r: r.colourings_examined),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(self.stack[-1] if self.stack else -1)
        self.sp_end.append(0.0)
        self.stack.append(idx)
        self.sp_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.sp_end[idx] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        n = len(self.sp_name)
        child = [0.0] * n
        for i in range(n):
            p = self.sp_parent[i]
            if p >= 0:
                child[p] += self.sp_end[i] - self.sp_start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.sp_name[i]]] += (self.sp_end[i] - self.sp_start[i]) - child[i]
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for nid in self.sp_name:
            out[self.names[nid]] += 1
        return out

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, fn, name):
        tracer, nid, counts = self, self.name_id(name), self.counts
        suffix, amount = RESULT_COUNTERS.get(name, (None, None))
        key = f"{name}.{suffix}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if amount is not None:
                counts[key] += amount(result)
            return result

        return wrapper

    def _wrap_gen(self, fn, name):
        tracer, nid, counts = self, self.name_id(name), self.counts
        calls, yielded = name + ".calls", name + ".yielded"

        def timed(inner):
            while True:
                idx = tracer.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                counts[yielded] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    def _wrap(self, fn, name, kind):
        return self._wrap_gen(fn, name) if kind == "gen" else self._wrap_call(fn, name)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package, extra_modules=()):
        """Wrap every traced callable of ``package`` and rebind it wherever
        the package's modules or ``extra_modules`` hold a reference."""
        prefix = package.__name__ + "."
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith(prefix)]
        modules += list(extra_modules)
        for mod_name, path, name, kind in FUNCTIONS:
            owner = sys.modules[prefix + mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._wrap(cls.__dict__[attr], name, kind))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, name, kind)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        base = sys.modules[prefix + "completion"].ClassPlugin
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr, name, kind in PLUGIN_METHODS:
                if attr in cls.__dict__:
                    self._set(cls, attr, self._wrap(cls.__dict__[attr], name, kind))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- report ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self time, layer totals and counters."""
        selfs = self.self_times()
        calls = self.span_counts()
        out = {"self_s": dict(selfs), "spans": dict(calls), "counts": dict(self.counts)}
        layer = {name: 0.0 for name in LAYERS}
        for name, s in selfs.items():
            head = name.split(".", 1)[0]
            if head in layer:
                layer[head] += s
        out["layer_self_s"] = layer
        return out

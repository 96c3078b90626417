"""Tracing from outside the package: wrappers installed only in traced runs.

`Tracer.install` wraps every public function and public method of each
package module, plus the arithmetic operators of its classes, and patches
each wrapped name in every package module that imported it (so
`geometry.solve_zero_identity` is traced, not only
`poly.solve_zero_identity`).  A wrapper keeps a stack of open spans and
charges each span's self time (its duration minus the time its child
spans cover) to the key `<module>.<qualname>` of the defining module.
Spans of layer-level calls are kept in memory as (id, name, start, end,
parent id, item id) and written out by the caller; the arithmetic of
ParamPoly, RatFunc and GradedClass runs too often for that, so those
calls are only aggregated.  Untraced runs never import this module.
"""

from __future__ import annotations

import dataclasses
import fractions
import functools
import importlib
import time
import types
from collections import Counter, defaultdict

MODULES = ("poly", "chow", "chern", "cohom", "stability", "heisenberg", "pencil",
           "geometry", "claims", "cli")
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__pow__", "__neg__")
HOT_CLASSES = ("ParamPoly", "RatFunc", "GradedClass")
# private helpers worth a count of their own
EXTRA = (("poly", "_c_gcd"),)
CACHED = ("p1", "p3", "p1xp3", "p1xp1", "sigma", "_slope_poly",
          "double_structure_identity", "double_structure_solve")

EVALUATE = "poly.ParamPoly.evaluate"
SOLVER = "solve_zero_identity"

# per-layer metric -> wrapped keys whose call counts it sums
CALL_METRICS = {
    "poly.parampoly_mul": ("poly.ParamPoly.__mul__", "poly.ParamPoly.__rmul__"),
    "poly.parampoly_add": ("poly.ParamPoly.__add__", "poly.ParamPoly.__radd__",
                           "poly.ParamPoly.__sub__", "poly.ParamPoly.__rsub__"),
    "poly.evaluate": (EVALUATE,),
    "poly.subs": ("poly.ParamPoly.subs",),
    "poly.ratfunc_ops": tuple("poly.RatFunc." + op for op in ARITH),
    "poly.gcd_univariate": ("poly._c_gcd",),
    "poly.rref": ("poly.rref",),
    "pencil.generic_rank": ("pencil.QuadricPencil.generic_rank",),
    "pencil.rank1_parameter_count": ("pencil.QuadricPencil.rank1_parameter_count",),
    "cli.parse_form": ("cli.parse_form",),
    "chow.graded_mul": ("chow.GradedClass.__mul__", "chow.GradedClass.__rmul__"),
    "chow.degree": ("chow.degree",),
    "chern.twist": ("chern.twist",),
    "chern.chern_character": ("chern.chern_character",),
    "chern.todd": ("chern.todd",),
    "chern.euler_characteristic": ("chern.euler_characteristic",),
    "stability.slope_dot": ("stability.slope_dot",),
    "stability.stability_decide": ("stability.stability_decide",),
    "cohom.cohom_p1xp3": ("cohom.cohom_p1xp3",),
    "cohom.chi_sigma": ("cohom.chi_sigma",),
    "cohom.les_solve": ("cohom.les_solve",),
    "heisenberg.pair_mul": ("heisenberg.pair_mul",),
}


def package_modules():
    return {name: importlib.import_module("p1p3bundle." + name) for name in MODULES}


def lru_caches(modules):
    """name -> functools.lru_cache wrapper, for every cache in the package."""
    out = {}
    for mod in modules.values():
        for obj in vars(mod).values():
            wrapped = getattr(obj, "__wrapped__", None)
            if hasattr(obj, "cache_info") and getattr(wrapped, "__module__", None) == mod.__name__:
                out[obj.__name__] = obj
    return out


def cache_counts(caches):
    """cache.<fn>.hits / .misses as a Counter."""
    out = Counter()
    for name, fn in caches.items():
        info = fn.cache_info()
        out["cache.%s.hits" % name] += info.hits
        out["cache.%s.misses" % name] += info.misses
    return out


class Tracer:
    """Spans and counters for one process; see the module docstring."""

    def __init__(self):
        self.item = None
        self.stack = []  # open spans: [span id, time covered by children]
        self.next_id = 0
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._undo = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, key, fn, record):
        tracer = self
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                tracer.calls[key] += 1
                tracer.self_s[key] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                    parent = stack[-1][0]
                else:
                    parent = None
                if record:
                    tracer.spans.append((sid, key, start, end, parent, tracer.item))

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solver_probe(self, fn):
        """Counts the evaluate calls and the solutions of each solver call."""
        tracer = self

        def wrapper(*args, **kwargs):
            before = tracer.calls[EVALUATE]
            result = fn(*args, **kwargs)
            tracer.counts["geometry.solver_points"] += tracer.calls[EVALUATE] - before
            tracer.counts["geometry.solver_solutions"] += len(result)
            return result

        return wrapper

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # -- installation -------------------------------------------------------------

    def install(self, modules):
        replaced = {}  # id(original) -> wrapper
        for modname, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                defined_here = getattr(obj, "__module__", None) == mod.__name__
                if not defined_here:
                    continue
                public = not name.startswith("_") or (modname, name) in EXTRA
                if public and (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    replaced[id(obj)] = self._span("%s.%s" % (modname, name), obj, True)
                elif isinstance(obj, type) and not name.startswith("_"):
                    self._wrap_class(modname, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    if name == SOLVER:
                        wrapper = self._solver_probe(wrapper)
                    self._set(mod, name, wrapper)
        chow = modules["chow"]
        self._set(chow.RingSpec, "__init__", self._count("chow.ring_builds", chow.RingSpec.__init__))
        self._set(fractions.Fraction, "__new__",
                  staticmethod(self._count("poly.fraction_new", fractions.Fraction.__new__)))
        registry = modules["claims"].REGISTRY
        for claim_id, claim in list(registry.items()):
            self._undo.append((registry, claim_id, claim))
            registry[claim_id] = dataclasses.replace(
                claim, check=self._span("claims.check", claim.check, True))

    def _wrap_class(self, modname, cls):
        record = cls.__name__ not in HOT_CLASSES
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITH:
                continue
            key = "%s.%s.%s" % (modname, cls.__name__, name)
            if isinstance(attr, types.FunctionType):
                self._set(cls, name, self._span(key, attr, record and name not in ARITH))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._span(key, attr.__func__, record)))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- results ------------------------------------------------------------------

    def dump(self):
        """The tracer's aggregates as plain JSON-able data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


def merge(into, part):
    for field in ("calls", "self_s", "counts"):
        bucket = into.setdefault(field, {})
        for k, v in part.get(field, {}).items():
            bucket[k] = bucket.get(k, 0) + v
    into.setdefault("spans", []).extend(part.get("spans", []))


def layer_metrics(agg):
    """The per-layer metric values from merged tracer dumps.

    `agg` holds calls, self_s and counts (cache counts included);
    claims.<id>.cold_ms, cli.import_ms and trace.overhead_ratio are
    measured by the runner and added there.
    """
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]
    out = {}
    for mod in MODULES:
        prefix = mod + "."
        out[mod + ".calls"] = (sum(v for k, v in calls.items() if k.startswith(prefix)), "count")
        out[mod + ".self_ms"] = (1000 * sum(v for k, v in self_s.items() if k.startswith(prefix)), "ms")
    for metric, keys in CALL_METRICS.items():
        out[metric] = (sum(calls.get(k, 0) for k in keys), "count")
    for metric in ("poly.fraction_new", "chow.ring_builds", "geometry.solver_points"):
        out[metric] = (counts.get(metric, 0), "count")
    points = counts.get("geometry.solver_points", 0)
    out["geometry.solver_yield"] = (counts.get("geometry.solver_solutions", 0) / points if points else 0.0, "ratio")
    hits = misses = 0
    for fn in CACHED:
        out["cache.%s.hits" % fn] = (counts.get("cache.%s.hits" % fn, 0), "count")
        out["cache.%s.misses" % fn] = (counts.get("cache.%s.misses" % fn, 0), "count")
    for k, v in counts.items():
        if k.startswith("cache."):
            if k.endswith(".hits"):
                hits += v
            else:
                misses += v
    out["cache.all.hits"] = (hits, "count")
    out["cache.all.misses"] = (misses, "count")
    return out

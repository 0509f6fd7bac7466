"""Spans around chamberkit's layers, installed from outside the package.

Each traced function is replaced, in every chamberkit module that holds it
under some name, by a wrapper that records a span: (name, start, end,
parent span, request id).  Functions imported by name, such as
`lp_feasible` in `hypersimplex` and `weights` or `dm_valence_census` in
`series`, are patched where they are looked up, and `cli` reaches the rest
through its `hs`, `wt`, `st` and `se` module attributes.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its child spans; cache hits are `cache_info()` deltas of the
`lru_cache`d builders.
"""

import json
from time import perf_counter

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>".  Methods are given as "Class.method".
TRACED = (
    ("cli", "run"),
    ("ratutil", "parse_vector"),
    ("hypersimplex", "chamber_complex"),
    ("hypersimplex", "ChamberComplex.locate"),
    ("hypersimplex", "enumerate_admissible"),
    ("hypersimplex", "omega_set"),
    ("exactgeom", "lp_feasible"),
    ("weights", "xi"),
    ("weights", "facet_cover_count"),
    ("weights", "semistable_profile"),
    ("weights", "stability_report"),
    ("strata", "dm_valence_census"),
    ("strata", "dm_strata"),
    ("strata", "lm_strata"),
    ("strata", "lm_census"),
    ("strata", "reduction_divisors"),
    ("strata", "wonderful_divisor_census"),
    ("strata", "permutohedron_faces"),
    ("series", "comp_inverse_strata"),
    ("series", "comp_inverse_direct"),
    ("series", "mult_inverse_direct"),
    ("series", "mult_inverse_permutohedral"),
)

# An LP call is useful when it finds a feasible point (a non-None result);
# those calls are counted as the stat "feasible".
LP = "exactgeom.lp_feasible"

MODULES = ("cli", "ratutil", "hypersimplex", "exactgeom", "weights",
           "strata", "series")


class Tracer:
    def __init__(self, package):
        self.spans = []
        self.request = -1
        self._stack = []
        self._feasible = 0
        self._originals = {}
        self._cache_start = {}
        self._package = package

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, stack[-1] if stack else -1,
                              self.request)
            if name == LP and result is not None:
                self._feasible += 1
            return result

        return traced

    def install(self):
        """Patch every traced function wherever a chamberkit module holds it."""
        mods = {m: getattr(self._package, m) for m in MODULES}
        for mod, attr in TRACED:
            name = "%s.%s" % (mod, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._originals[name] = orig
                continue
            orig = getattr(mods[mod], attr)
            wrapper = self._wrap(name, orig)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
            self._originals[name] = orig
            if hasattr(orig, "cache_info"):
                self._cache_start[name] = orig.cache_info().hits

    def table(self):
        """Per-function calls, self and total seconds, cache hits, and the
        number of feasible LP calls."""
        rows = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                for name in self._originals}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (name, start, end, parent, _req) in enumerate(self.spans):
            row = rows[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        for name, hits in self._cache_start.items():
            rows[name]["cache_hits"] = (
                self._originals[name].cache_info().hits - hits)
        rows[LP]["feasible"] = self._feasible
        return rows

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request"],
                       "spans": self.spans}, fh)

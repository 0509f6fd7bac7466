"""Per-process caches of the builders, and keeping what they hold out of
the cyclic garbage collector's way.

Chamber complexes, admissible polytopes, strata censuses, weight chambers
and the `chambers --list` listings are built once per process and kept
(`cached`); a listing also keeps its JSON text once a report has rendered
it, so a warm listing request writes stored text.  With the n = 6
complex built, a process holds some 65 000 container objects, and every full
collection walks all of them: 25-50 ms, charged to whichever request happens
to trigger it.  After a request that built something, `settle` collects the
garbage and freezes what is left, so later full collections walk only the
objects made since.
"""

import gc
from functools import lru_cache, wraps

# Calls that missed a cache, over all `cached` builders; cli.run settles
# the heap after a request that moved it.
builds = 0


def cached(fn):
    """lru_cache(maxsize=None) on fn, counting its misses in `builds`."""
    @wraps(fn)
    def build(*args, **kwargs):
        global builds
        builds += 1
        return fn(*args, **kwargs)
    return lru_cache(maxsize=None)(build)


def settle():
    """Run a full collection, then move every object still alive into the
    collector's permanent generation (gc.freeze), which full collections
    skip.  Frozen objects are still freed when their last reference goes;
    only a reference cycle formed among them later would outlive its use.
    """
    gc.collect()
    gc.freeze()

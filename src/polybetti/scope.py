"""What one public call holds: its caches and its process pool.

Geometry, plans, specs and wedge layers are cached with
``scoped_cache``.  ``betti_table``, ``verify_kp1``, ``run_audits``,
``block_dimensions``, ``plan_strategy`` and ``strand_value`` run inside
``call_scope``, and the outermost open scope clears every scoped cache
when it exits.  So a table inside an audit, or the CLI's ``--primes``
loop inside one scope, shares one polygon's geometry, while a process
that runs many polygons holds only the current one's.

The outermost scope also owns the process pool that its first pooled
batch starts (``pool``, filled by ``linalg``): every batch inside the
scope shares it, and the scope joins its workers on exit.  A worker
fills only the bounded caches that building a block uses, so however
many polygons one pool serves, what a worker holds stays bounded.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

# every scoped_cache, in definition order: a scope clears this list and
# never searches modules for caches
_CACHES: list = []
_open = False
# the open outermost scope's ProcessPoolExecutor, None until a batch
# inside it pools
pool = None


def scoped_cache(maxsize: int | None = None):
    """``lru_cache(maxsize)``, cleared when the outermost call_scope
    exits."""
    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(fn)
        _CACHES.append(cached)
        return cached
    return wrap


def clear() -> None:
    """Empty every scoped cache now; an open scope keeps its pool."""
    for cached in _CACHES:
        cached.cache_clear()


@contextmanager
def call_scope():
    """Keep the scoped caches and the pool for the block; when the
    outermost block exits, also when it raises, join the pool's workers
    and then clear every cache.  Inside an open block this does
    nothing.  Like any ``contextmanager``, ``call_scope()`` also
    decorates a function."""
    global _open, pool
    if _open:
        yield
        return
    _open = True
    try:
        yield
    finally:
        _open = False
        held, pool = pool, None
        if held is not None:
            held.shutdown(wait=True, cancel_futures=True)
        clear()

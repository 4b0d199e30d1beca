"""Caches that live as long as one public call.

Geometry, plans, specs and wedge layers are cached with
``scoped_cache``.  ``betti_table``, ``verify_kp1``, ``run_audits`` and
``block_dimensions`` run inside ``call_scope``, and the outermost open
scope clears every scoped cache when it exits.  So a table inside an
audit, or the CLI's ``--primes`` loop inside one scope, shares one
polygon's geometry, while a process that runs many polygons holds only
the current one's.

A pool worker, which builds blocks and so fills caches too, never
opens a scope: each chunk of work it is sent carries the number of
the sender's scope (``current``), and the worker clears its caches
when that number moves on (``adopt``), so it holds one call's caches
however many calls its pool serves.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

# every scoped_cache, in definition order: a scope clears this list and
# never searches modules for caches
_CACHES: list = []
_open = False
# outermost scopes opened so far in this process, or, in a pool worker,
# the number of the sender's scope its caches belong to
_count = 0


def scoped_cache(maxsize: int | None = None):
    """``lru_cache(maxsize)``, cleared when the outermost call_scope
    exits."""
    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(fn)
        _CACHES.append(cached)
        return cached
    return wrap


def _clear() -> None:
    for cached in _CACHES:
        cached.cache_clear()


@contextmanager
def call_scope():
    """Keep the scoped caches for the block, and clear them all when the
    outermost block exits, also when it raises.  Inside an open block
    this does nothing.  Like any ``contextmanager``, ``call_scope()``
    also decorates a function."""
    global _open, _count
    if _open:
        yield
        return
    _open = True
    _count += 1
    try:
        yield
    finally:
        _open = False
        _clear()


def current() -> int:
    """The number of the latest outermost scope: what a chunk of pool
    work carries to its worker."""
    return _count


def adopt(count: int) -> None:
    """In a pool worker, before a chunk sent from scope ``count``: clear
    every scoped cache unless they already belong to that scope.  A
    forked worker starts with its parent's number, so it keeps the
    caches it inherited for the rest of the call that forked it."""
    global _count
    if count != _count:
        _count = count
        _clear()

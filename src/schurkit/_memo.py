"""The one memo mechanism: every cached function in schurkit is a
`functools.lru_cache` registered here, so one call empties them all."""

import functools

_registry: list = []


def memo(fn=None, *, maxsize=None):
    """Cache fn's results by argument and register the cache.  Unbounded by
    default; `@memo(maxsize=n)` keeps only the n most recently used."""
    if fn is None:
        return functools.partial(memo, maxsize=maxsize)
    cached = functools.lru_cache(maxsize)(fn)
    _registry.append(cached)
    return cached


def clear_caches() -> None:
    """Drop every memoised result in the library."""
    for cached in _registry:
        cached.cache_clear()

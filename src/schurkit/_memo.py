"""The one memo mechanism: every cached function in schurkit is a
`functools.cache` registered here, so one call empties them all."""

import functools

_registry: list = []


def memo(fn):
    """Cache fn's results by argument and register the cache."""
    cached = functools.cache(fn)
    _registry.append(cached)
    return cached


def clear_caches() -> None:
    """Drop every memoised result in the library."""
    for cached in _registry:
        cached.cache_clear()

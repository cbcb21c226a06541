"""Per-layer tracing of schurkit from outside the library.

`install(tracer)` replaces every public function of the seven library
modules with a wrapper, in every schurkit module namespace (and module-level
dict, such as `verification.SUITES`) that holds it, so calls from one library
module into another go through the wrapper.  Wrappers return the wrapped
function's result object untouched and let its exceptions through.

Each wrapped call pushes a frame on one call stack.  When it returns, its
duration minus the time of its wrapped children is its self time, credited
to the module that defines the function; the sum of all self times therefore
equals the duration of the outermost call.  Calls that cross from one module
into another, and the `cli.main` request root, also record a span
(id, parent id, name, start, end).  Same-module calls and the hot leaf
primitives in LEAVES only add to per-function counts and times.

Install only in a process that is about to run one request or sweep and
then exit: the patches are never undone.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

LAYERS = ("partitions", "raising", "tableaux", "ring", "polyval", "verification", "cli")

# Called about 1e5 times or more in a traced run of some workload: counted
# and timed in aggregate, since a span each would cost more than their work.
LEAVES = frozenset(
    {
        "partitions.normalize",
        "partitions.term_key",
        "partitions.contains",
        "partitions.horizontal_strips_within",
        "tableaux.kostka",
    }
)

# Methods traced besides the module-level functions: (module, class,
# attribute, name).  A method is looked up on its class, so the calling
# module is unknown: methods are counted and timed, never spanned.
METHODS = (("polyval", "SparsePoly", "__mul__", "polyval.SparsePoly.mul"),)


class _Stat:
    __slots__ = ("calls", "time", "depth")

    def __init__(self):
        self.calls = 0
        self.time = 0.0
        self.depth = 0


class Tracer:
    """Counts, times and spans of one traced request or sweep."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [name, time of wrapped children]
        self._span_ids = [0, -1]  # next id, innermost open span

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn: Callable, name: str, layer: str, spans: bool) -> Callable:
        """A wrapper around fn that records it under name, in layer."""
        stat = self.stats.setdefault(name, _Stat())
        stack, span_ids, all_spans = self._stack, self._span_ids, self.spans
        self_time, clock = self.self_time, time.perf_counter
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            span_id = -1
            if spans:
                span_id, span_ids[0] = span_ids[0], span_ids[0] + 1
                outer_span, span_ids[1] = span_ids[1], span_id
            frame = [name, 0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                duration = end - start
                self_time[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                if not stat.depth:  # a recursive call's time is inside its caller's
                    stat.time += duration
                if spans:
                    span_ids[1] = outer_span
                    all_spans.append((span_id, outer_span, name, start, end))
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def export(self) -> dict:
        return {
            "stats": {k: [s.calls, s.time] for k, s in self.stats.items()},
            "self_time": dict(self.self_time),
            "counters": dict(self.counters),
            "spans": self.spans,
        }


def _sized(result) -> int:
    try:
        return len(result)
    except TypeError:
        return 0


def _strips(tracer, parent, args, result):
    tracer.count("partitions.horizontal_strips_within.shapes", _sized(result))


def _ssyt(tracer, parent, args, result):
    n = _sized(result)
    tracer.count("tableaux.enumerate_ssyt.tableaux", n)
    if parent == "tableaux.lr_tableaux":
        tracer.count("tableaux.lr_tableaux.built", n)


def _lr_tableaux(tracer, parent, args, result):
    tracer.count("tableaux.lr_tableaux.kept", _sized(result))


def _lr_coefficient(tracer, parent, args, result):
    if parent == "ring.multiply":
        tracer.count("ring.multiply.lr_calls", 1)
        tracer.count("ring.multiply.lr_nonzero", 1 if result else 0)


def _poly_mul(tracer, parent, args, result):
    if len(args) == 2 and hasattr(args[1], "terms"):
        tracer.count("polyval.SparsePoly.mul.term_pairs", _sized(args[0]) * _sized(args[1]))


def _eval_s(tracer, parent, args, result):
    tracer.count("polyval.eval_s_tableau.terms", _sized(result))


HOOKS = {
    "partitions.horizontal_strips_within": _strips,
    "tableaux.enumerate_ssyt": _ssyt,
    "tableaux.lr_tableaux": _lr_tableaux,
    "tableaux.lr_coefficient": _lr_coefficient,
    "polyval.SparsePoly.mul": _poly_mul,
    "polyval.eval_s_tableau": _eval_s,
}


def public_functions() -> dict[int, tuple[str, Callable, str]]:
    """id(function) -> (traced name, function, defining layer), for every
    public function defined in a library module.  A name a later version
    removes is simply not found."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"schurkit.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                found[id(obj)] = (f"{layer}.{attr}", obj, layer)
    return found


def install(tracer: Tracer) -> None:
    """Patch every binding of every public library function to go through tracer."""
    originals = public_functions()
    wrappers: dict[tuple[str, int], Callable] = {}

    def wrapper_for(binder: str, fn) -> Callable:
        name, _, layer = originals[id(fn)]
        key = (binder, id(fn))
        if key not in wrappers:
            if inspect.isgeneratorfunction(fn):
                spans = False  # the work runs in the consumer, not in this call
            else:
                spans = name == "cli.main" or (binder != layer and name not in LEAVES)
            wrappers[key] = tracer.wrap(fn, name, layer, spans)
        return wrappers[key]

    def is_original(obj) -> bool:
        entry = originals.get(id(obj))
        return entry is not None and entry[1] is obj

    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "schurkit" or modname.startswith("schurkit.")):
            continue
        binder = modname.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if is_original(obj):
                setattr(mod, attr, wrapper_for(binder, obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if is_original(value):
                        obj[key] = wrapper_for(binder, value)

    for layer, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules.get(f"schurkit.{layer}"), cls_name, None)
        method = getattr(cls, attr, None) if cls is not None else None
        if method is not None:
            setattr(cls, attr, tracer.wrap(method, name, layer, spans=False))


def memo_entries() -> int:
    """Entries held by the library's module-level memo caches right now."""
    total = 0
    for layer in LAYERS:
        mod = sys.modules.get(f"schurkit.{layer}")
        for obj in vars(mod).values() if mod is not None else ():
            # a traced lru_cache function is reached through __wrapped__
            info = getattr(obj, "cache_info", None) or getattr(
                getattr(obj, "__wrapped__", None), "cache_info", None
            )
            if callable(info):
                total += info().currsize
        cache = getattr(mod, "_cache", None)
        if isinstance(cache, dict):
            total += len(cache)
    return total

"""Outside-in tracer: times calls into the public callables of each layer.

The tracer swaps every function named in a module's ``__all__`` for a timing
wrapper, in every module that holds a reference to it (``cli`` and ``hardy``
each import ``annulus_pipeline``, so each reference is swapped).  Functions
record one span per call: name, start, end, parent span and op id.  Classes
in ``__all__`` have their constructor timed in aggregate per name, as do the
``Word`` methods ``*``, ``inverse`` and ``**``, which run thousands of times
per op.  A call's self time is its duration minus the time spent in the
wrappers of the calls made directly inside it, the tracer's own bookkeeping
included, so that the tracer's cost never lands in a caller's self time.
Each call also records the part of that child time spent in calls into
other layers, from which ``trace.coverage`` is computed.

Nothing in the program changes: ``remove`` restores every reference, and
``installed_wrappers`` tells whether any wrapper is still in place.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from types import ModuleType
from typing import Any, Callable

LAYERS = ("groups", "covering", "induction", "cyclic", "hardy", "cli")
PACKAGE = "hardycover"
WORD_METHODS = ("__mul__", "inverse", "__pow__")

_MARK = "__perfbench_wrapper__"


def _array_bytes(value: Any) -> int:
    """Bytes of the dense arrays a result holds, from their shapes."""
    if hasattr(value, "shape") and hasattr(value, "itemsize"):
        size = 1
        for dim in value.shape:
            size *= dim
        return size * value.itemsize
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(v) for v in value)
    images = getattr(value, "images", None)
    if isinstance(images, dict):
        return sum(_array_bytes(v) for v in images.values())
    return 0


def _word_letters(self, letters, alphabet):
    return len(letters)


def _rewrite_letters(cov, trans, w):
    return len(w.letters)


def _section_terms(spec, radius, angles):
    return len(angles) * (2 * spec.degree + 1) * spec.m


# name -> (counter, count from the call's arguments)
ARG_COUNTERS: dict[str, tuple[tuple[str, Callable[..., int]], ...]] = {
    "groups.Word": (("groups.words_built", lambda *a, **k: 1), ("groups.letters_reduced", _word_letters)),
    "covering.schreier_rewrite": (("covering.rewrite_letters", _rewrite_letters),),
    "hardy.section_values": (("hardy.section_values.terms", _section_terms),),
}
# name or layer -> (counter, count from the call's result)
RESULT_COUNTERS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "induction": ("induction.dense_bytes", _array_bytes),
    "hardy.sample_section": ("hardy.boundary_points", lambda r: r.samples.shape[0]),
    "hardy.pushforward_section": ("hardy.boundary_points", lambda r: r.samples.shape[0]),
    "cli.emit_report": ("cli.report_bytes", lambda r: len(r.encode())),
}


def default_modules() -> list[ModuleType]:
    return [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]


def installed_wrappers(modules: list[ModuleType]) -> list[str]:
    """Names of public callables in ``modules`` that are currently wrapped."""
    found = []
    for mod in modules:
        for name in mod.__all__:
            obj = getattr(mod, name)
            targets = [obj]
            if inspect.isclass(obj):
                targets = [vars(obj).get(attr) for attr in ("__init__",) + WORD_METHODS]
            if any(getattr(t, _MARK, False) for t in targets):
                found.append(f"{mod.__name__}.{name}")
    return found


class Tracer:
    """Wraps the public callables of ``modules`` and accumulates per-op statistics.

    References are swapped in the traced modules and in their package.
    ``clock`` returns nanoseconds.
    """

    def __init__(self, modules: list[ModuleType], clock: Callable[[], int] = time.perf_counter_ns):
        self.modules = modules
        packages = {mod.__name__.rpartition(".")[0] for mod in modules} - {""}
        self.holders = list(modules) + [sys.modules[p] for p in sorted(packages) if p in sys.modules]
        self.clock = clock
        self.spans: list[tuple] = []
        self.ops: list[dict] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._stack: list[list] = []
        self._next_span = 0
        self._op_id: int | None = None
        self._stats: dict[str, list[int]] = {}
        self._counts: dict[str, int] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches or installed_wrappers(self.modules):
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for mod in self.modules:
                layer = mod.__name__.rpartition(".")[2]
                for name in mod.__all__:
                    obj = getattr(mod, name)
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrapper = self._wrap(obj, f"{layer}.{name}", layer, span=True)
                        for holder in self.holders:
                            for attr, value in list(vars(holder).items()):
                                if value is obj:
                                    self._patch(holder, attr, wrapper)
                    elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                        init = vars(obj).get("__init__")
                        if init is not None:
                            self._patch(obj, "__init__", self._wrap(init, f"{layer}.{name}", layer))
                        if name == "Word":
                            for method in WORD_METHODS:
                                fn = vars(obj)[method]
                                self._patch(obj, method, self._wrap(fn, f"{layer}.Word.{method}", layer))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _patch(self, holder: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._stats = {}
        self._counts = {}

    def end_op(self, wall_ns: int) -> dict:
        """Close the op; ``wall_ns`` is its wall time measured by the caller.

        ``stats`` maps each wrapped name to ``[calls, total ns, self ns, ns in
        direct calls into other layers]``.
        """
        record = {
            "op": self._op_id,
            "wall_ns": wall_ns,
            "stats": self._stats,
            "counts": self._counts,
        }
        self.ops.append(record)
        self._op_id = None
        return record

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str, span: bool = False) -> Callable:
        arg_counters = ARG_COUNTERS.get(name, ())
        result_counter = RESULT_COUNTERS.get(name) or RESULT_COUNTERS.get(layer)
        tracer = self

        def wrapper(*args, **kwargs):
            clock = tracer.clock
            entry_ns = clock()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = None
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
            # frame: [ns in the wrappers of direct children, the part of it in
            # other layers, own span id or the enclosing one, layer]
            frame = [0, 0, span_id if span else (parent[2] if parent else None), layer]
            stack.append(frame)
            try:
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    entry = tracer._stats.get(name)
                    if entry is None:
                        entry = tracer._stats[name] = [0, 0, 0, 0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[0]
                    entry[3] += frame[1]
                    if span:
                        tracer.spans.append(
                            (tracer._op_id, span_id, parent[2] if parent else None, name, start, end)
                        )
                counts = tracer._counts
                for counter, count in arg_counters:
                    counts[counter] = counts.get(counter, 0) + count(*args, **kwargs)
                if result_counter is not None:
                    counter, count = result_counter
                    counts[counter] = counts.get(counter, 0) + count(result)
                return result
            finally:
                if parent is not None:
                    # the parent spent the whole wrapper, bookkeeping included, in a child
                    spent = clock() - entry_ns
                    parent[0] += spent
                    if parent[3] != layer:
                        parent[1] += spent
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

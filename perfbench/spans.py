"""Span recording around calls into bellmi's modules, for the traced run.

:class:`Tracer` replaces the public functions and methods of each layer
module with wrappers that record a :class:`Span` (name, start, end, parent,
thread) per call.  It edits nothing on disk: it rebinds module-level names
in the running process and puts the originals back on :meth:`uninstall`.

A function imported by name (``from .sphere import sample_uniform_sphere``)
is a separate binding in every importing module, so the wrapper is bound
under every name, in every loaded ``bellmi`` module, that refers to the
original object.  Methods are replaced on their class, which every
importer shares.

The current span lives in a :class:`contextvars.ContextVar`.  Worker
threads do not inherit it, so every ``ThreadPoolExecutor`` binding in a
bellmi module is replaced by :class:`ContextExecutor`, which runs each task
in a copy of the submitting context: spans opened by ``--parallelism``
workers become children of the span that submitted them.

Not wrapped: private names, dunder methods, properties and generator
functions (a span around a generator call would end before the iteration
it stands for).  Their time counts as self time of the calling span.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

PACKAGE = "bellmi"
# Package modules whose public callables are traced, in layer order.
LAYERS = ("sphere", "models", "_kernels", "analysis", "transforms", "table", "serialize", "cli")


class Span:
    """One call: times are ``perf_counter_ns`` readings."""

    __slots__ = ("name", "start", "end", "parent", "thread", "counts")

    def __init__(self, name: str, parent: Optional["Span"], thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0
        self.end = 0
        self.counts: Optional[dict] = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``(start, end)`` intervals clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans) -> dict:
    """Map id(span) to its duration minus the time its child spans cover.

    Children from several threads may overlap; their union is subtracted
    once, so the result is wall time spent in the span and no child.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {
        id(s): s.duration_ns - covered_ns(children[id(s)], s.start, s.end)
        for s in spans
    }


class ContextExecutor(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _short_names(module) -> dict:
    """Map each public function defined in ``module`` to its shortest name."""
    names: dict = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj):
            continue
        best = names.get(obj)
        if best is None or (len(name), name) < (len(best), best):
            names[obj] = name
    return names


def _public_methods(cls):
    """(attribute, raw descriptor, function) for public methods defined on cls."""
    for name, raw in vars(cls).items():
        if name.startswith("_"):
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
            yield name, raw, fn


class Tracer:
    """Records spans around bellmi's public callables while installed.

    ``counters`` maps a span name to ``fn(args, kwargs, result) -> dict``;
    its counts are stored on the span.  Spans accumulate in memory until
    :meth:`drain` hands them over.
    """

    def __init__(self, counters: Optional[dict] = None):
        self.counters = dict(counters or {})
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._spans: list = []
        self._restore: list = []

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = self.counters.get(name)
        current = self._current
        spans = self._spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, current.get(), threading.get_ident())
            token = current.set(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                current.reset(token)
                spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def drain(self) -> list:
        """Return the spans recorded so far and start a new list."""
        out = self._spans[:]
        del self._spans[:]
        return out

    # -- installation ---------------------------------------------------

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}  # id(original function) -> wrapper
        for short in LAYERS:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for fn, name in _short_names(module).items():
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
            for cls in vars(module).values():
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for attr, raw, fn in list(_public_methods(cls)):
                    traced = self._wrap(f"{short}.{cls.__name__}.{attr}", fn)
                    if isinstance(raw, classmethod):
                        traced = classmethod(traced)
                    elif isinstance(raw, staticmethod):
                        traced = staticmethod(traced)
                    self._set(cls, attr, traced)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is ThreadPoolExecutor:
                    self._set(module, attr, ContextExecutor)
                elif inspect.isfunction(value) and id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

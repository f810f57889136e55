"""Spans around qhr's public functions, installed from outside the library.

``Tracer.install`` replaces every public module-level function of the qhr
modules, and every public method (plus a hand-written ``__init__``) of the
classes they define, with a wrapper that records a span: name, start, end,
parent and an optional small annotation.  Every module attribute that holds
the original object is rebound, so calls that went through ``from .x import
f`` are traced too.  ``uninstall`` puts the originals back.  Spans are kept
in memory; only calls on the installing thread are recorded (qhr's worker
threads run private functions only).
"""

from __future__ import annotations

import functools
import inspect
import threading
import time

MODULES = ("linalg", "model", "moments", "forward", "scalar", "mc",
           "pricing", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "meta", "child_time")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.meta = None
        self.child_time = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


class Tracer:
    """Records spans of the wrapped functions.

    annotate maps a span name to f(args, kwargs, result) -> small value kept
    as the span's meta (never the arguments themselves)."""

    def __init__(self, annotate=None):
        self.annotate = dict(annotate or {})
        self.spans = []
        self._stack = []
        self._thread = threading.get_ident()
        self._patched = []

    def _wrap(self, name, fn):
        note = self.annotate.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, time.perf_counter(),
                        stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                tracer.spans.append(span)
            if note is not None:
                span.meta = note(args, kwargs, result)
            return result

        return wrapper

    def install(self, package):
        mods = [getattr(package, m) for m in MODULES]
        replace = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_methods(short, obj, mod.__file__)
        for holder in mods + [package]:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._patched.append((holder, attr, obj))
                    setattr(holder, attr, replace[id(obj)][1])

    def _install_methods(self, short, cls, filename):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and attr != "__init__":
                continue
            if obj.__code__.co_filename != filename:
                continue  # generated by dataclass
            self._patched.append((cls, attr, obj))
            setattr(cls, attr,
                    self._wrap(f"{short}.{cls.__name__}.{attr}", obj))

    def uninstall(self):
        for holder, attr, obj in reversed(self._patched):
            setattr(holder, attr, obj)
        self._patched.clear()

    def clear(self):
        self.spans = []

    # -- aggregation -------------------------------------------------------
    def select(self, name, where=None):
        return [s for s in self.spans
                if s.name == name and (where is None or where(s))]

    def count(self, name, where=None):
        return len(self.select(name, where))

    def total(self, name, where=None):
        """Summed inclusive time of the outermost spans of name."""
        return float(sum(s.duration for s in self.select(name, where)
                         if not has_ancestor(s, name)))

    def self_total(self, prefix):
        """Summed self time of every span whose name starts with prefix."""
        return float(sum(s.self_time for s in self.spans
                         if s.name.startswith(prefix)))

    def per_call(self, name, where=None):
        spans = [s for s in self.select(name, where) if not has_ancestor(s, name)]
        return sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def as_records(self):
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": index.get(id(s.parent)), "meta": s.meta}
                for s in self.spans]


def has_ancestor(span, name):
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False

"""In-memory span recorder that wraps functions at their call bindings.

A span is ``(name, layer, start, end, parent, thread)``.  Parents come from
a per-thread stack, so spans opened in executor threads nest among
themselves and never under the main thread's spans.  Spans are kept in
memory and written once, at the end, as Chrome trace-event JSON (open it
in Perfetto or ``chrome://tracing``).

Nothing here imports the program: :mod:`traced_cli` decides what to wrap.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self, epoch_ns: int | None = None) -> None:
        self.epoch_ns = epoch_ns if epoch_ns is not None else time.perf_counter_ns()
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.labels: dict = {}
        self.missing: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrappers: dict = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, layer, start, end, parent,
                               threading.get_ident()))

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, fn, name: str, layer: str, on_result=None, generator=False):
        """Wrap ``fn`` in a span; ``on_result(result, args)`` runs after it.

        Generator functions get one span per ``next()`` (their work happens
        there, not in the call), and ``on_result`` sees each yielded item.
        One wrapper per function, so every binding shares it.
        """
        key = (fn, name)
        if key in self._wrappers:
            return self._wrappers[key]
        if generator:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                iterator = iter(fn(*args, **kwargs))
                while True:
                    with self.span(name, layer):
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    if on_result is not None:
                        on_result(item, args)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name, layer):
                    result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result, args)
                return result
        self._wrappers[key] = wrapper
        return wrapper

    def patch(self, owner, attr: str, name: str, layer: str, on_result=None,
              generator=False) -> None:
        """Replace ``owner.attr`` (module or class) by its traced wrapper.

        Class-level ``classmethod``/``staticmethod`` descriptors are
        unwrapped and re-wrapped.  A missing target is recorded, not
        raised, so a renamed function shows up as a gap in the ledger.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapped = self.wrap(fn, name, layer, on_result, generator)
        setattr(owner, attr, kind(wrapped) if kind else wrapped)

    # ------------------------------------------------------------------ #
    # Analysis and export
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Per-name and per-layer totals.

        ``inclusive_s[name]`` sums span durations; ``layer_top_s[layer]``
        sums only spans whose parent lies in another layer (so nested calls
        within one layer count once); ``self_s[layer]`` subtracts each
        span's direct children.  Over one thread's root spans, the self
        times sum to the roots' total duration.
        """
        by_id = {s[0]: s for s in self.spans}
        child_ns: dict = defaultdict(int)
        for span_id, _, _, start, end, parent, _ in self.spans:
            if parent:
                child_ns[parent] += end - start
        inclusive = defaultdict(float)
        calls = defaultdict(int)
        name_self = defaultdict(float)
        layer_self = defaultdict(float)
        layer_top = defaultdict(float)
        roots = defaultdict(float)
        for span_id, name, layer, start, end, parent, thread in self.spans:
            duration = (end - start) / 1e9
            inclusive[name] += duration
            calls[name] += 1
            own = duration - child_ns[span_id] / 1e9
            name_self[name] += own
            layer_self[layer] += own
            if not parent or by_id[parent][2] != layer:
                layer_top[layer] += duration
            if not parent:
                roots[thread] += duration
        main = threading.main_thread().ident
        return {
            "inclusive_s": dict(inclusive),
            "calls": dict(calls),
            "name_self_s": dict(name_self),
            "self_s": dict(layer_self),
            "layer_top_s": dict(layer_top),
            "main_roots_s": roots.get(main, 0.0),
            "counters": dict(self.counters),
            "labels": dict(self.labels),
            "missing": list(self.missing),
        }

    def chrome_events(self, pid: int) -> list:
        return [{
            "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": thread,
            "ts": (start - self.epoch_ns) / 1e3, "dur": (end - start) / 1e3,
            "args": {"id": span_id, "parent": parent},
        } for span_id, name, layer, start, end, parent, thread in self.spans]

    def write(self, path, pid: int) -> None:
        """Write the summary plus the Chrome trace events as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.chrome_events(pid),
                       "otherData": self.summary()}, handle)

"""Span tracer that wraps the module-level names the library's callers look up.

A traced name is replaced by a wrapper that records one span per call: its
name, start, end and the span that was open when it was called (its parent).
Self time is a span's duration minus the durations of its direct children.
Spans stay in memory until the benchmark reads them at the end of a run.

``patch`` raises when the module has no attribute of that name, so a later
rename in the library fails the traced run instead of silently reporting an
empty layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable


class TracerError(RuntimeError):
    """A traced name is missing from its module."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             on_call: Callable | None = None) -> Callable:
        """Wrapper recording a span per call; ``name`` may derive from the arguments.

        ``on_call(counts, args, kwargs, result, exc)`` runs after the call
        (outside the span) to add counts; ``exc`` is the exception raised, if any.
        """
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            idx = self._open(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self._close(idx)
                if on_call is not None:
                    on_call(self.counts, args, kwargs, result, exc)

        return traced

    # -- installing --------------------------------------------------------

    def patch(self, module: object, attr: str, name: str | Callable[..., str],
              on_call: Callable | None = None) -> None:
        if not hasattr(module, attr):
            raise TracerError(f"{getattr(module, '__name__', module)}.{attr} does not exist; "
                              "the tracer's target list is out of date")
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name, on_call))
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- reading -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        agg: dict[str, list] = {}
        for i, self_s in enumerate(self.self_times()):
            row = agg.setdefault(self.names[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.ends[i] - self.starts[i]
            row[2] += self_s
        return {k: (v[0], v[1], v[2]) for k, v in agg.items()}

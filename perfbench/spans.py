"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded around calls into qlex's public functions from the
benchmark's own code; nothing inside the package is instrumented.  A span
is (name, start, end, parent, query id); spans of one query share the id.
A layer's self time is its duration minus the time its direct children
cover.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    """Records nested spans; ``call`` wraps one function call in a span."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, query id or None].
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, qid: str | None = None) -> Iterator[int]:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, qid])
        self._stack.append(index)
        start = perf_counter()
        try:
            yield index
        finally:
            end = perf_counter()
            self._stack.pop()
            record = self.spans[index]
            record[1], record[2] = start, end

    def call(self, name: str, fn: Callable, *args, qid: str | None = None, **kwargs):
        with self.span(name, qid):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with ``self.spans``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def within(self, root: int) -> list[int]:
        """Indices of ``root`` and every span nested below it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
        return sorted(inside)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total time and self time, in seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0,
                                                                "self_s": 0.0})
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = out[name]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return dict(out)

    def write(self, path: Path) -> None:
        """Write one JSON line per span (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, qid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent, "qid": qid}) + "\n")
        tmp.replace(path)


class NullTracer:
    """Same interface as Tracer, records nothing (the untraced runs)."""

    @contextlib.contextmanager
    def span(self, name: str, qid: str | None = None) -> Iterator[int]:
        yield -1

    def call(self, name: str, fn: Callable, *args, qid: str | None = None, **kwargs):
        return fn(*args, **kwargs)


@contextlib.contextmanager
def instrument(tracer: Tracer, patches: list[tuple[object, str, str]]) -> Iterator[None]:
    """Temporarily replace ``module.attr`` with a span-recording wrapper.

    ``patches`` holds (module, attribute, span name).  Used to see the
    library calls a CLI subcommand makes; the originals are always restored.
    """
    saved = []
    try:
        for module, attr, name in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

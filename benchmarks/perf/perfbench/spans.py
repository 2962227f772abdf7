"""Host-clock spans recorded from the benchmark's own files.

The traced run replaces the public functions named in
:data:`perfbench.entrypoints.WRAP_POINTS` with wrappers for the length of one
``with`` block.  Each call appends one span — name, start, end, index of the
span that was open when it began — to an in-memory list.  A layer's *self*
time is its span's duration minus the time its direct children cover, so the
self times of one root span's subtree add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from perfbench.entrypoints import Probe, WrapPoint

#: Index fields of one span record (a plain list: cheapest thing to append).
NAME, START, END, PARENT = range(4)


class SpanRecorder:
    """In-memory span sink plus the counters the probes accumulate."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(int)  # whole counts stay whole
        self._stack: List[int] = []

    # -------------------------------------------------------------- recording
    def wrap(
        self, function: Callable[..., Any], name: str, probe: Optional[Probe] = None
    ) -> Callable[..., Any]:
        """A wrapper of ``function`` that records one span per call."""
        spans, stack, counters, clock = (
            self.spans,
            self._stack,
            self.counters,
            time.perf_counter,
        )
        before, after = probe if probe is not None else (None, None)

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                after(counters, token, args, result)
            return result

        return traced

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open a root span around a block of the benchmark's own code."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self, points: Iterable[WrapPoint]) -> Iterator[None]:
        """Patch every wrap point for the block, restoring the originals after."""
        saved = []
        try:
            for point in points:
                raw = vars(point.owner)[point.attribute]
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(
                        self.wrap(raw.__func__, point.span, point.probe)
                    )
                else:
                    patched = self.wrap(raw, point.span, point.probe)
                saved.append((point.owner, point.attribute, raw))
                setattr(point.owner, point.attribute, patched)
            yield
        finally:
            for owner, attribute, raw in reversed(saved):
                setattr(owner, attribute, raw)

    # ---------------------------------------------------------------- queries
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration_s = span[END] - span[START]
            row["calls"] += 1
            row["total_s"] += duration_s
            row["self_s"] += duration_s - child_s[index]
        return out

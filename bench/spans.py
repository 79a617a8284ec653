"""In-memory spans around calls into embseg's public functions.

A Tracer replaces a public name (a module attribute or a class attribute)
with a wrapper that opens a span, calls the original and closes the span;
`restore` puts every original back.  Spans carry a name, start and end in
perf_counter_ns, the index of the span that was open when they began and
the index of the outermost such span.
A name the program no longer has is recorded in `missing`, and the metrics
it would feed are reported as absent.
"""
from __future__ import annotations

import inspect
import time
from typing import Any, Callable

Span = list  # [name, start_ns, end_ns, parent_index, root_index]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        root = self.spans[parent][4] if self._open else idx
        self.spans.append([name, time.perf_counter_ns(), 0, parent, root])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    def hook(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        on_call: Callable[[tuple, dict], tuple[tuple, dict]] | None = None,
        on_return: Callable[[int, tuple, dict, Any], None] | None = None,
        consume: bool = False,
    ) -> None:
        """Wrap owner.attr in a span named `name`.

        on_call may rewrite the arguments; on_return sees the span index,
        the arguments and the result.  consume=True drains an iterator
        result inside the span, so a generator's work is timed.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if not hasattr(owner, attr):
            self.missing.append(label)
            return
        static = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            idx = tracer.begin(name)
            try:
                result = target(*args, **kwargs)
                if consume:
                    result = iter(list(result))
            finally:
                tracer.end(idx)
            if on_return is not None:
                on_return(idx, args, kwargs, result)
            return result

        wrapped = staticmethod(wrapper) if isinstance(static, (classmethod, staticmethod)) else wrapper
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, static))

    def restore(self) -> None:
        for owner, attr, static in reversed(self._patches):
            setattr(owner, attr, static)
        self._patches.clear()

    def durations(self, name: str, roots: set[int] | None = None) -> list[float]:
        """Durations in seconds of the spans called `name`, optionally only
        those under one of the root spans in `roots`."""
        return [
            (s[2] - s[1]) / 1e9
            for s in self.spans
            if s[0] == name and (roots is None or s[4] in roots)
        ]

    def self_time(self, idx: int) -> float:
        """Seconds of span idx not covered by its direct children."""
        start, end = self.spans[idx][1], self.spans[idx][2]
        covered = 0
        for j in range(idx + 1, len(self.spans)):
            s = self.spans[j]
            if s[1] >= end:  # spans are stored in start order
                break
            if s[3] == idx:
                covered += s[2] - s[1]
        return (end - start - covered) / 1e9

    def dump(self) -> list[list]:
        """Spans as [name, start_ns, duration_ns, parent], start relative to
        the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        return [[s[0], s[1] - t0, s[2] - s[1], s[3]] for s in self.spans]

"""In-memory spans around calls into the program's layers.

A span records name, start, end, parent, request id and a ``kind.backend``
tag.  :class:`Tracer` opens spans either directly (``with
tracer.span(...)``) or through timing wrappers it patches onto the
program's public callables for the duration of a traced pass
(:meth:`Tracer.patched`); nothing under ``src/`` changes.  Spans stay in
memory until :meth:`Tracer.write` saves them at the end of the run.

A span's self time is its duration minus the durations of its direct
children, so the self times of every span under a root add up to the
root's duration exactly.  Tracing is single-threaded: traced passes run
one caller at a time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.tags: List[Optional[str]] = []
        self.requests: List[Optional[str]] = []
        self.parents: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self._stack: List[int] = []
        #: Attached to every span opened from now on.
        self.tag: Optional[str] = None
        self.request: Optional[str] = None

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.tags.append(self.tag)
        self.requests.append(self.request)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _now()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def duration_ms(self, idx: int) -> float:
        return (self.ends[idx] - self.starts[idx]) / 1e6

    # -- patching ------------------------------------------------------
    def _wrapper(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Sequence[Tuple[object, str, str]]) -> Iterator[None]:
        """Wrap each ``(owner, attribute, span name)`` while the block runs."""
        undo = []
        try:
            for owner, attr, name in targets:
                own = vars(owner).get(attr) if isinstance(owner, type) else None
                func = getattr(owner, attr)
                setattr(owner, attr, self._wrapper(func, name))
                if isinstance(owner, type) and own is None:
                    undo.append((owner, attr, None))
                else:
                    undo.append((owner, attr, own if own is not None else func))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_ns(self, start: int = 0) -> List[int]:
        """Self time of every span recorded since index ``start``."""
        own = [self.ends[i] - self.starts[i] for i in range(len(self.names))]
        selfs = list(own)
        for i in range(start, len(self.names)):
            parent = self.parents[i]
            if parent >= 0:
                selfs[parent] -= own[i]
        return selfs[start:]

    def totals(self, start: int = 0) -> Dict[Tuple[str, Optional[str]], List[float]]:
        """``(name, tag) -> [self ms, calls]`` over spans since ``start``."""
        out: Dict[Tuple[str, Optional[str]], List[float]] = defaultdict(lambda: [0.0, 0])
        for offset, ns in enumerate(self.self_ns(start)):
            i = start + offset
            entry = out[(self.names[i], self.tags[i])]
            entry[0] += ns / 1e6
            entry[1] += 1
        return out

    def write(self, path: str) -> None:
        """Save every span as one JSON document of parallel columns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "name": self.names,
                    "tag": self.tags,
                    "request": self.requests,
                    "parent": self.parents,
                    "start_ns": self.starts,
                    "end_ns": self.ends,
                },
                handle,
            )

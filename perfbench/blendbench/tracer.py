"""In-memory spans recorded around calls into the program's public functions.

The benchmark never edits ``src/``: a traced run installs wrappers on
module functions and class methods (:class:`Patch`), records one
:class:`Span` per call, and removes every wrapper when the run ends
(:meth:`Tracer.installed` is a context manager). Spans stay in memory and
are written out once, after the run.

Each span carries its name, start and end (``time.perf_counter``), the
span that was open on the same thread when it started (its parent), the
request id the workload set on that thread, and a small dict of attributes
(counts taken from the call's arguments or result). Calls made on other
threads -- scheduler workers, HTTP handler threads -- have no parent
across the thread boundary and no request id.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    rid: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "attrs": self.attrs,
        }


Hook = Callable[[Span, tuple, dict, Any], None]


@dataclass
class Patch:
    """One wrapper: replace ``owner.attr`` with a traced version.

    *name* is the span name, or a callable ``(args, kwargs) -> name``
    (``None`` skips tracing that call). *on_exit* runs after a call that
    returned, with the span, the call's arguments and its result, and
    may fill ``span.attrs``. *on_enter* runs before the call.
    """

    owner: Any
    attr: str
    name: Union[str, Callable[[tuple, dict], Optional[str]]]
    on_exit: Optional[Hook] = None
    on_enter: Optional[Callable[[Span, tuple, dict], None]] = None


class Tracer:
    """Span recorder shared by every thread of one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, rid: int) -> Iterator[None]:
        """Tag every span this thread opens inside the block with *rid*."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            span_id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=stack[-1].span_id if stack else None,
            rid=getattr(self._local, "rid", None),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn: Callable, patch: Patch) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            name = patch.name(args, kwargs) if callable(patch.name) else patch.name
            if name is None:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            if patch.on_enter is not None:
                patch.on_enter(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if patch.on_exit is not None:
                patch.on_exit(span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, patches: Sequence[Patch]) -> Iterator["Tracer"]:
        """Install *patches* for the duration of the block, then restore
        every original attribute -- also when the block raises.

        A process forked inside the block (a shard worker) restores the
        originals at once, so child processes run untraced."""
        originals: list[tuple[Any, str, Any]] = []

        def restore() -> None:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)
            originals.clear()

        os.register_at_fork(after_in_child=restore)
        try:
            for patch in patches:
                raw = _raw_attribute(patch.owner, patch.attr)
                originals.append((patch.owner, patch.attr, raw))
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(raw.__func__, patch))
                else:
                    wrapped = self._wrap(raw, patch)
                setattr(patch.owner, patch.attr, wrapped)
            yield self
        finally:
            restore()

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(span.as_dict()) + "\n")


def _raw_attribute(owner: Any, attr: str) -> Any:
    """The attribute as stored on *owner* (classmethod objects unbound),
    so restoring it puts back exactly what was there."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                if klass is not owner:
                    raise ValueError(
                        f"{owner.__name__}.{attr} is inherited from {klass.__name__}; "
                        "patch the class that defines it"
                    )
                return vars(klass)[attr]
        raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    return getattr(owner, attr)


# -- self-time arithmetic -------------------------------------------------------


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*
    (each clipped to the window first; overlaps count once)."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    by_parent: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)
    return by_parent


def self_time(
    span: Span,
    children: Sequence[Span],
    include: Optional[Callable[[Span], bool]] = None,
) -> float:
    """*span*'s duration minus the part of it its child spans cover.

    *include* restricts which children are subtracted (``discover()``'s
    self time subtracts only its seeker children)."""
    chosen = [c for c in children if include is None or include(c)]
    return span.duration - covered(span.start, span.end, ((c.start, c.end) for c in chosen))

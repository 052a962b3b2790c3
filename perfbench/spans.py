"""In-memory span recorder that wraps names of the program from outside.

The benchmark never edits the program.  To see where a pass spends its
time it replaces module attributes (``dmrbf.ber.build_scene`` and the
like) with thin wrappers for the duration of one traced pass, and puts
the originals back afterwards.  A name that no longer exists is listed
in ``Tracer.missing`` instead of failing, so a later change that renames
a function loses only that layer metric.

Each span records its name, start, end, parent span, thread and an
optional tag (the array size, the method, a result count).  Spans opened
on a worker thread whose own stack is empty take the innermost open span
of the thread that created the tracer as parent, which ties the sweep's
thread-pool points to the sweep call that started them.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable


class Span:
    __slots__ = ("name", "tag", "parent", "thread", "start_ns", "end_ns")

    def __init__(self, name: str, tag: dict, parent: Span | None, thread: int) -> None:
        self.name = name
        self.tag = tag
        self.parent = parent
        self.thread = thread
        self.start_ns = self.end_ns = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _safe(fn: Callable[..., dict], *args) -> dict:
    """Evaluate a tag function; a failure only loses the tag."""
    try:
        return fn(*args) or {}
    except Exception:  # noqa: BLE001 - tags are best-effort observations
        return {}


class Tracer:
    """Nested spans for one traced pass, kept in memory until written."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self, thread: int) -> list[Span]:
        if thread == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag: dict) -> Span:
        thread = threading.get_ident()
        stack = self._stack(thread)
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        span = Span(name, tag, parent, thread)
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack(span.thread).pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag_args: Callable[..., dict] | None = None,
        tag_result: Callable[[Any], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.add(name)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, _safe(tag_args, *args) if tag_args else {})
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if tag_result:
                span.tag.update(_safe(tag_result, result))
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def unwrap(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[int, float]:
        """Span duration minus the part of its interval its children cover.

        Keyed by ``id(span)``.
        """
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(id(s.parent), []).append(s)
        out = {}
        for s in self.spans:
            covered = 0
            reach = s.start_ns
            for c in sorted(kids.get(id(s), ()), key=lambda c: c.start_ns):
                lo, hi = max(c.start_ns, reach), min(c.end_ns, s.end_ns)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[id(s)] = (s.end_ns - s.start_ns - covered) / 1e9
        return out

    def write_jsonl(self, path: Path, pass_label: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with path.open("a") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "pass": pass_label,
                    "id": i,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "thread": s.thread,
                    "tag": s.tag,
                }
                fh.write(json.dumps(record) + "\n")

"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start and end (``perf_counter_ns``), the span open
around it when it started (its parent), the id of the item it belongs
to, and optional attributes. Spans stay in per-thread lists until the
run ends. While the tracer is inactive, or when the benchmark runs
untraced with :data:`NULL_TRACER`, ``span`` returns a shared no-op.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer of the untraced run: records nothing."""

    active = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def item(self, item_id: int) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _ThreadSpans:
    def __init__(self, thread: int):
        self.thread = thread
        self.records: list[list] = []  # [name, start, end, parent, item, attrs]
        self.stack: list[int] = []
        self.item = -1


class _Span:
    __slots__ = ("_spans", "_record", "_index")

    def __init__(self, spans: _ThreadSpans, name: str, attrs: dict):
        self._spans = spans
        self._record = [name, 0, 0, -1, -1, attrs]
        self._index = -1

    def __enter__(self) -> "_Span":
        spans, record = self._spans, self._record
        record[3] = spans.stack[-1] if spans.stack else -1
        record[4] = spans.item
        self._index = len(spans.records)
        spans.records.append(record)
        spans.stack.append(self._index)
        record[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self._record[2] = time.perf_counter_ns()
        self._spans.stack.pop()

    def set(self, **attrs) -> None:
        self._record[5].update(attrs)


class _ItemSpan(_Span):
    __slots__ = ("_previous",)

    def __init__(self, spans: _ThreadSpans, item_id: int):
        super().__init__(spans, "item", {})
        self._previous = spans.item
        spans.item = item_id

    def __exit__(self, *exc) -> None:
        super().__exit__(*exc)
        self._spans.item = self._previous


class Tracer:
    """Span recorder; spans are kept only while ``active`` is set.

    Flip ``active`` only while no client thread is running.
    """

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._threads.append(spans)
        return spans

    def span(self, name: str, **attrs):
        if not self.active:
            return _NULL_SPAN
        return _Span(self._spans(), name, attrs)

    def item(self, item_id: int):
        """Root span of one item; spans opened inside carry ``item_id``."""
        if not self.active:
            return _NULL_SPAN
        return _ItemSpan(self._spans(), item_id)

    def records(self) -> list[dict]:
        """Every span with run-wide ids and its self time.

        Self time is the span's duration minus the time its direct child
        spans cover (children of one span never overlap: a thread nests
        its spans).
        """
        out: list[dict] = []
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            base = len(out)
            child_ns: dict[int, int] = defaultdict(int)
            for name, start, end, parent, item, attrs in spans.records:
                if parent >= 0:
                    child_ns[parent] += end - start
            for k, (name, start, end, parent, item, attrs) in enumerate(spans.records):
                out.append(
                    {
                        "id": base + k,
                        "parent": base + parent if parent >= 0 else None,
                        "thread": spans.thread,
                        "item": item,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "self_ns": end - start - child_ns[k],
                        **({"attrs": attrs} if attrs else {}),
                    }
                )
        return out

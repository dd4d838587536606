"""Low-overhead span tracing and a bounded flight recorder.

The engine tick is the service's unit of work, but until now its internal
phases — plan → bucket assembly → gather/einsum kernel → verdict →
lifecycle transition — were invisible: `FleetTelemetry` reports *that* a
tick took N microseconds, not *where* they went.  This module adds the
missing dimension without taxing the hot path:

* :class:`SpanTracer` hands out :class:`Span` objects carrying a trace id,
  a span id and a parent link.  Durations come from ``perf_counter``
  (monotonic — immune to wall-clock steps); each span also stamps an epoch
  ``start_unix_s`` so an export lines up with other logs on one timeline.
* Disabled tracing is a null object, not a flag check per call site:
  :data:`NULL_TRACER` returns the singleton :data:`NULL_SPAN` whose every
  method is a no-op, so an uninstrumented tick pays a couple of attribute
  lookups and nothing else (the overhead guard in
  ``benchmarks/test_bench_trace_overhead.py`` pins this below 2 %).
* Finished spans land in a :class:`FlightRecorder` — a bounded deque of
  plain dicts.  It dumps JSONL on demand (``scripts/trace_analysis.py``
  consumes the export).

This module imports nothing from :mod:`repro.core` so the core may import
it freely (see the lazy ``repro.telemetry.__init__``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.errors import ProtectionError

#: Finished spans a recorder retains; ~5 spans per engine tick means this
#: window covers hundreds of ticks before rotation.
DEFAULT_RECORDER_CAPACITY = 4096

_id_counter = itertools.count(1)

#: Epoch anchor: ``start_unix_s`` is derived as anchor + ``perf_counter``
#: instead of a ``time.time()`` call per span — one fewer syscall on the
#: hot path.  Lining exports up with other logs only needs millisecond-ish
#: epoch agreement, well inside the anchor's drift over a run.
_EPOCH_ANCHOR = time.time() - time.perf_counter()


def new_span_id() -> str:
    """A process-unique span id: pid-prefixed monotonic counter.

    Cheap by design (no uuid4 per span on the hot path) and unique across
    the processes of one host, which is all a single-host trace needs.
    """
    return f"{os.getpid():x}-{next(_id_counter):x}"


class SpanContext(NamedTuple):
    """The propagatable identity of a span: what its children reference."""

    trace_id: str
    span_id: str


class Span:
    """One timed operation.  Use as a context manager or finish() manually.

    ``duration_s`` is measured with ``perf_counter`` (monotonic);
    ``start_unix_s`` is an epoch stamp so exports share a timeline with
    other logs.  ``finish`` is idempotent and records the span into
    the owning tracer's flight recorder exactly once.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix_s",
        "attrs",
        "duration_s",
        "_started",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Optional[Dict],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.duration_s: Optional[float] = None
        self._started = time.perf_counter()
        self.start_unix_s = _EPOCH_ANCHOR + self._started
        self._tracer = tracer

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def enabled(self) -> bool:
        return True

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def finish(self, duration_s: Optional[float] = None) -> None:
        """Close the span and record it (idempotent).

        ``duration_s`` overrides the measured elapsed time — the engine
        uses this so the ``engine.tick`` span's duration is *exactly* the
        sample fed to the ``tick_duration_s`` histogram, which is what
        lets ``trace_analysis.py`` reproduce the histogram's p99.
        """
        if self.duration_s is not None:
            return
        self.duration_s = (
            float(duration_s)
            if duration_s is not None
            else time.perf_counter() - self._started
        )
        self._tracer._record(self)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix_s": self.start_unix_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NullSpan:
    """The do-nothing span returned by a disabled tracer.

    Its ``context`` is ``None`` so children of a null span are simply
    parentless — consistent, and free of isinstance checks at call sites.
    """

    __slots__ = ()

    context = None
    enabled = False
    trace_id = None
    span_id = None
    duration_s = None

    def set_attr(self, key: str, value: object) -> None:
        pass

    def finish(self, duration_s: Optional[float] = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class FlightRecorder:
    """A bounded in-memory buffer of finished spans.

    Oldest spans rotate out once ``capacity`` is reached (``dropped``
    counts the casualties), so a long-running service retains the recent
    flight without unbounded growth.  ``dump_jsonl`` exports on demand.
    """

    def __init__(self, capacity: int = DEFAULT_RECORDER_CAPACITY) -> None:
        if capacity < 1:
            raise ProtectionError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.dropped = 0
        self._spans: deque = deque()
        self._lock = threading.Lock()

    def record(self, span: Dict) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.capacity:
                self._spans.popleft()
                self.dropped += 1

    def spans(self) -> List[Dict]:
        """Copy of the retained spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def dump_jsonl(self, path: Path) -> Path:
        """Write the retained spans as JSONL (one span dict per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(span, sort_keys=True) for span in self.spans()]
        path.write_text("".join(line + "\n" for line in lines))
        return path


class SpanTracer:
    """Hands out spans and records the finished ones into a flight recorder."""

    enabled = True

    def __init__(self, recorder: Optional[FlightRecorder] = None) -> None:
        self.recorder = recorder if recorder is not None else FlightRecorder()

    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        attrs: Optional[Dict] = None,
    ) -> Span:
        """Start a span.  ``parent=None`` starts a new trace (a root span)."""
        if parent is not None:
            return Span(self, name, parent.trace_id, parent.span_id, attrs)
        return Span(self, name, new_span_id(), None, attrs)

    def _record(self, span: Span) -> None:
        self.recorder.record(span.to_dict())


class _NullTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    __slots__ = ()

    enabled = False
    recorder = None

    def span(self, name, parent=None, attrs=None) -> _NullSpan:
        return NULL_SPAN

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_TRACER"


NULL_TRACER = _NullTracer()


def assert_no_orphans(spans: Sequence[Dict]) -> None:
    """Raise if any span references a parent that is not in ``spans``.

    The acceptance property of an export: every stage span of a tick
    must chain back to its ``engine.tick`` span *within one export*.
    """
    known = {span["span_id"] for span in spans}
    orphans = [
        span
        for span in spans
        if span.get("parent_id") is not None and span["parent_id"] not in known
    ]
    if orphans:
        names = sorted({span["name"] for span in orphans})
        raise ProtectionError(
            f"{len(orphans)} orphaned span(s) reference parents missing from "
            f"the export: {names}"
        )

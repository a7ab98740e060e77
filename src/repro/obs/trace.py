"""Tick-span tracing: monotonic-clock stage timings as a span tree.

:class:`TickTrace` wraps each stage of the stream tick (``shard_map``
→ ``shard_merge`` → ``sai`` → ``retune`` → ``rescore`` →
``alert_emit``).  Every ``span()`` both appends a node to the current
tick's span tree (kept for the last :data:`KEEP_TICKS` ticks, for
``repro stats`` and debugging) and observes the duration into two
registry histograms:

* ``psp_tick_seconds`` — whole-tick latency;
* ``psp_tick_stage_seconds{stage=...}`` — per-stage latency.

Durations come from :func:`time.perf_counter` — the monotonic clock —
so span math survives wall-clock adjustments.  The
:data:`NULL_TRACE` singleton is the no-op twin used whenever the
runtime runs with a :class:`~repro.obs.registry.NullRegistry`: its
context managers are a pre-built object with empty ``__enter__``/
``__exit__``, keeping the uninstrumented tick free of generator
overhead.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, List, Optional

from repro.obs.registry import MetricsRegistry, NullRegistry

#: Span trees retained for inspection (per trace instance).
KEEP_TICKS = 64


class Span:
    """One timed node: a tick root or a named stage beneath it."""

    __slots__ = ("name", "seconds", "children", "_start")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.children: List["Span"] = []
        self._start = 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "children": [c.as_dict() for c in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """ASCII tree: stage name, duration in ms, children nested."""
        lines = [f"{'  ' * indent}{self.name:<14} {self.seconds * 1e3:9.3f} ms"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class _SpanContext:
    """Context manager pushing/popping one span on the trace stack."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "TickTrace", span: Span):
        self._trace = trace
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        stack = self._trace._stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        span._start = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.seconds = time.perf_counter() - span._start
        self._trace._stack.pop()
        self._trace._finish(span)


class TickTrace:
    """Span recorder bound to one registry's tick/stage histograms."""

    enabled = True

    def __init__(self, registry: MetricsRegistry, keep_ticks: int = KEEP_TICKS):
        self._registry = registry
        self._tick_hist = registry.histogram(
            "psp_tick_seconds", "Whole stream-tick latency"
        )
        self._stage_hist = registry.histogram(
            "psp_tick_stage_seconds",
            "Per-stage stream-tick latency",
            labelnames=("stage",),
        )
        self._stack: List[Span] = []
        self._ticks: Deque[Span] = deque(maxlen=keep_ticks)

    def tick(self) -> _SpanContext:
        """The root span for one runtime tick."""
        return _SpanContext(self, Span("tick"))

    def span(self, name: str) -> _SpanContext:
        """A named stage span (nests under the innermost open span)."""
        return _SpanContext(self, Span(name))

    def _finish(self, span: Span) -> None:
        if span.name == "tick":
            self._tick_hist.observe(span.seconds)
            self._ticks.append(span)
        else:
            self._stage_hist.observe(span.seconds, stage=span.name)
            if not self._stack:
                # Stage recorded outside a tick (e.g. replay audit legs):
                # keep its tree too rather than dropping it.
                self._ticks.append(span)

    def last_tick(self) -> Optional[Span]:
        return self._ticks[-1] if self._ticks else None

    @property
    def ticks(self) -> List[Span]:
        return list(self._ticks)


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_CONTEXT = _NullContext()


class _NullTrace:
    """Do-nothing twin of :class:`TickTrace` for the no-op path."""

    enabled = False

    def tick(self) -> _NullContext:
        return _NULL_CONTEXT

    def span(self, name: str) -> _NullContext:
        return _NULL_CONTEXT

    def last_tick(self) -> None:
        return None

    @property
    def ticks(self) -> List[Span]:
        return []


NULL_TRACE = _NullTrace()


def trace_for(registry) -> "TickTrace":
    """A live trace for real registries, :data:`NULL_TRACE` otherwise."""
    if isinstance(registry, NullRegistry) or not getattr(
        registry, "enabled", False
    ):
        return NULL_TRACE
    return TickTrace(registry)

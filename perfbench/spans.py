"""Span tracing from outside the program, by patching its public callables.

The tracer wraps class methods and module-level functions of the
program in the benchmark process only.  Every call becomes a span with a
name, a start, an end and a parent (the span open when it began).  Spans
are kept in memory in flat arrays and written out once, when the run
ends.  A span's self time is its duration minus the time covered by its
child spans; since calls nest, the children of one span never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Flat in-memory span store with an open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child_time = array("d")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.name_of)

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.name_of)
        self.name_of.append(name_id)
        self.parent_of.append(self._stack[-1] if self._stack else -1)
        self.child_time.append(0.0)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(self.clock())
        return span

    def close(self, span: int) -> None:
        now = self.clock()
        self.end[span] = now
        popped = self._stack.pop()
        if popped != span:
            raise RuntimeError(f"span {span} closed out of order ({popped})")
        parent = self.parent_of[span]
        if parent >= 0:
            self.child_time[parent] += now - self.start[span]

    def self_time(self, span: int) -> float:
        """Duration minus the time covered by the span's children."""
        return self.end[span] - self.start[span] - self.child_time[span]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per name: call count and total self time."""
        out: Dict[str, Dict[str, float]] = {}
        for span in range(len(self.name_of)):
            row = out.setdefault(
                self.names[self.name_of[span]], {"calls": 0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += self.self_time(span)
        return out

    def durations(self, name: str) -> List[float]:
        """Wall durations of every span called ``name``."""
        name_id = self._name_ids.get(name)
        return [
            self.end[span] - self.start[span]
            for span in range(len(self.name_of))
            if self.name_of[span] == name_id
        ]

    def write(self, directory: Path) -> None:
        """Dump the spans as raw arrays plus a JSON index of names."""
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("name_of", "parent_of", "start", "end"):
            with open(directory / f"{field}.bin", "wb") as handle:
                getattr(self, field).tofile(handle)
        (directory / "names.json").write_text(
            json.dumps(
                {
                    "names": self.names,
                    "spans": len(self),
                    "arrays": {
                        "name_of": "i", "parent_of": "i",
                        "start": "d", "end": "d",
                    },
                }
            )
        )


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder or SpanRecorder()
        self.instances: Dict[str, list] = {}
        self.counts: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, on_result=None):
        recorder = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def method(self, cls, attr: str, name: str, on_result=None) -> None:
        """Trace ``cls.attr`` (plain, class or static method)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, name, on_result))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(raw.__func__, name, on_result))
        else:
            patched = self._wrap(raw, name, on_result)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def function(self, module, attr: str, name: str) -> None:
        """Trace a module function everywhere the program bound it.

        Modules that imported the function by name hold their own
        reference, so every loaded module of the program whose attribute
        is the original function gets the wrapper.
        """
        original = getattr(module, attr)
        traced = self._wrap(original, name)
        root = module.__name__.split(".")[0]
        for loaded in list(sys.modules.values()):
            owner = getattr(loaded, "__name__", "")
            if owner.split(".")[0] != root:
                continue
            if getattr(loaded, attr, None) is original:
                self._undo.append((loaded, attr, original))
                setattr(loaded, attr, traced)

    def collect(self, cls, key: str) -> None:
        """Remember every instance of ``cls`` built while installed."""
        bucket = self.instances.setdefault(key, [])
        raw = cls.__dict__["__init__"]

        @functools.wraps(raw)
        def init(instance, *args, **kwargs):
            raw(instance, *args, **kwargs)
            bucket.append(instance)

        self._undo.append((cls, "__init__", raw))
        cls.__init__ = init

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

"""Wall-clock spans around the program's public calls, from outside.

A :class:`Tracer` replaces a callable attribute (an instance method, a
module function or a class method) by a wrapper that records one span
per call: its layer, its operation, its inclusive duration and its
*self* time, which is the duration minus the time its nested wrapped
calls took.  Spans live in memory as per-(layer, op) aggregates; the
traced run reads them when it ends.  :meth:`Tracer.restore` puts every
replaced attribute back.

Nothing under ``src/`` is changed: the wrappers sit on the boundaries
the engine, servers and runtimes already call through attribute
lookups (``scheduler.read``, ``network.send``, ...).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional, Union

_MISSING = object()

#: An operation name, or a function of the call's arguments naming it.
OpName = Union[str, Callable[..., str]]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Child time accumulated by each open span, innermost last.
        self._open: list[float] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.inclusive_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        #: Free-form counts recorded at the same boundaries.
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        layer: str,
        op: OpName,
        on_result: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` recording one span per call.

        ``on_result(result, *args)`` runs after the span closes, outside
        the timed interval, so counting outcomes costs no span time.
        """
        clock = self.clock
        open_spans = self._open
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        calls = self.calls
        fixed = None if callable(op) else (layer, op)

        def wrapped(*args, **kwargs):
            key = fixed if fixed is not None else (layer, op(*args))
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = open_spans.pop()
                self_s[key] += duration - child
                inclusive_s[key] += duration
                calls[key] += 1
                if open_spans:
                    open_spans[-1] += duration
            if on_result is not None:
                on_result(result, *args)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        op: OpName,
        on_result: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper until restore."""
        before = vars(owner).get(attr, _MISSING)
        wrapped = self.wrap(getattr(owner, attr), layer, op, on_result)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, before))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            owner, attr, before = self._undo.pop()
            if before is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        return sum(t for (lay, _), t in self.self_s.items() if lay == layer)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def op_calls(self, layer: str, *ops: str) -> int:
        return sum(self.calls.get((layer, op), 0) for op in ops)

    def op_self_us(self, layer: str, *ops: str) -> float:
        """Mean self time per call of ``ops`` in µs (0 when never called)."""
        calls = self.op_calls(layer, *ops)
        if not calls:
            return 0.0
        total = sum(self.self_s.get((layer, op), 0.0) for op in ops)
        return total / calls * 1e6

    def op_inclusive_us(self, layer: str, *ops: str) -> float:
        """Mean inclusive time per call of ``ops`` in µs."""
        calls = self.op_calls(layer, *ops)
        if not calls:
            return 0.0
        total = sum(self.inclusive_s.get((layer, op), 0.0) for op in ops)
        return total / calls * 1e6

    def ops(self, layer: str) -> list[str]:
        return sorted(op for (lay, op) in self.calls if lay == layer)

    def export(self) -> dict:
        """Plain-data aggregates (for a process to hand to another)."""
        return {
            "spans": [
                [layer, op, self.calls[(layer, op)], self.self_s[(layer, op)],
                 self.inclusive_s[(layer, op)]]
                for (layer, op) in sorted(self.calls)
            ],
            "counts": dict(self.counts),
        }

    def merge(self, exported: dict) -> None:
        """Add another process's :meth:`export` into this tracer."""
        for layer, op, calls, self_s, inclusive_s in exported["spans"]:
            self.calls[(layer, op)] += calls
            self.self_s[(layer, op)] += self_s
            self.inclusive_s[(layer, op)] += inclusive_s
        for name, value in exported["counts"].items():
            self.counts[name] += value


def span_table(tracer: Tracer) -> dict[str, list]:
    """``"layer:op" -> [calls, self seconds]``, for the run's detail line."""
    return {
        f"{layer}:{op}": [tracer.calls[(layer, op)],
                          tracer.self_s[(layer, op)]]
        for (layer, op) in sorted(tracer.calls)
    }

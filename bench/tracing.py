"""Host-time spans around the layer entry points, for the traced run.

:class:`Tracer` patches the public entry points of each layer (class
methods, listed in ``bench/layers.py``) with wrappers that record one
:class:`Span` per call: its name, layer, parent, operation id, host
start/end and virtual start/end.  The wrappers only read clocks and
append to in-memory lists, so the simulated system sees the same calls
in the same order and its virtual time is unchanged.

Generator entry points (every simulated operation is a generator) get
one host interval per resume: the wrapper pushes the span on entry to
``send``/``throw`` and pops it when the inner generator yields, so spans
of nested ``yield from`` calls nest inside their caller's interval.  A
span's *self* time is its intervals minus the intervals of the spans
running inside them; summed per layer it gives each layer's host cost.
The kernel's self time is what remains of ``Environment.run``.
"""

from __future__ import annotations

import json
import time
import types
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer"]

_GeneratorType = types.GeneratorType


class Span:
    """One call of a wrapped entry point."""

    __slots__ = ("sid", "name", "layer", "parent", "op", "host_start",
                 "host_end", "virt_start", "virt_end", "host_busy",
                 "host_self")

    def __init__(self, sid: int, name: str, layer: str,
                 parent: Optional["Span"], op: Optional[int],
                 host_start: float, virt_start: float):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.host_start = host_start
        self.host_end: Optional[float] = None
        self.virt_start = virt_start
        self.virt_end: Optional[float] = None
        #: Host seconds inside this span's intervals (children included).
        self.host_busy = 0.0
        #: ``host_busy`` minus the intervals of spans nested inside it.
        self.host_self = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "layer": self.layer,
            "parent": None if self.parent is None else self.parent.sid,
            "op": self.op,
            "host_start": self.host_start,
            "host_end": self.host_end,
            "virt_start": self.virt_start,
            "virt_end": self.virt_end,
            "host_busy": self.host_busy,
            "host_self": self.host_self,
        }


class Tracer:
    """Records spans; installs and removes the entry-point wrappers.

    ``now`` returns the current virtual time; ``clock`` the host time.
    The tracer keeps every span in memory until :meth:`write`.
    """

    def __init__(self, now: Callable[[], float] = lambda: 0.0,
                 clock: Callable[[], float] = time.perf_counter):
        self.now = now
        self.clock = clock
        self.spans: List[Span] = []
        #: Per-layer host self time, seconds.
        self.layer_self: Dict[str, float] = {}
        #: name -> the shared span of a counted function, and its calls.
        self.counted: Dict[str, Span] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[list] = []
        self._next_op = 0
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def begin(self, name: str, layer: str, op_root: bool = False) -> Span:
        """Open a span whose parent is the span running now, if any.

        The span joins its parent's operation; an ``op_root`` span with
        no enclosing operation starts a new one.
        """
        stack = self._stack
        parent = stack[-1][0] if stack else None
        op = parent.op if parent is not None else None
        if op is None and op_root:
            self._next_op += 1
            op = self._next_op
        span = Span(len(self.spans), name, layer, parent, op,
                    self.clock(), self.now())
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> None:
        self._stack.append([span, self.clock(), 0.0])

    def exit(self) -> None:
        span, start, children = self._stack.pop()
        elapsed = self.clock() - start
        own = elapsed - children
        span.host_busy += elapsed
        span.host_self += own
        self.layer_self[span.layer] = self.layer_self.get(span.layer, 0.0) + own
        if self._stack:
            self._stack[-1][2] += elapsed

    def finish(self, span: Span) -> None:
        span.host_end = self.clock()
        span.virt_end = self.now()

    def traced(self, gen, span: Span):
        """Generator: drive ``gen``, one host interval per resume."""
        value = None
        error = None
        while True:
            self.enter(span)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                self.exit()
                self.finish(span)
                return stop.value
            except BaseException:
                self.exit()
                self.finish(span)
                raise
            self.exit()
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                value = None
                error = exc

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span_wrapper(self, fn: Callable, name: str, layer: str,
                     op_root: bool = False) -> Callable:
        """Wrap ``fn``: a span per call; a returned generator is traced."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name, layer, op_root)
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit()
                tracer.finish(span)
                raise
            tracer.exit()
            if type(result) is _GeneratorType:
                return tracer.traced(result, span)
            tracer.finish(span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_wrapper(self, fn: Callable, name: str, layer: str
                        ) -> Callable:
        """Wrap a hot synchronous ``fn``: count its calls and bill its
        host time to ``layer``, through one shared span per ``name``
        instead of a span object per call."""
        span = self.counted.get(name)
        if span is None:
            span = self.counted[name] = Span(-1, name, layer, None, None,
                                              0.0, 0.0)
            self.calls[name] = 0
        tracer = self
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            tracer.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def process_wrapper(self, fn: Callable,
                        layer_of: Callable[[Any], str]) -> Callable:
        """Wrap ``Environment.process``: each new process runs inside a
        span named after it, attributed to the layer ``layer_of(gen)``
        names (the package its generator function lives in)."""
        tracer = self
        traced_code = Tracer.traced.__code__

        def wrapper(env, generator, name="", *args, **kwargs):
            code = getattr(generator, "gi_code", None)
            if code is traced_code:
                return fn(env, generator, name, *args, **kwargs)
            label = name or getattr(generator, "__name__", "process")
            span = tracer.begin("process:" + label, layer_of(generator))
            return fn(env, tracer.traced(generator, span), label,
                      *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]
              ) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`.

        Static methods stay static; the original is put back verbatim.
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------
    def virt_durations(self, name: str) -> List[float]:
        """Virtual durations of the finished spans called ``name``."""
        return [
            span.virt_end - span.virt_start
            for span in self.spans
            if span.name == name and span.virt_end is not None
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True))
                fh.write("\n")

"""In-memory span tracer that times library layers from outside.

The tracer never edits the program's source. It replaces each traced
function with a wrapper at every place a module of the package holds a
reference to it, so ``verify.train`` (bound by ``from .trainer import
train``) is traced as well as ``trainer.train``. Every wrapper records one
span: name, start, end, parent span and operation id.

Each thread keeps its own span stack. A span opened on a thread whose
stack is empty (a worker of ``beta_sweep``'s thread pool) takes as parent
the innermost open span of the thread that began the operation, which is
blocked waiting for the pool at that moment.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from dataclasses import dataclass


class Span:
    __slots__ = ("id", "parent", "op", "thread", "name", "start", "end")

    def __init__(self, id, parent, op, thread, name, start, end=None):
        self.id = id
        self.parent = parent
        self.op = op
        self.thread = thread
        self.name = name
        self.start = start
        self.end = end


def package_modules(package: str) -> list:
    """Every loaded module of ``package``, the package itself included."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


class Patches:
    """Rebinds module-level names and can put them back.

    ``replace`` points every name in ``modules`` that is bound to
    ``original`` at ``replacement``; ``restore`` undoes all replacements in
    reverse order.
    """

    def __init__(self):
        self._log: list[tuple[object, str, object]] = []

    def replace(self, modules, original, replacement) -> int:
        count = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._log.append((mod, attr, original))
                    count += 1
        return count

    def restore(self) -> None:
        while self._log:
            mod, attr, original = self._log.pop()
            setattr(mod, attr, original)


class Tracer:
    """Collects spans for wrapped functions; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._origin: list[Span] | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self) -> int:
        """Start the next operation on the calling thread; returns its id."""
        self._op += 1
        self._origin = self._stack()
        return self._op

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._origin:
            parent = self._origin[-1].id
        else:
            parent = None
        span = Span(next(self._ids), parent, self._op, threading.get_ident(), name, 0.0)
        stack.append(span)
        self.spans.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def wrap(self, name: str, func):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(span)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_stats(spans) -> dict[str, LayerStats]:
    """Per span name: call count and self seconds."""
    own = self_times(spans)
    out: dict[str, LayerStats] = {}
    for s in spans:
        st = out.setdefault(s.name, LayerStats())
        st.calls += 1
        st.self_s += own[s.id]
    return out


def root_coverage(spans, wall: float) -> float:
    """Time covered by spans that have no parent, as a share of ``wall``."""
    if wall <= 0:
        return 0.0
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return _covered(roots, -math.inf, math.inf) / wall


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("id,parent,op,thread,name,start,end\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(
                f"{s.id},{parent},{s.op},{s.thread},{s.name},{s.start!r},{s.end!r}\n"
            )

"""Per-layer spans taken from outside the program under test.

A traced run wraps the public call sites named in :data:`HOOKS` -- one
table, ``{layer: "module:attribute"}`` -- and records a span for every
call: name, start, end, parent span and the operation it belongs to.
Nothing under ``src/`` changes; the wrappers exist only while a traced run
is measuring and are removed afterwards.

A layer's self time is its spans' duration minus the time their direct
child spans cover.  Patching a name in the *calling* module (for example
``repro.compiler:analyze``) wraps only the calls made from there: the
optimizer's own internal analysis calls stay inside the optimizer span.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

HOOKS: Dict[str, str] = {
    "reader": "repro.compiler:read_all",
    "ir.convert": "repro.ir.convert:Converter.convert_defun",
    "analysis": "repro.compiler:analyze",
    "optimizer": "repro.optimizer.meta:SourceOptimizer.optimize",
    "annotate": "repro.compiler:annotate",
    "tnbind": "repro.codegen.generator:pack_tns",
    "codegen": "repro.codegen.generator:FunctionCodegen.generate",
    "ir.backtranslate": "repro.compiler:back_translate_to_string",
    "diagnostics.count_nodes": "repro.compiler:count_nodes",
    "machine": "repro.machine.cpu:Machine.run",
    "native": "repro.machine.native:translate",
    "heap.collect": "repro.machine.heap:Heap.collect",
    "machine.gc_roots": "repro.machine.cpu:Machine.gc_roots",
    "client": "repro.client:ServiceClient.request_raw",
}


class HookError(RuntimeError):
    """The hooks do not cover the layers: a target is missing, a hook
    never fired, or the spans leave too much time unattributed."""


class Tracer:
    """Spans kept in memory while a traced run measures.

    ``spans[i]`` is ``[name, start, end, parent index or -1, op]``, where
    ``op`` is the index of the measured operation (program or request)
    the span belongs to.  A span opened with :meth:`root` covers one whole
    operation; its own self time is the time no hooked layer accounts
    for."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.fired: Counter = Counter()
        self.gc_pause_s = 0.0
        #: The operation being measured; set by the benchmark loop.
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self._gc_started: Optional[float] = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """One measured operation: the parent of every hooked span in it."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.fired[layer] += 1
            index = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, layers: Iterable[str]) -> None:
        for layer in layers:
            module_name, _, path = HOOKS[layer].partition(":")
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                raise HookError(f"hook {layer}: {HOOKS[layer]} not found")
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        """CPython collector pauses that interrupt a span (not the
        benchmark's own checking between operations)."""
        if phase == "start":
            self._gc_started = perf_counter() if self._stack else None
        elif self._gc_started is not None:
            self.gc_pause_s += perf_counter() - self._gc_started
            self._gc_started = None

    def check_fired(self, layers: Iterable[str]) -> None:
        """Fail when a hooked layer never ran: a refactor that moves a
        call site must update the table, not silently drop a layer."""
        silent = [layer for layer in layers if not self.fired[layer]]
        if silent:
            raise HookError("hooks never fired: " + ", ".join(
                f"{layer} ({HOOKS[layer]})" for layer in silent))

    # -- analysis ----------------------------------------------------------

    def self_times(self, under: Optional[str] = None
                   ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(self seconds by name, total seconds by name)``; a root's self
        time is reported under its own name.  With *under*, only spans
        whose outermost ancestor is named *under* count."""
        child_time = [0.0] * len(self.spans)
        top: List[str] = []
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            top.append(top[parent] if parent >= 0 else name)
        own: Dict[str, float] = defaultdict(float)
        total: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if under is None or top[index] == under:
                own[name] += (end - start) - child_time[index]
                total[name] += end - start
        return dict(own), dict(total)

    def write_chrome_trace(self, path: str) -> None:
        """The spans as Chrome trace-event JSON (open in Perfetto)."""
        pid = os.getpid()
        events = []
        for name, start, end, parent, op in self.spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op,
                         "parent": self.spans[parent][0]
                         if parent >= 0 else None},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


@contextmanager
def root_span(tracer: Optional[Tracer], name: str):
    """:meth:`Tracer.root` when tracing, nothing otherwise."""
    if tracer is None:
        yield
    else:
        with tracer.root(name):
            yield

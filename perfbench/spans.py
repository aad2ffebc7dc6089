"""Spans recorded from outside the program, around its layers' entry points.

The benchmark never edits ``src/``: :class:`Recorder` replaces a
class's method with a wrapper that records one span per call (name,
start, end, parent span, request id), then puts the original back on
:meth:`Recorder.close`.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import Span

#: span name -> [(module, class, method)] wrapped for that span.
SPAN_POINTS: Dict[str, List[Tuple[str, str, str]]] = {
    "workloads.build_inputs": [("repro.workloads.base", "WorkloadSpec", "build_inputs")],
    "sim.run": [("repro.sim.engine", "Environment", "run")],
    "sched.decide": [("repro.sched.pipeline", "SchedulerPipeline", "decide")],
    "core.coalesce_pass": [("repro.core.coalescing", "KernelCoalescer", "coalesce_pass")],
    "core.estimation": [
        ("repro.core.estimation", "ExecutionAnalyzer", "analyze"),
        ("repro.core.estimation", "ExecutionAnalyzer", "estimate_power"),
        ("repro.core.estimation", "ExecutionAnalyzer", "profile_on_host"),
    ],
    "gpu.execute": [
        ("repro.gpu.timing", "KernelTimingModel", "execute"),
        ("repro.gpu.timing", "KernelTimingModel", "execute_batch"),
    ],
    "kernels.compile": [("repro.kernels.compiler", "KernelCompiler", "compile")],
    "vp.emulation": [
        ("repro.vp.emulation", "GPUEmulator", "kernel_cost"),
        ("repro.vp.emulation", "GPUEmulator", "kernel_time_ms"),
        ("repro.vp.emulation", "GPUEmulator", "copy_time_ms"),
    ],
    "backend.launch": [
        ("repro.backend.api", "ExecutionBackend", "launch"),
        ("repro.backend.api", "ExecutionBackend", "launch_batched"),
    ],
    "cache.disk.get": [("repro.cache.disk", "DiskCache", "get")],
    "cache.disk.put": [("repro.cache.disk", "DiskCache", "put")],
}

#: Calls counted (no span): the intercepting CUDA runtime's API surface.
COUNT_POINTS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "vp.runtime": (
        "repro.vp.cuda_runtime",
        "CudaRuntime",
        ("malloc", "free", "memcpy_h2d", "memcpy_d2h", "launch_kernel",
         "synchronize", "event_create", "event_record", "event_synchronize",
         "cpu_work"),
    ),
}


def _nbytes(value: Any) -> int:
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0) or 0)


#: Bytes a call returns (arrays built or moved): name -> (module, class, method).
BYTE_POINTS: Dict[str, Tuple[str, str, str]] = {
    "workloads.input": ("repro.workloads.base", "WorkloadSpec", "build_inputs"),
    "backend.h2d": ("repro.backend.api", "ExecutionBackend", "h2d"),
    "backend.d2h": ("repro.backend.api", "ExecutionBackend", "d2h"),
}


def _owner(module: str, cls: str) -> type:
    return getattr(importlib.import_module(module), cls)


class Recorder:
    """Wraps the entry points above for the lifetime of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.bytes: Counter = Counter()
        #: Request id stamped onto every span opened while it is set.
        self.request: Optional[str] = None
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._restore: List[Tuple[type, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def _swap(self, owner: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.request))

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bytes(self, name: str, fn: Callable) -> Callable:
        totals = self.bytes

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            totals[name] += _nbytes(result)
            return result

        return wrapper

    def install(self) -> "Recorder":
        # Byte meters go on first so span wrappers (installed after, so
        # outermost) time them too.
        for name, (module, cls, attr) in BYTE_POINTS.items():
            self._swap(_owner(module, cls), attr, lambda fn, n=name: self._bytes(n, fn))
        for name, points in SPAN_POINTS.items():
            for module, cls, attr in points:
                self._swap(_owner(module, cls), attr,
                           lambda fn, n=name: self._span(n, fn))
        for name, (module, cls, attrs) in COUNT_POINTS.items():
            owner = _owner(module, cls)
            for attr in attrs:
                if attr in owner.__dict__:
                    self._swap(owner, attr, lambda fn, n=name: self._count(n, fn))
        return self

    def close(self) -> None:
        """Put every original method back (innermost wrapper last)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.close()

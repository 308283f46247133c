"""Layer tracer installed from outside the package.

Every public function of every ``entscat`` module is wrapped, and the
wrapper is bound under every name that refers to it in any ``entscat``
module.  The modules import each other's functions by name
(``from .closedform import amplitudes``), so ``observables``, ``sweep``,
``verify`` and ``cli`` each hold their own binding; wrapping only the
defining module would miss those nested calls.

Each call becomes a span with its name, span id, parent span id, request
id, point id, start and end (``perf_counter_ns``).  The request id is set
by the client for each call it issues.  The point id numbers parameter
points: a call whose first argument is a parameter point, made outside any
other such call, starts a new point unless it passes a point object that
the current point already produced (``to_dimensionless`` returns the point
the next calls use).  Spans outside any per-point call get point id -1.

Calls, self time (span duration minus the time its child spans cover) and
raised exceptions are aggregated for every span.  Raw spans are kept in
memory up to ``SPAN_CAP`` and written by :meth:`Tracer.write_spans` when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

SPAN_FIELDS = ("name", "span", "parent", "request", "point", "start_ns", "end_ns")
SPAN_CAP = 50_000  # raw spans kept; every span is still aggregated


class Tracer:
    def __init__(
        self,
        modules: dict[str, object],
        extra_holders: tuple = (),
        point_types: tuple[type, ...] = (),
    ):
        """``modules`` maps a layer name to an ``entscat`` module whose public
        functions are wrapped; the wrappers replace every binding of those
        functions in these modules and in ``extra_holders`` (the package)."""
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.failed: list[int] = []
        self.spans = array("q")
        self.spans_dropped = 0
        self.request = -1
        self.active = False
        self._point_types = point_types
        self._stack: list[list] = []
        self._next_span = 0
        self._point = -1
        self._point_objs: dict[int, object] = {}
        self._point_depth = 0
        self._bindings: list[tuple[object, str, object]] = []
        self._install(modules, extra_holders)

    def _install(self, modules: dict[str, object], extra_holders: tuple) -> None:
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for module in (*modules.values(), *extra_holders):
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.failed.append(0)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(idx, args)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._exit(frame, None, failed=True)
                raise
            tracer._exit(frame, result, failed=False)
            return result

        return traced

    def _enter(self, idx: int, args: tuple) -> list:
        span = self._next_span
        self._next_span += 1
        starts_point = (
            self._point_depth == 0 and args and isinstance(args[0], self._point_types)
        )
        if starts_point:
            if id(args[0]) not in self._point_objs:
                self._point += 1
                self._point_objs = {id(args[0]): args[0]}
            self._point_depth = 1
            point = self._point
        else:
            point = self._point if self._point_depth else -1
            if self._point_depth:
                self._point_depth += 1
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        frame = [idx, span, parent, point, 0, time.perf_counter_ns()]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, result, failed: bool) -> None:
        end = time.perf_counter_ns()
        idx, span, parent, point, child_ns, start = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        self.calls[idx] += 1
        self.self_ns[idx] += duration - child_ns
        if failed:
            self.failed[idx] += 1
        if stack:
            stack[-1][4] += duration
        if self._point_depth:
            self._point_depth -= 1
            if self._point_depth == 0 and isinstance(result, self._point_types):
                self._point_objs[id(result)] = result
        if len(self.spans) < SPAN_CAP * len(SPAN_FIELDS):
            self.spans.extend((idx, span, parent, self.request, point, start, end))
        else:
            self.spans_dropped += 1

    def by_name(self) -> dict[str, tuple[int, float, int]]:
        """``name -> (calls, self seconds, calls that raised)``."""
        return {
            name: (calls, ns / 1e9, failed)
            for name, calls, ns, failed in zip(self.names, self.calls, self.self_ns, self.failed)
        }

    def write_spans(self, path) -> None:
        import numpy as np

        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fields=np.array(SPAN_FIELDS),
            spans=table,
            dropped=np.array(self.spans_dropped),
        )

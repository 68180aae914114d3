"""Outside-in span tracing for the traced benchmark run.

The program is not asked to trace itself: the benchmark replaces public
functions of ``repro.wsdb.*``, ``repro.sim.*``, ``repro.core.*``,
``repro.sift.*`` and ``repro.experiments`` with timing wrappers, each
under the name its caller looks it up by (a method on its class, a
function on the module that imported it by name).

Every wrapped call is one span: name, start, end, parent (the enclosing
wrapped call, -1 at the root) and group (the simulated tick, or the
experiment in ``whitefi``).  Spans stay in memory in flat typed arrays
and are written out once, at the end.  Self time -- a span's duration
minus the time of its wrapped children -- is accumulated online per
name.
"""

from __future__ import annotations

import math
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.t0 = array("d")
        self.t1 = array("d")
        self.code = array("i")
        self.parent = array("i")
        self.group_of = array("i")
        self.group = 0
        self.root_s = 0.0
        # Open spans: [span index, time covered by wrapped children].
        self._stack: list[list] = []

    def _code(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_exit: Callable[[tuple, Any, float, float], None] | None = None,
        consume: bool = False,
    ) -> Callable:
        """A timing wrapper around *fn* recording spans as *name*.

        ``consume`` drains a returned generator inside the span (the
        caller gets an iterator over the drained items), so the work a
        lazy function does is timed where it is done.  ``on_exit`` sees
        ``(args, result, start, end)`` after the span has closed.
        """
        code = self._code(name)
        stack = self._stack
        t0, t1, codes, parents, groups = (
            self.t0, self.t1, self.code, self.parent, self.group_of
        )
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(t0)
            frame = [index, 0.0]
            parents.append(stack[-1][0] if stack else -1)
            codes.append(code)
            groups.append(tracer.group)
            t1.append(0.0)
            stack.append(frame)
            start = perf()
            t0.append(start)
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = iter(list(result))
            finally:
                end = perf()
                stack.pop()
                t1[index] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_s += duration
                self_s[code] += duration - frame[1]
                total_s[code] += duration
                calls[code] += 1
            if on_exit is not None:
                on_exit(args, result, start, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def stats(self, name: str) -> tuple[float, float, int]:
        """(self seconds, inclusive seconds, calls) of one span name."""
        if name not in self.names:
            return 0.0, 0.0, 0
        code = self.names.index(name)
        return self.self_s[code], self.total_s[code], self.calls[code]

    def write(self, path: Path) -> None:
        """The span table as one ``.npz`` of columns plus the name list."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.t0[0] if self.t0 else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.code, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            group=np.frombuffer(self.group_of, dtype=np.int32),
            start_s=np.frombuffer(self.t0, dtype=np.float64) - base,
            end_s=np.frombuffer(self.t1, dtype=np.float64) - base,
        )


def span_cost_us(calls: int = 200_000) -> float:
    """Wrapper cost per span on an empty call, in microseconds."""

    def empty():
        return None

    wrapped = Tracer().wrap("empty", empty)
    best = float("inf")
    for _ in range(3):
        start = perf()
        for _ in range(calls):
            wrapped()
        traced = perf() - start
        start = perf()
        for _ in range(calls):
            empty()
        plain = perf() - start
        best = min(best, (traced - plain) / calls * 1e6)
    return best


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]

"""In-memory span recorder for the traced benchmark pass.

A span records a name, its parent span, wall start and end
(`time.perf_counter`), the CPU time of the thread that ran it
(`time.thread_time`), and optionally VmRSS at both ends, read from
/proc/self/status. Spans are kept in a list and written out once, when the
traced process ends.

Spans are opened by the benchmark's own code around calls into citegraph's
public functions (see `child.py`); citegraph itself is not modified. A span
opened on a worker thread with no span of its own open takes the innermost
span open on the thread that created the tracer as its parent, so per-author
spans from a thread pool hang under the pool's caller.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


def vmrss_mb() -> float:
    """Resident set size of this process in MB, 0.0 where /proc is unavailable."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, rss: bool = False):
        """Time the body; yields the span record so the caller can add a `count`."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        rec = {"id": next(self._ids), "name": name, "parent": parent}
        if rss:
            rec["rss_start_mb"] = vmrss_mb()
        stack.append(rec["id"])
        cpu = time.thread_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = time.thread_time() - cpu
            stack.pop()
            if rss:
                rec["rss_end_mb"] = vmrss_mb()
            self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, *, rss: bool = False, count=None) -> None:
        """Replace `owner.attr` with a version that runs inside span `name`.

        `count(args, result)`, when given, is stored on the span as its work count.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, rss=rss) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["count"] = count(args, result)
                return result

        setattr(owner, attr, traced)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))

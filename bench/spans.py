"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files around calls into the
package: ``name`` is ``<module>.<function>`` for a call into one of the
package's modules, or ``bench.<step>`` for a benchmark step that groups
such calls.  Spans live in compact columns (hot loops record hundreds of
thousands of them) and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from stats import self_time

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def __bool__(self) -> bool:
        return True          # tracing is on, even before the first span

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: float, end: float) -> int:
        """Add a finished span under the currently open one."""
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(start)
        self.end.append(end)
        return len(self.name_id) - 1

    @contextmanager
    def span(self, name: str):
        idx = self.record(name, _clock(), float("nan"))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.end[idx] = _clock()

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def self_times(self) -> dict[str, float]:
        """Self time in seconds summed per span name."""
        children = defaultdict(list)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                children[par].append((self.start[idx], self.end[idx]))
        out: dict[str, float] = defaultdict(float)
        for idx, nid in enumerate(self.name_id):
            out[self.names[nid]] += self_time(self.start[idx], self.end[idx],
                                              children.get(idx, ()))
        return dict(out)

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer: the module part of each span name."""
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_times().items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)

    def write(self, stem: str) -> dict[str, float]:
        """Write every span to ``<stem>.npz`` (one array per column, names
        as a JSON string) and the per-layer self times to ``<stem>.json``;
        returns the latter."""
        layers = self.layer_self_times()
        np.savez(stem + ".npz", names=np.array(json.dumps(self.names)),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
        with open(stem + ".json", "w") as fh:
            json.dump({"spans": len(self), "layer_self_s": layers}, fh,
                      indent=1, sort_keys=True)
        return layers


class NullTracer:
    """Stand-in with tracing off: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str):
        yield -1

    def record(self, name: str, start: float, end: float) -> int:
        return -1

    def __bool__(self) -> bool:
        return False

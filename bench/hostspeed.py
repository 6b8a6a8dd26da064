"""Host-speed meter: rescales measured times to a reference host speed.

The benchmark runs on shared virtual CPUs whose speed swings by up to about
1.5x for seconds to minutes at a time (a fixed CPython loop measured 18 ms
in one phase and 27 ms in the next).  Raw rates from two runs of the same
code then differ by more than any regression worth catching.  So a fixed
probe kernel, which never calls the package, is timed in CPU seconds next
to every timed unit of work: in the measuring thread between the units of
a loop (:func:`probe`), in the measuring thread every ``METER_PERIOD_S``
during a call that runs for seconds (:class:`ThreadSampler`), or every
``METER_PERIOD_S`` inside the pool workers of a call whose work runs there
(:class:`WorkerSampler`).  The unit's time is rescaled by
``REF_PROBE_S / probe``, i.e. to the time it would take on a host where the
probe takes ``REF_PROBE_S``.  Rates as measured are reported alongside.
"""

from __future__ import annotations

import bisect
import os
import signal
import struct
import time

import numpy as np

from stats import median

REF_PROBE_S = 0.0015      # probe CPU time on the quiet phase of a 2-vCPU VM
METER_PERIOD_S = 0.1      # one probe per period: about 2% of one CPU
_SAMPLE = struct.Struct("<3d")


def _kernel() -> float:
    """Interpreter-bound loop plus small numpy calls, like the package."""
    acc = 0
    for i in range(15_000):
        acc += i * 7 % 13
    a = np.arange(64.0)
    for _ in range(150):
        acc += float(np.exp(a - 1.0).sum())
    return acc


def probe() -> float:
    """CPU seconds one run of the probe kernel takes in the calling thread."""
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0


def to_ref(seconds: float, probe_s: float) -> float:
    """``seconds`` measured at probe time ``probe_s``, in reference seconds."""
    return seconds * REF_PROBE_S / probe_s


class ThreadSampler:
    """Probes the host in the measuring thread while one call runs.

    A ``SIGALRM`` handler runs the probe every ``METER_PERIOD_S``, so the
    samples come from the CPU the call runs on and from every phase of the
    call; a probe process beside it would see the other CPU.  The handler's
    own time is taken out of the call's: :meth:`seconds` is the call's time
    without the probes, :meth:`probe_s` their median.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.samples: list[float] = []
        self._t0 = self._t1 = 0.0
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "ThreadSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, METER_PERIOD_S, METER_PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:              # a call shorter than one period
            self.samples.append(probe())

    def seconds(self) -> float:
        return self._t1 - self._t0 - self.spent

    def probe_s(self) -> float:
        return median(self.samples)


class WorkerSampler:
    """Probes the host inside every process forked while it is active.

    For pool workers (``fork`` start method): a fork hook starts, in each
    child, a ``SIGALRM`` handler that runs the probe every
    ``METER_PERIOD_S`` and appends (start, end, probe seconds) to a file of
    its own under ``directory``, so the samples come from the CPUs and the
    phases the work runs in.  ``perf_counter`` is the system-wide monotonic
    clock, so the samples line up with the parent's timings.  Children
    forked outside the ``with`` block do not sample.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.active = False
        self.at: list[float] = []
        self.spent: list[float] = []
        self.probe_s: list[float] = []
        os.register_at_fork(after_in_child=self._start_in_child)

    def _start_in_child(self) -> None:
        if not self.active:
            return
        self.active = False           # the child's own children do not sample
        path = os.path.join(self.directory, f"probes-{os.getpid()}")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

        def handler(_signum, _frame):
            t0 = time.perf_counter()
            p = probe()
            os.write(fd, _SAMPLE.pack(t0, time.perf_counter(), p))

        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, METER_PERIOD_S / 2,
                         METER_PERIOD_S)

    def __enter__(self) -> "WorkerSampler":
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        rows = []
        for name in os.listdir(self.directory):
            if name.startswith("probes-"):
                with open(os.path.join(self.directory, name), "rb") as fh:
                    rows.extend(_SAMPLE.iter_unpack(fh.read()))
        rows.sort()
        self.at = [t0 for t0, _, _ in rows]
        self.spent = [t1 - t0 for t0, t1, _ in rows]
        self.probe_s = [p for _, _, p in rows]

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        return lo, hi

    def probe_between(self, t0: float, t1: float) -> float:
        """Median probe time of the samples taken in [t0, t1); for an
        interval with fewer than three, the median of the five samples
        nearest to it."""
        lo, hi = self._window(t0, t1)
        if hi - lo < 3:
            mid = (lo + hi) // 2
            lo, hi = max(0, mid - 2), min(len(self.at), mid + 3)
        if lo >= hi:
            raise RuntimeError("host-speed sampler took no samples")
        return median(self.probe_s[lo:hi])

    def spent_between(self, t0: float, t1: float) -> float:
        """Seconds the workers spent probing in [t0, t1), summed over
        workers."""
        lo, hi = self._window(t0, t1)
        return sum(self.spent[lo:hi])

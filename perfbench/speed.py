"""Host-speed sampling, so that times from a shared host compare across runs.

On a shared host the CPU time of the same single-threaded work drifts by up
to 1.8x for tens of seconds at a time, as other guests load the physical
cores.  On the 2-vCPU guest this was written on, tree ``build-metadb`` run
three times on each mini-corpus dataset took 6.5 CPU seconds in one run and
10.1 in the next, counting each dataset's fastest time: taking the best of
repeated operations does not help, because a slow phase outlasts a run.

A :class:`Sampler` runs a fixed reference kernel, :func:`probe`, from a
``SIGPROF`` handler every ``interval`` CPU seconds of this process, so the
probes fall inside the operations being timed, long ones included.  An
operation's time at reference speed is its CPU time scaled by
``REFERENCE_PROBE_S`` over the median probe time around it.  The probe is
benchmark code that no change to ``preprank`` touches, so the scaled time
moves only with the program.

Times come from the thread CPU clock: while a process-wide CPU timer is
armed, Linux reads the process CPU clock only at scheduler ticks, and the
work under test runs on this one thread (BLAS pools are pinned to one).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: the probe's median CPU seconds on a 2-vCPU Intel Xeon guest; scaled
#: times are CPU seconds at that speed
REFERENCE_PROBE_S = 0.0014
#: CPU seconds of the process between probes
INTERVAL_S = 0.05
#: a scaled interval takes the median of the probes at most this far outside it
PAD_S = 0.5
#: and of at least this many probes, widening the window when it holds fewer
LEAST_PROBES = 9

_MATRIX = np.random.default_rng(0).random((200, 10))


def probe() -> float:
    """Fixed work in the program's mix: small-array NumPy calls and dict updates."""
    total = 0.0
    for _ in range(40):
        order = np.argsort(_MATRIX[:, 3])
        total += np.cumsum(_MATRIX[order], axis=0)[-1, 0]
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 31] = counts.get(i % 31, 0) + i
    return total + counts[0]


class Sampler:
    """Probes host speed from ``SIGPROF`` inside its ``with`` block; one at a time."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.at: list[float] = []  # clock() when each probe ran
        self.probe_s: list[float] = []
        self._spent = 0.0  # CPU seconds spent probing, kept out of clock()
        self._previous = None

    def clock(self) -> float:
        """CPU seconds of this thread, less the time spent in probes."""
        return time.thread_time() - self._spent

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        probe()
        took = time.thread_time() - start
        self.at.append(start - self._spent)
        self.probe_s.append(took)
        self._spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Reference probe time over the median probe time around ``[start, end]``."""
        if not self.probe_s:
            return 1.0
        lo = bisect.bisect_left(self.at, start - PAD_S)
        hi = bisect.bisect_right(self.at, end + PAD_S)
        while hi - lo < LEAST_PROBES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REFERENCE_PROBE_S / statistics.median(self.probe_s[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` CPU seconds at reference speed."""
        return (end - start) * self.scale(start, end)

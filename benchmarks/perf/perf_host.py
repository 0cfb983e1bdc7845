"""Host-speed sampling, so the benchmark's times survive a noisy host.

The benchmark runs on shared machines whose speed drifts: on the 2-core
host it was sized on, a fixed pure-Python loop runs 10-25% slower for
tens of seconds at a time, and two iterations a few seconds apart can
differ by 30%. No regression bound under 10% survives that.

:class:`HostSampler` measures the host while the code under test runs.
Every :data:`INTERVAL_S` of wall time a ``SIGALRM`` handler times a
fixed probe loop (:func:`speed_probe`) and records when it ran and how
long it took. :meth:`HostSampler.seconds` then turns an interval of the
code under test into *nominal seconds*: the interval minus the probes
inside it, times :data:`NOMINAL_PROBE_S` over the probes' mean time.
The probe never touches the simulator, so a faster simulator still
reads faster; a slower host does not read slower.

Sampling costs about 4% of wall time. The handler runs between
bytecodes of the main thread and changes no result: it draws no random
numbers and touches no simulator state.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from array import array

#: Wall seconds between two probes.
INTERVAL_S = 0.025
#: Probes this many seconds either side of an interval also set its
#: host speed. Python handles a signal only between bytecodes, so a
#: long C call (unpickling a cached result, say) holds probes back and
#: a short interval may see only a few.
WINDOW_S = 0.5
#: Mean seconds one probe takes on the host the benchmark was sized on.
NOMINAL_PROBE_S = 0.0006


def speed_probe() -> float:
    """Fixed interpreter work in the simulator's mix: arithmetic, a heap
    of small tuples and a dict, as in an event loop's queue and state.
    Tracked mixes of the two halves followed the simulator's slowdowns
    more closely than either half alone.
    """
    acc = 0
    for i in range(2500):
        acc = (acc * 1103515245 + i) & 0xFFFFFFF
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(750):
        heapq.heappush(heap, ((i * 7919) % 1000 * 0.001, i))
        table[i & 255] = total
        total += table.get((i * 31) & 255, 0.0) * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    return total + acc


class HostSampler:
    """Times :func:`speed_probe` every :data:`INTERVAL_S` while open.

    Probes accumulate across ``with`` blocks: ``starts`` holds when each
    began on the ``time.perf_counter`` clock, ``durations`` how long it
    took.
    """

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()  # repro-lint: ignore[RPL001]
        speed_probe()
        self.durations.append(time.perf_counter() - start)  # repro-lint: ignore[RPL001]
        self.starts.append(start)

    def __enter__(self) -> "HostSampler":
        for _ in range(8):  # let the interpreter specialize the loop first
            speed_probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Nominal seconds of the code under test between two readings.

        The probes inside the interval are taken out of it; those within
        :data:`WINDOW_S` of it give the host's speed. With none near,
        every probe taken so far does.
        """
        probes = list(zip(self.starts, self.durations))
        inside = sum(seconds for when, seconds in probes if start <= when < end)
        near = [
            seconds
            for when, seconds in probes
            if start - WINDOW_S <= when < end + WINDOW_S
        ]
        speed = near or self.durations
        if not speed:
            return end - start
        return (end - start - inside) * NOMINAL_PROBE_S / statistics.fmean(speed)

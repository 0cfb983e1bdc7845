"""Small streaming statistics helpers used across the stack.

These are deliberately dependency-free and O(1)/O(window) so they can
run inside per-packet hot paths of the simulator.
"""

from __future__ import annotations

import math
from collections import deque


class EwmaFilter:
    """Exponentially weighted moving average.

    Parameters
    ----------
    alpha:
        Smoothing factor in (0, 1]; higher values track faster.
    initial:
        Optional initial value. When omitted, the first update seeds
        the average directly.
    """

    def __init__(self, alpha: float, initial: float | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value = initial

    @property
    def value(self) -> float | None:
        """Current average, or ``None`` before the first update."""
        return self._value

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the average and return the new value."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value += self.alpha * (sample - self._value)
        return self._value

    def reset(self, value: float | None = None) -> None:
        """Forget history, optionally re-seeding with ``value``."""
        self._value = value


class RunningMinMax:
    """Tracks the minimum and maximum of an unbounded stream."""

    def __init__(self) -> None:
        self.minimum = math.inf
        self.maximum = -math.inf
        self.count = 0

    def update(self, sample: float) -> None:
        """Fold ``sample`` into the running extrema."""
        self.count += 1
        if sample < self.minimum:
            self.minimum = float(sample)
        if sample > self.maximum:
            self.maximum = float(sample)

    @property
    def spread(self) -> float:
        """``max - min`` seen so far (``nan`` before any update)."""
        if self.count == 0:
            return math.nan
        return self.maximum - self.minimum


class WindowedExtremum:
    """Minimum (or maximum) of timestamped samples over a sliding window.

    One monotonic deque of ``(time, value)`` pairs: each update drops
    the newer-side entries the sample dominates (ties included, so the
    newest of equal values survives longest), appends the sample and
    expires entries older than ``now - window``. ``value`` is the
    extremum after the last update (``nan`` before the first); reads
    do not expire anything. ``update`` and ``value`` are O(1) amortized,
    which is what SCReAM's per-ack base delay and per-send
    bytes-in-flight ceiling need.
    """

    __slots__ = ("window", "value", "_entries", "_maximum")

    def __init__(self, window: float, *, maximum: bool = False) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.value = math.nan
        self._maximum = maximum
        self._entries: deque[tuple[float, float]] = deque()

    def update(self, now: float, value: float) -> float:
        """Add a sample at time ``now``; returns the new extremum."""
        value = float(value)
        entries = self._entries
        if self._maximum:
            while entries and entries[-1][1] <= value:
                entries.pop()
        else:
            while entries and entries[-1][1] >= value:
                entries.pop()
        entries.append((now, value))
        # The sample just added never expires, so the deque stays
        # non-empty.
        horizon = now - self.window
        while entries[0][0] < horizon:
            entries.popleft()
        self.value = entries[0][1]
        return self.value


class WindowedMinMax:
    """Minimum and maximum over a sliding time window.

    Samples are ``(timestamp, value)`` pairs; old samples expire once
    they fall outside ``window`` seconds of the latest timestamp. Two
    :class:`WindowedExtremum` trackers hold the extrema; a timestamp
    deque counts the live samples for ``len``.
    """

    def __init__(self, window: float) -> None:
        self._min = WindowedExtremum(window)
        self._max = WindowedExtremum(window, maximum=True)
        self.window = window
        self._times: deque[float] = deque()

    def update(self, now: float, value: float) -> None:
        """Add a sample at time ``now`` and expire stale entries."""
        self._min.update(now, value)
        self._max.update(now, value)
        self._times.append(now)
        horizon = now - self.window
        while self._times and self._times[0] < horizon:
            self._times.popleft()

    @property
    def minimum(self) -> float:
        """Smallest value in the window (``nan`` when empty)."""
        return self._min.value

    @property
    def maximum(self) -> float:
        """Largest value in the window (``nan`` when empty)."""
        return self._max.value

    def __len__(self) -> int:
        return len(self._times)

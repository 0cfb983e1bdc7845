"""Statistics helpers: CDFs, percentiles, boxplot summaries.

These are the reduction primitives the experiment harness uses to turn
raw per-packet / per-frame logs into the numbers the paper's figures
plot (CDF curves, boxplot five-number summaries, exceedance
fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.util.units import bytes_to_bits


@dataclass
class BoxplotSummary:
    """Five-number summary plus mean — one boxplot in a paper figure."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    count: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "BoxplotSummary":
        """Compute the summary of ``samples`` (must be non-empty)."""
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ValueError("cannot summarize empty sample set")
        q1, median, q3 = np.percentile(arr, [25, 50, 75])
        return cls(
            minimum=float(arr.min()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
            count=int(arr.size),
        )

    @property
    def iqr(self) -> float:
        """Inter-quartile range."""
        return self.q3 - self.q1

    def outliers_above(self, samples: Sequence[float]) -> list[float]:
        """Values above the classic ``q3 + 1.5 * IQR`` whisker."""
        fence = self.q3 + 1.5 * self.iqr
        return [float(v) for v in samples if v > fence]


@dataclass
class Cdf:
    """An empirical CDF over a sample set."""

    values: np.ndarray  # sorted

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "Cdf":
        """Build from raw samples (an array is read as it is)."""
        if not isinstance(samples, np.ndarray):
            samples = list(samples)
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise ValueError("cannot build CDF from empty sample set")
        return cls(values=arr)

    def fraction_below(self, threshold: float) -> float:
        """P(X <= threshold)."""
        return float(np.searchsorted(self.values, threshold, side="right")) / len(
            self.values
        )

    def fraction_above(self, threshold: float) -> float:
        """P(X > threshold)."""
        return 1.0 - self.fraction_below(threshold)

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` in [0, 100]."""
        return float(np.percentile(self.values, q))

    @property
    def mean(self) -> float:
        """Sample mean."""
        return float(self.values.mean())

    @property
    def median(self) -> float:
        """Sample median."""
        return self.percentile(50.0)

    def evaluate(self, points: Sequence[float]) -> list[tuple[float, float]]:
        """CDF values at ``points`` — the (x, y) pairs of a plot line."""
        return [(float(p), self.fraction_below(float(p))) for p in points]


def windowed_rate(
    times: Sequence[float],
    sizes_bytes: Sequence[float],
    *,
    window: float = 1.0,
    t_start: float | None = None,
    t_end: float | None = None,
) -> list[tuple[float, float]]:
    """Aggregate a packet log into per-window throughput.

    Returns ``(window_start_time, bits_per_second)`` pairs covering
    ``[t_start, t_end)``.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    times_arr = np.asarray(times, dtype=float)
    sizes_arr = np.asarray(sizes_bytes, dtype=float)
    if times_arr.size == 0:
        return []
    lo = times_arr.min() if t_start is None else t_start
    hi = times_arr.max() if t_end is None else t_end
    if hi <= lo:
        return []
    edges = np.arange(lo, hi + window, window)
    sums, _ = np.histogram(times_arr, bins=edges, weights=sizes_arr)
    return [
        (float(edges[i]), float(bytes_to_bits(sums[i]) / window))
        for i in range(len(sums))
    ]

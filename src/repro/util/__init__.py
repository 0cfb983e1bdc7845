"""Shared utilities: unit conversion, RNG stream derivation, running stats."""

from repro.util.units import (
    bits_to_bytes,
    bytes_to_bits,
    mbps,
    to_mbps,
    ms,
    to_ms,
)
from repro.util.rng import RngStreams
from repro.util.running import (
    EwmaFilter,
    RunningMinMax,
    WindowedExtremum,
    WindowedMinMax,
)

__all__ = [
    "bits_to_bytes",
    "bytes_to_bits",
    "mbps",
    "to_mbps",
    "ms",
    "to_ms",
    "RngStreams",
    "EwmaFilter",
    "RunningMinMax",
    "WindowedExtremum",
    "WindowedMinMax",
]

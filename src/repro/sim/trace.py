"""Measurement utilities: bandwidth meters, latency recorders, percentiles.

Every figure in the paper is either a rate (MOPS, Gb/s), a ratio, or a
latency distribution (median/p99).  This module holds the small set of
instruments the experiment harness uses to produce those numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.sim.units import S

__all__ = ["BandwidthMeter", "LatencyRecorder", "mops", "percentile"]


def percentile(samples: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` at ``fraction`` in [0, 1].

    Always returns a ``float``, regardless of the sample element type.

    >>> percentile([1, 2, 3, 4], 0.5)
    2.0
    """
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    rank = max(1, math.ceil(fraction * len(data)))
    return float(data[rank - 1])


@dataclass
class BandwidthMeter:
    """Counts delivered bytes over a window; reports Gb/s.

    Used as a link endpoint decorator or fed manually from receive hooks.
    """

    bytes_delivered: int = 0
    packets_delivered: int = 0
    window_start_ns: float = 0.0

    def record(self, size_bytes: int) -> None:
        self.bytes_delivered += size_bytes
        self.packets_delivered += 1

    def reset(self, now_ns: float) -> None:
        self.bytes_delivered = 0
        self.packets_delivered = 0
        self.window_start_ns = now_ns

    def gbps(self, now_ns: float) -> float:
        elapsed = now_ns - self.window_start_ns
        if elapsed <= 0:
            return 0.0
        return (self.bytes_delivered * 8.0) / elapsed  # bits / ns == Gb/s


@dataclass
class LatencyRecorder:
    """Collects per-operation latencies and reports summary statistics."""

    samples_ns: list[float] = field(default_factory=list)

    def record(self, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        self.samples_ns.append(latency_ns)

    def __len__(self) -> int:
        return len(self.samples_ns)

    @property
    def count(self) -> int:
        return len(self.samples_ns)

    def mean_ns(self) -> float:
        if not self.samples_ns:
            raise ValueError("no samples recorded")
        # Plain left-to-right addition: sum() of floats is compensated
        # from Python 3.12 on, which would make the mean version-dependent.
        total = 0.0
        for sample in self.samples_ns:
            total += sample
        return total / len(self.samples_ns)

    def median_us(self) -> float:
        return percentile(self.samples_ns, 0.5) / 1_000.0

    def p50_ns(self) -> float:
        return percentile(self.samples_ns, 0.5)

    def p99_us(self) -> float:
        return percentile(self.samples_ns, 0.99) / 1_000.0

    def p999_ns(self) -> float:
        return percentile(self.samples_ns, 0.999)

    def max_us(self) -> float:
        if not self.samples_ns:
            raise ValueError("no samples recorded")
        return max(self.samples_ns) / 1_000.0


def mops(ops: int, elapsed_ns: float) -> float:
    """Millions of operations per second given an op count and duration."""
    if elapsed_ns <= 0:
        return 0.0
    return ops / elapsed_ns * S / 1e6

"""Percentiles that know their sample count, and quartile summaries."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """Fewer than ``MIN_BEYOND`` samples lie beyond the percentile."""


def supported(n: int, p: float) -> bool:
    """True if ``n`` samples leave at least ``MIN_BEYOND`` on the thin
    side of percentile ``p`` (p99 therefore needs 1,000 samples)."""
    return n * min(p, 1.0 - p) >= MIN_BEYOND


def percentile(samples: list[float], p: float, *,
               strict: bool = True) -> float:
    """Nearest-rank percentile; refuses an unsupported one when strict."""
    n = len(samples)
    if n == 0 or (strict and not supported(n, p)):
        raise TooFewSamples(
            f"p{p * 100:g} needs {math.ceil(MIN_BEYOND / min(p, 1 - p))} "
            f"samples, got {n}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * n) - 1)]


@dataclass(frozen=True)
class Timing:
    """One reported number with how it was obtained."""

    value: float
    samples: int
    #: False when the sample count does not support the percentile (only
    #: at smoke-test sizes); the value is then the nearest rank anyway.
    valid: bool = True
    #: The value as the clock gave it, where ``value`` is expressed at
    #: the reference machine speed (:mod:`.speed`); ``None`` = same.
    raw: float | None = None

    def at_speed(self, factor: float, *, rate: bool = False) -> "Timing":
        """This timing (or rate) had the machine run at reference speed
        instead of ``factor`` times slower."""
        value = self.value * factor if rate else self.value / factor
        return Timing(value, self.samples, self.valid, raw=self.value)


def timing(samples: list[float], p: float) -> Timing:
    ok = supported(len(samples), p)
    return Timing(percentile(samples, p, strict=False), len(samples), ok)


@dataclass(frozen=True)
class Quartiles:
    q1: float
    median: float
    q3: float
    n: int

    @property
    def spread(self) -> float:
        """Inter-quartile distance as a share of the median."""
        return (self.q3 - self.q1) / abs(self.median) if self.median \
            else 0.0


def quartiles(values: list[float]) -> Quartiles:
    if len(values) == 1:
        return Quartiles(values[0], values[0], values[0], 1)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Quartiles(q1, median, q3, len(values))

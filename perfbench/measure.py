"""The benchmark's own arithmetic, kept free of I/O so it can be tested alone.

Spans are ``(start, end, parent)`` triples where ``parent`` is the index of
the enclosing span or -1. A span's self time is its duration minus the part
of its interval that its children cover; children may overlap each other or
stick out of the parent, and each instant is subtracted once.
"""

from __future__ import annotations

import math
from fractions import Fraction

# percentiles a timing may be reported at, lowest first
PERCENTILE_LADDER = ("50", "90", "99", "99.9", "99.99")
MIN_BEYOND = 10  # samples that must lie above a reported percentile


class Coverage:
    """Union length of intervals fed in order of their start, clipped to
    ``[lo, hi]``."""

    __slots__ = ("lo", "hi", "_covered", "_start", "_end")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi
        self._covered = 0.0
        self._start = None
        self._end = None

    def add(self, start: float, end: float) -> None:
        start = max(start, self.lo)
        end = min(end, self.hi)
        if end <= start:
            return
        if self._start is None:
            self._start, self._end = start, end
        elif start > self._end:
            self._covered += self._end - self._start
            self._start, self._end = start, end
        elif end > self._end:
            self._end = end

    def total(self) -> float:
        if self._start is None:
            return self._covered
        return self._covered + self._end - self._start


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: its duration minus its children's coverage."""
    n = len(starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=starts.__getitem__)
    cover: dict[int, Coverage] = {}
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        cov = cover.get(p)
        if cov is None:
            cov = cover[p] = Coverage(starts[p], ends[p])
        cov.add(starts[i], ends[i])
    out = []
    for i in range(n):
        cov = cover.get(i)
        out.append(ends[i] - starts[i] - (cov.total() if cov is not None else 0.0))
    return out


def _rank(pct: str, n: int) -> int:
    """Nearest rank (1-based) of a percentile over n sorted samples."""
    return max(1, math.ceil(Fraction(pct) * n / 100))


def percentile(sorted_values, pct: str) -> float:
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n: int) -> str | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above
    its rank, or None when even the median lacks them."""
    best = None
    for pct in PERCENTILE_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            best = pct
    return best


def supports(n: int, pct: str) -> bool:
    return n - _rank(pct, n) >= MIN_BEYOND


def latencies_from_due(due: dict, done: dict) -> list[float]:
    """Completion minus due time for every key that completed.

    Timing from the due time, not from when the generator got round to
    sending, charges a stall to every request it delays."""
    return [done[k] - t for k, t in due.items() if k in done]


def failed_count(attempted: int, served: int, run_ok: bool) -> int:
    """A run that broke a correctness rule fails every packet it was given;
    otherwise the packets never served fail."""
    if not run_ok:
        return attempted
    return attempted - served


def failed_ratio(attempted: int, failed: int) -> float:
    if attempted <= 0:
        raise ValueError("nothing attempted")
    return failed / attempted


def largest_gap_after(times: list[float], instant: float | None) -> float:
    """Largest gap between consecutive times that ends after ``instant``
    (all gaps when there is no instant). Work already in flight at a kill
    still lands just after it, so the outage is the largest gap that ends
    after the kill, not the one that straddles it."""
    gaps = [b - a for a, b in zip(times, times[1:]) if instant is None or b > instant]
    return max(gaps, default=0.0)

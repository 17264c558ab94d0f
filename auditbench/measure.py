"""Statistics the benchmark reports: percentiles with a tail-sample
rule, span self time, and the service counters it takes deltas of.

Everything here is pure (no I/O, no clock), so the self-tests in
``selftest.py`` can pin it exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; with fewer it would be one or two outliers.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(Exception):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float, *, tail: bool = False) -> float:
    """The nearest-rank ``q``-th percentile (0 < q < 100) of ``values``.

    With ``tail=True`` the percentile must have at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it; a smaller sample raises
    :class:`InsufficientSamples` instead of reporting a number that is
    really the run's maximum.
    """
    if not values:
        raise InsufficientSamples(f"p{q:g} of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if tail and beyond < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are required"
        )
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle pair for even sizes)."""
    if not values:
        raise InsufficientSamples("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample (a layer never entered)."""
    return sum(values) / len(values) if values else 0.0


def stats_counters(stats: dict) -> dict:
    """The exact counters of a service ``stats()`` payload (in-process
    or from ``/v1/stats``) that the benchmark reports as deltas."""
    return {
        "queries_executed": stats["queries_executed"],
        "plan_cache_hits": stats["plan_cache"]["hits"],
        "plan_cache_misses": stats["plan_cache"]["misses"],
        "read_acquisitions": stats["lock"]["read_acquisitions"],
        "write_acquisitions": stats["lock"]["write_acquisitions"],
    }


def covered_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals (children running concurrently on several
    threads) are counted once, so a parent's self time never goes
    negative.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered_length(children, start, end)

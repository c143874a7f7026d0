"""Summary statistics shared by every workload of the benchmark.

Percentiles follow one rule: the median is always reported, with its
sample count, and a tail percentile only when at least ten samples lie
beyond it.  With ``n`` samples the nearest-rank percentile ``p`` sits at
rank ``ceil(p * n / 100)``, so ``n - rank`` samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles considered, highest last (in thousandths, so the
#: rank arithmetic stays in integers).
TAIL_PERCENTILES_MILLI = (90_000, 95_000, 99_000, 99_900)

#: Samples that must lie beyond a reported tail percentile.
MIN_SAMPLES_BEYOND = 10


def _rank(p_milli: int, n: int) -> int:
    """Nearest rank (1-based) of percentile ``p_milli / 1000`` among n."""
    return max(1, -(-p_milli * n // 100_000))


def samples_beyond(p_milli: int, n: int) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank percentile."""
    return n - _rank(p_milli, n)


def highest_supported_percentile(n: int) -> float | None:
    """The highest tail percentile with >= 10 samples beyond it, or None."""
    best = None
    for p_milli in TAIL_PERCENTILES_MILLI:
        if samples_beyond(p_milli, n) >= MIN_SAMPLES_BEYOND:
            best = p_milli / 1000
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(round(p * 1000), len(ordered)) - 1]


def latency_summary(values) -> dict:
    """Median plus the highest supported tail percentile of ``values``.

    Returns ``{"n", "p50", "tail_pct", "tail"}``; ``tail_pct``/``tail``
    are ``None`` when fewer than 20 samples exist, and ``p50`` is
    ``None`` for an empty sample.
    """
    values = list(values)
    n = len(values)
    summary = {"n": n, "p50": None, "tail_pct": None, "tail": None}
    if not n:
        return summary
    summary["p50"] = statistics.median(values)
    tail_pct = highest_supported_percentile(n)
    if tail_pct is not None:
        summary["tail_pct"] = tail_pct
        summary["tail"] = percentile(values, tail_pct)
    return summary


def gmean(values) -> float | None:
    """Geometric mean of positive values (None for an empty sample)."""
    values = list(values)
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.

    ``spans`` is an iterable of ``(span_id, parent_id, start, end)``.
    Children may overlap one another (work handed to several threads) and
    may outlive their parent; only the union of the child intervals,
    clipped to the parent's own interval, is subtracted.
    """
    spans = list(spans)
    children: dict = {}
    for span_id, parent_id, start, end in spans:
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    result = {}
    for span_id, _parent, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result

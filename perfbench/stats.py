"""The benchmark's own arithmetic: percentiles, spreads, self time.

Everything here is pure (no clock, no I/O) so ``tests/`` can pin it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; fewer and the value is just the slowest sample.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to be meaningful."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    Refuses (``TooFewSamples``) unless at least :data:`MIN_BEYOND`
    samples lie beyond the percentile's rank, so a p95 needs 200 samples.
    """
    n = len(samples)
    if n == 0:
        raise TooFewSamples("no samples")
    beyond = math.floor(n * (100.0 - q) / 100.0)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; needs {MIN_BEYOND}"
        )
    ordered = sorted(samples)
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("no samples")
    return float(statistics.median(samples))


def failed_pct(attempted: int, failed: int) -> float:
    """Failed share of everything attempted; refusals are attempts too."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    return 100.0 * failed / attempted


# ---------------------------------------------------------------------------
# Open-loop latency
# ---------------------------------------------------------------------------


def open_loop_latencies(
    due: Sequence[float], held: Sequence[float]
) -> List[float]:
    """Per-request latency measured from when each request was *due*.

    Timing from the due time (not from when the generator got round to
    sending) charges a stall to every request queued behind it.
    """
    if len(due) != len(held):
        raise ValueError("due/held length mismatch")
    return [h - d for d, h in zip(due, held)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator sent each request (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


# ---------------------------------------------------------------------------
# Spans -> self time
# ---------------------------------------------------------------------------

#: (span id, name, start, end, parent id or None, request id)
Span = Tuple[int, str, float, float, Optional[int], Optional[str]]


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _req in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _req in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """(calls, total self seconds) per span name."""
    selfs = self_times(spans)
    out: Dict[str, Tuple[int, float]] = {}
    for sid, name, *_rest in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + selfs[sid])
    return out

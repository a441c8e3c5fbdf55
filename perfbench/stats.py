"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
from typing import Sequence

# a reported percentile must have at least this many samples beyond it,
# so one outlier cannot set it
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile (0 < q < 100), linearly interpolated.

    Refuses (raises :class:`InsufficientSamples`) unless at least
    ``min_beyond`` samples lie strictly above the percentile's rank.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    pos = (n - 1) * q / 100.0
    beyond = n - 1 - math.floor(pos) if n else 0
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {max(beyond, 0)} beyond it, "
            f"needs {min_beyond}"
        )
    ordered = sorted(values)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_percentile(values: Sequence[float], q: float) -> float:
    """:func:`percentile` for per-layer tables: 0.0 when the layer did
    too little work in this workload to support the percentile."""
    try:
        return percentile(values, q)
    except InsufficientSamples:
        return 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0

"""Order statistics shared by the runner, the child and compare.py.

Standard library only: the parent process must never import numpy (it
would start the BLAS thread pool before the child's pins are checked).
"""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    """Median of any iterable; 0.0 for no samples (a layer that did no
    work reads 0)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(values, n=4)``
    gives them (the rule the self-agreement criterion uses)."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread_share(values) -> float:
    """Distance between the quartiles as a share of the median."""
    med = median(values)
    if med == 0.0:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(med)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return float(ordered[rank - 1])

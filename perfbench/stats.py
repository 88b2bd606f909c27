"""Small statistics and naming helpers shared by the benchmark scripts."""

from __future__ import annotations

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartile spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("quartile spread of values with median 0")
    return (q3 - q1) / abs(mid)


def check_metric_names(names) -> None:
    """Raise ValueError unless every name is a valid, unique metric name."""
    seen = set()
    for name in names:
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate metric name {name!r}")
        seen.add(name)

"""Thread-count handling and fixed-order parallel evaluation."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    """Worker count, overridable through the LIMITOMO_THREADS variable."""
    raw = os.environ.get("LIMITOMO_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(n, 1)


def chunk_slices(n_items: int, parts: int) -> list[slice]:
    parts = max(min(parts, n_items), 1)
    bounds = [round(i * n_items / parts) for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def map_parts(worker, parts: list) -> list:
    """Evaluate ``worker(part)`` for each part, concurrently, results in order.

    Callers reduce the results in this order, so they are reproducible
    for a fixed partition.
    """
    if len(parts) <= 1:
        return [worker(p) for p in parts]
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        return list(pool.map(worker, parts))

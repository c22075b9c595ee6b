"""The block size of every blocked stage, the thread count and the one
chunked parallel loop both projectors use.

The projectors run one worker per CPU this process may run on; its
affinity mask (``taskset``) is the only limit.  Each worker writes its
own slice of a preallocated output and no result is reduced across
threads, so outputs do not depend on the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# Values per block of every stage that walks an array in pieces: one
# float64 plane of it is 256 KiB, so the back-projection's four k-study
# accumulators and a block's temporaries stay in cache while every active
# angle is added to them.  The analytic forward sizes its blocks of angles
# to as many chords (chord nodes for a custom weight); the row filter and
# the rasterizer take whole rows of about as many values; a complex plane
# counts as two block planes, so the back-projection's blocks have half the
# rows when its rows are complex (a fold, see
# transforms.backproject_values).  Masked calls take runs of at most as
# many points.  Callers read it at call time.
BLOCK_PIXELS = 32768


def thread_count() -> int:
    """The CPUs this process may run on, or ``os.cpu_count()`` without an affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def for_each_chunk(worker, n_items: int) -> None:
    """Call ``worker(sl)`` for up to thread_count() contiguous slices of range(n_items)."""
    parts = max(min(thread_count(), n_items), 1)
    bounds = [round(i * n_items / parts) for i in range(parts + 1)]
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    if parts == 1:
        worker(slices[0])
        return
    with ThreadPoolExecutor(max_workers=parts) as pool:
        list(pool.map(worker, slices))

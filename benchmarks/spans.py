"""Spans around the calls into each limitomo layer, recorded from outside.

:class:`Tracer` replaces, for the duration of a traced round, the names
that each module imports from the layer below (for example
``limitomo.pipeline.forward`` or ``limitomo.filters.backproject``) with
wrappers that record a span: name, entry, call start, call end, exit and
parent.  Nothing inside ``src/`` changes.  A span's self time is its call
duration minus the part its child spans cover; the wrapper's own
bookkeeping (the gaps between entry and call start, and call end and exit)
is counted as the benchmark's own time, so that the layers' self times
plus ``bench.self_s`` add up to the traced round's ``trace.run_s``.

Spans are kept in memory; :meth:`Tracer.metrics` folds them into the
per-layer metrics when the round ends.  The first span is the round
itself, opened by the benchmark around its CLI calls.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter

import numpy as np

from limitomo import cli, filters, microlocal, pipeline
from limitomo.phantoms import Phantom

def _forward_span(args) -> str:
    return "phantoms.analytic_forward" if isinstance(args[0], Phantom) \
        else "transforms.raster_forward"


def _count_forward(args, result, counts) -> None:
    source, sgrid = args[0], args[2]
    if isinstance(source, Phantom):
        counts["phantoms.line_integrals"] += sgrid.n_phi * sgrid.n_s
        return
    # Samples of the h/2-step rule along each line: a fixed unit of work
    # that stays comparable when the projector changes.
    grid = source.grid
    n_t = 2 * math.ceil(math.sqrt(2.0) * grid.extent / (0.5 * grid.h)) + 1
    counts["transforms.raster_samples"] += sgrid.n_phi * sgrid.n_s * n_t


def _count_backproject(args, result, counts) -> None:
    g, window, igrid = args[0], args[2], args[3]
    kap = 1.0 if window is None else window.kappa(g.grid.phis())
    active = int(np.count_nonzero(kap * g.grid.phi_weights()))
    counts["transforms.backproject_calls"] += 1
    counts["transforms.backproject_updates"] += igrid.n * igrid.n * active


def _count_reconstruct(args, result, counts) -> None:
    counts["filters.rows_filtered"] += args[0].grid.n_phi


def _count_report(args, result, counts) -> None:
    counts["microlocal.lines_measured"] += len(result.lines)


def _count_write(args, result, counts) -> None:
    counts["io.bytes_written"] += os.path.getsize(args[1])


def _count_read(args, result, counts) -> None:
    counts["io.bytes_read"] += os.path.getsize(args[0])


# (module, imported name, span name or function of the arguments, counter)
SITES = [
    (cli, "load_config", "config.load", None),
    (cli, "rasterize", "phantoms.rasterize", None),
    (cli, "forward", _forward_span, _count_forward),
    (cli, "reconstruct", "filters.reconstruct", _count_reconstruct),
    (cli, "read_raster", "io.read", _count_read),
    (cli, "read_sinogram", "io.read", _count_read),
    (cli, "write_raster", "io.write", _count_write),
    (cli, "write_sinogram", "io.write", _count_write),
    (cli, "run_pipeline", "pipeline.run", None),
    (cli, "strength_vs_order_study", "microlocal.study", None),
    (pipeline, "rasterize", "phantoms.rasterize", None),
    (pipeline, "forward", _forward_span, _count_forward),
    (pipeline, "reconstruct", "filters.reconstruct", _count_reconstruct),
    (pipeline, "artifact_report", "microlocal.artifact_report", _count_report),
    (pipeline, "write_raster", "io.write", _count_write),
    (pipeline, "write_sinogram", "io.write", _count_write),
    (pipeline, "write_report_csv", "microlocal.write_report", None),
    (microlocal, "forward", _forward_span, _count_forward),
    (microlocal, "reconstruct", "filters.reconstruct", _count_reconstruct),
    (microlocal, "artifact_report", "microlocal.artifact_report", _count_report),
    (microlocal, "write_report_csv", "microlocal.write_report", None),
    (microlocal, "write_study_summary", "microlocal.write_report", None),
    (filters, "backproject", "transforms.backproject", _count_backproject),
]


class Tracer:
    """Records spans for one round; install before it, uninstall after."""

    def __init__(self):
        # span: [name, enter, start, end, exit, parent index]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, count in SITES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def call(self, name, fn, args, kwargs=None, count=None):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        enter = time.perf_counter()
        span = [name if isinstance(name, str) else name(args), enter, 0.0, 0.0, 0.0,
                self._stack[-1] if self._stack else None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            count(args, result, self.counts)
        span[4] = time.perf_counter()
        return result

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics of the round, whose span is the first one."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[5] is not None:
                child_time[sp[5]] += sp[4] - sp[1]
        self_s: Counter = Counter()
        bench = 0.0
        for i, sp in enumerate(self.spans):
            own = sp[3] - sp[2] - child_time[i]
            if i == 0:
                bench += own
            else:
                self_s[sp[0]] += own
                bench += (sp[2] - sp[1]) + (sp[4] - sp[3])
        root = self.spans[0]
        c = self.counts

        def rate(count: str, seconds: float) -> float:
            return c[count] / seconds if seconds > 0 else 0.0

        m = {
            "config.load_s": self_s["config.load"],
            "phantoms.rasterize_s": self_s["phantoms.rasterize"],
            "phantoms.analytic_forward_s": self_s["phantoms.analytic_forward"],
            "phantoms.line_integrals": c["phantoms.line_integrals"],
            "transforms.raster_forward_s": self_s["transforms.raster_forward"],
            "transforms.raster_samples": c["transforms.raster_samples"],
            "transforms.backproject_s": self_s["transforms.backproject"],
            "transforms.backproject_calls": c["transforms.backproject_calls"],
            "transforms.backproject_updates": c["transforms.backproject_updates"],
            "filters.row_filter_s": self_s["filters.reconstruct"],
            "filters.rows_filtered": c["filters.rows_filtered"],
            "microlocal.artifact_report_s": self_s["microlocal.artifact_report"],
            "microlocal.self_s": sum(v for n, v in self_s.items()
                                     if n.startswith("microlocal.")),
            "microlocal.lines_measured": c["microlocal.lines_measured"],
            "io.write_s": self_s["io.write"],
            "io.bytes_written": c["io.bytes_written"],
            "io.read_s": self_s["io.read"],
            "io.bytes_read": c["io.bytes_read"],
            "pipeline.self_s": self_s["pipeline.run"],
            "cli.self_s": self_s["cli.main"],
            "bench.self_s": bench,
            "trace.run_s": root[3] - root[2],
        }
        m["phantoms.line_integrals_per_s"] = rate(
            "phantoms.line_integrals", m["phantoms.analytic_forward_s"])
        m["transforms.raster_samples_per_s"] = rate(
            "transforms.raster_samples", m["transforms.raster_forward_s"])
        m["transforms.backproject_updates_per_s"] = rate(
            "transforms.backproject_updates", m["transforms.backproject_s"])
        return m

"""The package names the benchmark uses must resolve.

``benchmarks/spans.py`` wraps, for a traced round, the names that each
module imports from the layer below, and the benchmark's scripts import
names from the package.  A rename or deletion in the package would
otherwise break only the benchmark, not this suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from limitomo import AngularWindow, ImageGrid, ReconstructionConfig, Sinogram, SinogramGrid
from limitomo import WeightFunction, pipeline

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
SPANS_PATH = BENCH_DIR / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("limitomo_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_traced_site_resolves():
    missing = [f"{module.__name__}.{name}" for module, name, *_ in spans.SITES
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_tracer_uninstall_restores_originals():
    originals = [getattr(module, name) for module, name, *_ in spans.SITES]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, name, *_), fn in zip(spans.SITES, originals):
            assert getattr(module, name) is not fn, f"{module.__name__}.{name}"
    finally:
        tracer.uninstall()
    for (module, name, *_), fn in zip(spans.SITES, originals):
        assert getattr(module, name) is fn, f"{module.__name__}.{name}"


def _package_imports():
    """``(file, module, name)`` of every ``from limitomo... import name`` in the benchmark."""
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "limitomo"):
                yield from ((path.name, node.module, alias.name) for alias in node.names)


def test_every_benchmark_import_resolves():
    imports = list(_package_imports())
    assert {f for f, _, _ in imports} >= {"convergence.py", "spans.py", "worker.py"}
    missing = []
    for file, module, name in imports:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{file}: from {module} import {name}")
    assert missing == []


def test_tracer_books_the_dense_pass_under_reconstruct():
    # A single-window reconstruct without pixels reaches the pass through
    # filters.backproject, the name the tracer wraps: one
    # transforms.backproject span inside one filters.reconstruct span.
    sg = SinogramGrid(n_phi=16, n_s=33, s_max=1.8)
    g = Sinogram(sg, np.random.default_rng(1).standard_normal((16, 33)))
    one = WeightFunction.constant(1.0)
    cfg = ReconstructionConfig("B", one, one, AngularWindow(0.5, 2.5, "finite-order", 1))
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.reconstruct(g, cfg, ImageGrid(16, 1.2))
    finally:
        tracer.uninstall()
    assert [(sp[0], sp[5]) for sp in tracer.spans] == [("filters.reconstruct", None),
                                                       ("transforms.backproject", 0)]
    assert tracer.counts["transforms.backproject_calls"] == 1

"""The benchmark's tracer patches package names by ``getattr``; they must resolve.

``benchmarks/spans.py`` wraps, for a traced round, the names that each
module imports from the layer below.  A rename or deletion in the package
would otherwise break only the traced benchmark, not this suite.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


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

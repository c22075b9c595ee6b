"""The workload's own process: runs one workload's CLI calls in rounds.

Started by ``run.py``, never by hand.  It imports ``limitomo`` from the
checkout's ``src/``, writes the workload's INI files into its directory,
loads each once with ``load_config``, and then prints one JSON line
``{"ready": <monotonic time>}``: everything before it is set-up.  With
``--setup-only`` it exits there.  Otherwise it reads one JSON command
per line on stdin -- ``{"op": "round", "traced": bool}`` or
``{"op": "stop"}`` -- and answers each round with one JSON line.  The
CLI's own output is captured, so stdout carries only these lines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (the benchmark's own modules, beside this file)
from limitomo import cli  # noqa: E402
from limitomo.config import load_config  # noqa: E402
from limitomo.transforms import Sinogram, backproject  # noqa: E402
from spans import Tracer  # noqa: E402

def _emit(msg: dict) -> None:
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def _cli(argv, main) -> dict:
    """One CLI call; its stdout and stderr are kept only when it fails."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a dead benchmark
        rc = -1
        buf.write(traceback.format_exc())
    out = {"argv": list(argv), "rc": rc}
    if rc != 0:
        out["log"] = buf.getvalue()[-2000:]
    return out


def _peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB.

    Read from ``VmHWM``: on Linux ``ru_maxrss`` also carries the parent's
    peak across fork and exec, which would hide a smaller worker.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _clean(keep) -> None:
    for entry in os.listdir("."):
        if entry in keep:
            continue
        if os.path.isdir(entry):
            shutil.rmtree(entry)
        else:
            os.remove(entry)


def _duality_backprojection(wl, cfg) -> None:
    """``R*_mu g`` for the seed's test sinogram, written for the checker."""
    g = workloads.duality_test_sinogram(wl.seed, cfg.sgrid.phis(), cfg.sgrid.s_values())
    bp = backproject(Sinogram(cfg.sgrid, g), cfg.mu, None, cfg.igrid)
    np.save(workloads.DUALITY_FILE, bp.values)


def run_round(wl, configs, traced: bool) -> dict:
    _clean(set(configs))
    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            traced_main = lambda argv: tracer.call("cli.main", cli.main, (argv,))  # noqa: E731
            calls = tracer.call("bench.round",
                                lambda: [_cli(a, traced_main) for a in wl.calls], ())
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        run_s = metrics["trace.run_s"]
    else:
        t0 = time.perf_counter()
        calls = [_cli(a, cli.main) for a in wl.calls]
        run_s = time.perf_counter() - t0
        metrics = None
    probes = [_cli(a, cli.main) for a in wl.probe_calls]
    if wl.duality_config is not None:
        _duality_backprojection(wl, configs[wl.duality_config])
    return {"run_s": run_s, "calls": calls + probes, "trace": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="directory for inputs and outputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    os.chdir(args.dir)
    for name, text in wl.configs.items():
        Path(name).write_text(text, encoding="utf-8")
    configs = {name: load_config(name) for name in wl.configs}
    _emit({"ready": time.monotonic()})
    if args.setup_only:
        return 0

    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] != "round":
            break
        _emit(run_round(wl, configs, bool(cmd["traced"])))
    _emit({"peak_rss_kb": _peak_rss_kb()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

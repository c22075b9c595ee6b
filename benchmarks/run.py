"""Run the limitomo benchmark: CLI workloads timed end to end, outputs checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py                  # every workload in turn

Run from anywhere inside a checkout that holds ``src/limitomo``.  Each
workload runs in its own worker process (``worker.py``), one caller in a
closed loop, in rounds of the same CLI calls until ``--seconds`` are used
up.  This process checks every round's outputs (``checks.py``) while the
worker waits, then has ``reference.py`` gauge the machine's speed, and
prints the metrics named in ``BENCHMARK.json``: the
end-to-end ones with ``--trace 0`` and the per-layer ones, from a separate
traced run, with ``--trace 1``.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

SETUP_STARTS = 4        # fresh worker starts per run whose set-up is timed
REF_SHARE = 0.15        # reference passes after each round, as a share of its time
WATCHDOG_S = 170.0      # a run never outlives this, whatever the worker does

# Per-layer self times that add up, with bench.self_s, to trace.run_s.
SELF_TIME_PARTS = ("config.load_s", "phantoms.rasterize_s", "phantoms.analytic_forward_s",
                   "transforms.raster_forward_s", "transforms.backproject_s",
                   "filters.row_filter_s", "microlocal.self_s", "io.write_s", "io.read_s",
                   "pipeline.self_s", "cli.self_s", "bench.self_s")


def src_lines(root: Path) -> int:
    """Non-blank lines that are not only a comment, in every .py under src/limitomo."""
    total = 0
    for path in sorted((root / "src" / "limitomo").rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            text = line.strip()
            if text and not text.startswith("#"):
                total += 1
    return total


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "LIMITOMO_THREADS": os.environ.get("LIMITOMO_THREADS", "unset")}


class Worker:
    """A worker process and its line-based JSON channel, killed at ``deadline``."""

    def __init__(self, cmd, deadline: float):
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self._timer = threading.Timer(max(deadline - self.started, 0.0), self.proc.kill)
        self._timer.start()

    def send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended early with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _median_round(rounds):
    """The traced round whose run time is the (lower) median."""
    ordered = sorted(rounds, key=lambda r: r["run_s"])
    return ordered[(len(ordered) - 1) // 2]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import reference
    import workloads
    from checks import Checker

    deadline = time.monotonic() + WATCHDOG_S
    wl = workloads.build(name, seed)
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--dir", str(work)]
    # The reference process is started first and only runs while the
    # worker waits; the traced run reports no run_s and needs none.
    ref = None if trace else Worker([sys.executable, str(HERE / "reference.py")], deadline)
    try:
        if ref is not None:
            ref.recv()
        setups = []
        for _ in range(SETUP_STARTS - 1):
            t0 = time.monotonic()
            done = subprocess.run(cmd + ["--setup-only"], stdout=subprocess.PIPE, text=True,
                                  timeout=max(deadline - t0, 1.0), check=True)
            setups.append(json.loads(done.stdout.splitlines()[-1])["ready"] - t0)

        worker = Worker(cmd, deadline)
        try:
            ready = worker.recv()["ready"]
            setups.append(ready - worker.started)
            checker = Checker(wl)
            rounds, pass_s = [], []
            while True:
                worker.send({"op": "round", "traced": trace and len(rounds) % 2 == 1})
                msg = worker.recv()
                checks, figures, hashes = checker.check_round(work)
                if ref is not None:
                    ref.send({"passes": max(1, round(REF_SHARE * msg["run_s"]
                                                     / reference.NOMINAL_S))})
                    pass_s += ref.recv()["pass_s"]
                rounds.append({"run_s": msg["run_s"], "calls": msg["calls"], "checks": checks,
                               "figures": figures, "trace": msg["trace"]})
                now = time.monotonic()
                per_round = (now - ready) / len(rounds)
                if len(rounds) >= (3 if trace else 1) and now + per_round > ready + seconds:
                    break
            worker.send({"op": "stop"})
            peak_kb = worker.recv()["peak_rss_kb"]
        finally:
            worker.close()
    finally:
        if ref is not None:
            ref.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r["calls"]) + len(r["checks"]) for r in rounds)
    failed = sum(sum(c["rc"] != 0 for c in r["calls"]) + sum(not ok for _, ok, _ in r["checks"])
                 for r in rounds)
    correct = all(ok for r in rounds for _, ok, _ in r["checks"])

    if trace:
        # Round 0 is untraced and also warms the process, so it is left out
        # of the overhead; later rounds alternate traced and untraced.
        traced = [r for r in rounds if r["trace"] is not None]
        plain = [r for r in rounds[1:] if r["trace"] is None]
        metrics = dict(_median_round(traced)["trace"])
        metrics["trace.overhead_s"] = (statistics.fmean(r["run_s"] for r in traced)
                                       - statistics.fmean(r["run_s"] for r in plain))
        parts = sum(metrics[k] for k in SELF_TIME_PARTS)
        if abs(parts - metrics["trace.run_s"]) > 1e-9 * max(1.0, metrics["trace.run_s"]):
            raise RuntimeError(f"self times add up to {parts!r}, not {metrics['trace.run_s']!r}")
    else:
        # The mean round, at the machine speed where a reference pass takes
        # NOMINAL_S (reference.py, README.md); medians are taken across runs.
        wall_s = statistics.fmean(r["run_s"] for r in rounds)
        metrics = {"run_s": wall_s * reference.NOMINAL_S / statistics.fmean(pass_s),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_kb / 1024.0,
                   "src_lines": src_lines(ROOT)}

    return {"workload": name, "seed": seed, "trace": trace, "machine": machine(),
            "rounds": len(rounds), "round_run_s": [r["run_s"] for r in rounds],
            "reference_pass_s": pass_s, "reference_nominal_s": reference.NOMINAL_S,
            "setup_samples_s": setups, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics, "figures": rounds[-1]["figures"],
            "failures": [d for r in rounds for d in
                         [c for c in r["calls"] if c["rc"] != 0]
                         + [{"check": n, "detail": t} for n, ok, t in r["checks"] if not ok]],
            "sha256": hashes}


def report(res: dict, units: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"== {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}  "
          f"rounds {res['rounds']}  attempted {res['attempted']}  failed {res['failed']}  "
          f"correct {str(res['correct']).lower()}")
    if res["reference_pass_s"]:
        print(f"  wall time per round {statistics.fmean(res['round_run_s']):.6g} s; "
              f"reference pass {statistics.fmean(res['reference_pass_s']):.6g} s "
              f"over {len(res['reference_pass_s'])} passes (nominal "
              f"{res['reference_nominal_s']:g} s)")
    for name, value in res["metrics"].items():
        print(f"  {name:<38} {value:>16.6g} {units[name]}")
    print("  figures: " + json.dumps(res["figures"], sort_keys=True))
    print("  machine: " + json.dumps(res["machine"], sort_keys=True))
    for path, digest in res["sha256"].items():
        print(f"  sha256 {digest}  {path}")
    seen = set()
    for f in res["failures"]:
        key = json.dumps(f, sort_keys=True)
        if key not in seen:
            seen.add(key)
            print("  failed: " + key[:400])


def main(argv=None) -> int:
    if not (ROOT / "src" / "limitomo" / "__init__.py").is_file():
        print(f"error: no src/limitomo package under {ROOT}; run inside a limitomo checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if set(res["metrics"]) != set(units):
            raise RuntimeError(f"metrics {sorted(res['metrics'])} do not match BENCHMARK.json")
        (WORK / "records").mkdir(parents=True, exist_ok=True)
        record = WORK / "records" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
        report(res, units)
        results.append(res)

    def metric(v, unit):
        return {"value": v, "unit": unit}

    if len(results) == 1:
        metrics = {k: metric(v, units[k]) for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": metric(v, units[k])
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

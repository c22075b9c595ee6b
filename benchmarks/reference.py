"""A fixed reference computation that gauges the machine's speed during a run.

On a shared host the same round can run 1.5x slower in one minute than in
the next, and a run sits inside one such stretch, so the wall time of a
run says as much about the host as about the program.  ``run.py`` keeps
this process beside the worker and, after every round, asks it for a few
passes of the computation; the two never run at once.  ``run_s`` is the
run's wall time per round times ``NOMINAL_S`` over the mean pass time:
the round's time at a fixed machine speed.

The computation runs in its own process, so the program's heap does not
slow or speed it, shares no code with ``limitomo`` and takes nothing from
the seed, so neither a program change nor a seed moves it.  Its parts
stand for the program's hot loops: bilinear gathers (raster forward and
back-projection), row FFTs (the spectral filter), ``scipy`` ``quad`` on a
smooth weighted chord (the weighted analytic forward) and a plain Python
loop (the per-sample and per-line code around them).

Started by ``run.py``, never by hand.  It prints ``{"ready": true}`` after
one untimed pass, then answers each line ``{"passes": n}`` on stdin with
``{"pass_s": [...]}``, the seconds of each of ``n`` passes.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
from scipy.integrate import quad

# The median of 380 passes over 15 runs on the 2-core machine README.md
# describes; it only sets the scale, so that run_s reads in seconds.
NOMINAL_S = 0.12

_rng = np.random.default_rng(20151203)
_IMG = _rng.random((257, 257))
_XS = _rng.random(100_000) * 255.0
_YS = _rng.random(100_000) * 255.0
_ROWS = _rng.random((180, 1024))
_RAMP = np.abs(np.fft.rfftfreq(1024))


def _gather() -> None:
    for _ in range(4):
        i = _XS.astype(np.intp)
        j = _YS.astype(np.intp)
        fx = _XS - i
        fy = _YS - j
        (_IMG[i, j] * (1 - fx) * (1 - fy) + _IMG[i + 1, j] * fx * (1 - fy)
         + _IMG[i, j + 1] * (1 - fx) * fy + _IMG[i + 1, j + 1] * fx * fy).sum()


def _fft() -> None:
    for _ in range(8):
        np.fft.irfft(np.fft.rfft(_ROWS, axis=1) * _RAMP, axis=1).sum()


def _quad() -> None:
    for k in range(150):
        quad(lambda t: np.exp(0.3 * t) * (1.0 - t * t) ** 0.5 + 1e-3 * k, -1.0, 1.0,
             epsabs=1e-9)


def _python() -> None:
    total = 0.0
    for i in range(100_000):
        total += (i * 0.5) % 7.0


def one_pass() -> float:
    """Seconds one pass of the reference computation takes now."""
    t0 = time.perf_counter()
    _gather()
    _fft()
    _quad()
    _python()
    return time.perf_counter() - t0


def main() -> int:
    one_pass()
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        n = json.loads(line)["passes"]
        sys.stdout.write(json.dumps({"pass_s": [one_pass() for _ in range(n)]}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end run: phantom -> sinogram -> reconstruction -> artifact report."""

from __future__ import annotations

import sys
from pathlib import Path

from .config import RunConfig
from .filters import reconstruct
from .io import _check_float32, write_raster, write_sinogram
from .microlocal import artifact_report, write_report_csv, write_report_json
from .phantoms import rasterize
from .transforms import forward


class PipelineError(RuntimeError):
    """A pipeline failure, tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, str(exc)) from exc


def _log(msg: str) -> None:
    """One progress line on stderr, for the pipeline and the CLI."""
    print(msg, file=sys.stderr)


def run_pipeline(cfg: RunConfig) -> int:
    """Run the configured pipeline and write all outputs.

    Outputs land in ``cfg.out_dir``: the normalized config echo, the
    rasterized phantom, the sinogram, the reconstruction (raw + PGM
    preview) and the artifact report (CSV + JSON).  Their bytes depend
    on the configuration only, not on the thread count.  Every float32
    payload is checked before the directory is made, so a
    ``[write]`` error on non-finite data leaves no file behind; the
    phantom and the sinogram are checked as soon as each exists, so such
    a run stops before the stages that follow.  Each stage writes one
    progress line to stderr.
    """
    raster = _stage("phantom", rasterize, cfg.phantom, cfg.igrid)
    _stage("write", _check_float32, raster.values, "raster")
    _log(f"phantom: rasterized {cfg.igrid.n}x{cfg.igrid.n}")

    sino = _stage("forward", forward, cfg.phantom, cfg.mu, cfg.sgrid)
    _stage("write", _check_float32, sino.values, "sinogram")
    _log(f"forward: sinogram {cfg.sgrid.n_phi}x{cfg.sgrid.n_s}")

    recon = _stage("reconstruct", reconstruct, sino, cfg.recon_config(), cfg.igrid)
    _log(f"reconstruct: operator {cfg.operator}, "
        f"window {'full' if cfg.window is None else cfg.window.kind}")

    report = _stage("analyze", artifact_report, recon, cfg.phantom, cfg.window,
                    4.0 * cfg.igrid.h, metadata={"config_sha256": cfg.sha256()})
    _log(f"analyze: {len(report.lines)} predicted line(s)")

    def write_all():
        _check_float32(recon.values, "raster")
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.normalized.ini").write_text(cfg.dumps(), encoding="utf-8")
        write_raster(raster, out / "phantom.ltr")
        write_sinogram(sino, out / "sinogram.lts")
        write_raster(recon, out / "recon.ltr")
        write_raster(recon, out / "recon.pgm", fmt="pgm16")
        write_report_csv(report, out / "report.csv")
        write_report_json(report, out / "report.json")

    _stage("write", write_all)
    _log(f"write: outputs in {cfg.out_dir}")
    return 0

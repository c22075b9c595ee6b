"""Subcommand CLI tying the pipeline together.

Subcommands: ``phantom``, ``forward``, ``reconstruct``, ``analyze``,
``study``, ``selftest``.  The raster forward and back-projection loops
run one worker per CPU the process may use (limit them with ``taskset``);
outputs are bit-identical for every worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile

from .config import ConfigError, load_config
from .filters import reconstruct
from .io import read_raster, read_sinogram, write_raster, write_sinogram
from .microlocal import strength_vs_order_study
from .phantoms import rasterize
from .pipeline import PipelineError, _log, run_pipeline
from .selftest import run_selftest
from .transforms import forward


def _cmd_phantom(args) -> int:
    cfg = load_config(args.config)
    raster = rasterize(cfg.phantom, cfg.igrid)
    write_raster(raster, args.out)
    if args.pgm:
        write_raster(raster, args.pgm, fmt="pgm16")
    _log(f"wrote {args.out}")
    return 0


def _cmd_forward(args) -> int:
    cfg = load_config(args.config)
    if args.from_raster:
        source = read_raster(args.from_raster, cfg.igrid)
    else:
        source = cfg.phantom
    sino = forward(source, cfg.mu, cfg.sgrid)
    write_sinogram(sino, args.out)
    _log(f"wrote {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = load_config(args.config)
    sino = read_sinogram(args.sinogram, cfg.sgrid)
    recon = reconstruct(sino, cfg.recon_config(), cfg.igrid)
    write_raster(recon, args.out)
    if args.pgm:
        write_raster(recon, args.pgm, fmt="pgm16")
    _log(f"wrote {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    if args.out_dir:
        cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
    return run_pipeline(cfg)


def _cmd_study(args) -> int:
    cfg = load_config(args.config)
    k_list = [int(tok) for tok in args.k_list.split(",") if tok.strip()]
    out_dir = args.out_dir or cfg.out_dir
    rows = strength_vs_order_study(cfg.phantom, cfg.recon_config(), k_list,
                                   cfg.igrid, cfg.sgrid, report_dir=out_dir)
    print(f"{'k':>3} {'line_strength':>15} {'edge_strength':>15} {'ratio':>12}")
    for r in rows:
        print(f"{r.k:>3} {r.line_strength:>15.6g} {r.edge_strength:>15.6g} "
              f"{r.ratio:>12.6g}")
    _log(f"wrote per-k reports and summary.json to {out_dir}")
    return 0


def _cmd_selftest(args) -> int:
    out_dir = args.out_dir or tempfile.mkdtemp(prefix="limitomo-selftest-")
    return run_selftest(out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitomo",
        description="Weighted X-ray transform with limited angular data: "
                    "reconstruction and artifact analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="rasterize the configured phantom")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", required=True, help="output raster (raw-f32)")
    p.add_argument("--pgm", help="optional 16-bit PGM preview")
    p.set_defaults(fn=_cmd_phantom)

    p = sub.add_parser("forward", help="compute the weighted sinogram")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output sinogram file")
    p.add_argument("--from-raster", help="project this raster file with Joseph's "
                                         "projector instead of the analytic phantom path")
    p.set_defaults(fn=_cmd_forward)

    p = sub.add_parser("reconstruct", help="reconstruct from a sinogram file")
    p.add_argument("--sinogram", required=True, help="input sinogram file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output raster (raw-f32)")
    p.add_argument("--pgm", help="optional 16-bit PGM preview")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("analyze", help="run the full pipeline and write the "
                                       "artifact report")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="override the configured output directory")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("study", help="strength-versus-order study over a k list")
    p.add_argument("--config", required=True)
    p.add_argument("--k-list", default="1,2,3,4",
                   help="comma-separated cutoff orders (default 1,2,3,4)")
    p.add_argument("--out-dir", help="directory for per-k reports")
    p.set_defaults(fn=_cmd_study)

    p = sub.add_parser("selftest", help="rerun the filter/cutoff/symbol checks "
                                        "twice and byte-compare the outputs")
    p.add_argument("--out-dir", help="directory for the two selftest runs")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error [config] {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import limitomo
from limitomo import (ImageGrid, Raster, _util, load_config, read_raster, read_sinogram,
                      write_raster)
from limitomo.cli import main

SMALL_CONFIG = """
[image]
n = 64
extent = 1.2

[phantom]
shape1 = disk 0 0 1 1

[sinogram]
n_phi = 90
n_s = 65
s_max = 1.7

[window]
kind = full

[reconstruction]
operator = B

[output]
dir = {out}
"""

STUDY_CONFIG = """
[image]
n = 64
extent = 1.5

[phantom]
shape1 = disk 0 0 1 1

[sinogram]
n_phi = 46
n_s = 91
s_max = 2.13
phi0_deg = 45
phi1_deg = 135

[window]
kind = finite-order
phi1_deg = 45
phi2_deg = 135
k = 1

[reconstruction]
operator = B

[output]
dir = {out}
"""

# Package defaults except for tiny grids: extent 1.2 and s_max = sqrt(2) * 1.2.
DEFAULTS_CONFIG = """
[image]
n = 16

[sinogram]
n_phi = 8
n_s = 33

[output]
dir = {out}
"""


def _write_cfg(tmp_path, template, name="run.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(out=out), encoding="utf-8")
    return path, out


def test_phantom_subcommand(tmp_path):
    cfg, _ = _write_cfg(tmp_path, SMALL_CONFIG)
    out = tmp_path / "phantom.ltr"
    pgm = tmp_path / "phantom.pgm"
    assert main(["phantom", "--config", str(cfg), "--out", str(out),
                 "--pgm", str(pgm)]) == 0
    raster = read_raster(out, load_config(cfg).igrid)
    assert raster.values.max() == 1.0
    assert pgm.exists()


def test_forward_from_raster_with_default_geometry(tmp_path):
    # The raster header stores the extent as float32 (1.2 -> 1.2000000477);
    # the raster is projected on the config's extent 1.2, so the default
    # s_max = sqrt(2) * 1.2 covers it.
    cfg, _ = _write_cfg(tmp_path, DEFAULTS_CONFIG)
    raster = tmp_path / "phantom.ltr"
    sino_path = tmp_path / "g.lts"
    assert main(["phantom", "--config", str(cfg), "--out", str(raster)]) == 0
    assert main(["forward", "--config", str(cfg), "--from-raster", str(raster),
                 "--out", str(sino_path)]) == 0
    sino = read_sinogram(sino_path, load_config(cfg).sgrid)
    assert sino.values.shape == (8, 33)
    assert sino.values.max() > 0.0


def test_forward_from_lying_raster_header_exits_1(tmp_path, capsys):
    cfg, _ = _write_cfg(tmp_path, DEFAULTS_CONFIG)
    raster = tmp_path / "lying.ltr"
    raster.write_bytes(b"LTR1" + (0xFFFFFFFF).to_bytes(4, "little") + bytes(8))
    rc = main(["forward", "--config", str(cfg), "--from-raster", str(raster),
               "--out", str(tmp_path / "g.lts")])
    assert rc == 1
    assert "truncated" in capsys.readouterr().err


def test_forward_from_nonfinite_raster_exits_1(tmp_path, capsys):
    cfg, _ = _write_cfg(tmp_path, DEFAULTS_CONFIG)
    values = np.zeros((16, 16), dtype="<f4")
    values[4, 5] = np.nan
    raster = tmp_path / "nan.ltr"
    raster.write_bytes(b"LTR1" + (16).to_bytes(4, "little")
                       + np.float32(1.2).tobytes() + bytes(4) + values.tobytes())
    out = tmp_path / "g.lts"
    rc = main(["forward", "--config", str(cfg), "--from-raster", str(raster),
               "--out", str(out)])
    assert rc == 1
    assert "raster contains non-finite values" in capsys.readouterr().err
    assert not out.exists()


def test_forward_from_raster_of_other_extent_exits_1(tmp_path, capsys):
    # A valid 16x16 raster whose header says extent 0.6 where the config
    # says 1.2: it is not projected on either grid.
    cfg, _ = _write_cfg(tmp_path, DEFAULTS_CONFIG)
    raster = tmp_path / "half.ltr"
    write_raster(Raster(ImageGrid(16, 0.6), np.ones((16, 16))), raster)
    out = tmp_path / "g.lts"
    rc = main(["forward", "--config", str(cfg), "--from-raster", str(raster),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error [forward] the raster header does not match the config's "
                          "[image]: extent = 0.60000002384185791 (config 1.2000000476837158)")
    assert not out.exists()


@pytest.mark.parametrize("rate", ["inf", "nan", "1000"])
def test_analyze_bad_weight_rate_exits_1(tmp_path, capsys, rate):
    cfg, out = _write_cfg(tmp_path, DEFAULTS_CONFIG + f"\n[weights]\nnu = exponential {rate}\n")
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [config] [weights] nu: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_analyze_combined_weight_rates_exit_1(tmp_path, capsys):
    cfg, out = _write_cfg(tmp_path, DEFAULTS_CONFIG
                          + "\n[weights]\nmu = exponential 400\nnu = exponential 400\n")
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [config] [weights]: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_analyze_float32_overflow_exits_1(tmp_path, capsys):
    # exp(100 * R) with R = 1.70 fits float64, not float32
    cfg, out = _write_cfg(tmp_path, DEFAULTS_CONFIG + "\n[weights]\nmu = exponential 100\n")
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error [write] sinogram contains non-finite values as float32"
    assert "Traceback" not in err
    # Every payload is checked before the output directory is made.
    assert not out.exists()


def test_analyze_float32_overflow_stops_before_reconstruct(tmp_path, capsys, monkeypatch):
    # The sinogram's payload is checked as soon as it exists.
    import limitomo.pipeline as pipeline

    calls = []
    real = pipeline.reconstruct
    monkeypatch.setattr(pipeline, "reconstruct",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    cfg, out = _write_cfg(tmp_path, DEFAULTS_CONFIG + "\n[weights]\nmu = exponential 100\n")
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error [write] sinogram contains non-finite values as float32"
    assert calls == []
    assert not out.exists()


def test_analyze_removed_key_exits_1(tmp_path, capsys):
    cfg, out = _write_cfg(tmp_path, DEFAULTS_CONFIG + "\n[reconstruction]\napodize = true\n")
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error [config] [reconstruction] unknown key 'apodize'\n"
    assert not out.exists()


def test_analyze_filter_impl_other_than_the_operators_exits_1(tmp_path, capsys):
    cfg, out = _write_cfg(tmp_path, DEFAULTS_CONFIG + "\n[reconstruction]\noperator = Lambda\n"
                                                      "filter_impl = spectral\n")
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == ("error [config] [reconstruction]: filter_impl = 'spectral', "
                   "but operator Lambda filters by 'finite-difference'\n")
    assert not out.exists()


@pytest.mark.parametrize("command, tag", [("analyze", "reconstruct"),
                                          ("reconstruct", "reconstruct"),
                                          ("study", "study")])
def test_lambda_on_rows_of_two_samples_exits_1(tmp_path, capsys, command, tag):
    # The -d^2/ds^2 stencil needs three samples a row; a grid allows two.
    text = (DEFAULTS_CONFIG.replace("n_s = 33", "n_s = 2")
            + "\n[window]\nkind = finite-order\n\n[reconstruction]\noperator = Lambda\n")
    cfg, out = _write_cfg(tmp_path, text)
    argv = [command, "--config", str(cfg)]
    if command == "reconstruct":
        sino = tmp_path / "g.lts"
        assert main(["forward", "--config", str(cfg), "--out", str(sino)]) == 0
        argv += ["--sinogram", str(sino), "--out", str(tmp_path / "r.ltr")]
    elif command == "study":
        argv += ["--out-dir", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (f"error [{tag}] the -d^2/ds^2 stencil needs rows of "
                                    "at least 3 samples, got n_s = 2")
    assert "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "r.ltr").exists()


@pytest.mark.parametrize("command", ["phantom", "analyze"])
def test_extent_beyond_float32_exits_1_at_config(tmp_path, capsys, command):
    # The raster header stores the extent as float32: 1e39 fits float64 only.
    cfg, out = _write_cfg(tmp_path, DEFAULTS_CONFIG.replace("n = 16", "n = 16\nextent = 1e39"))
    raster = tmp_path / "phantom.ltr"
    argv = [command, "--config", str(cfg)]
    assert main(argv + (["--out", str(raster)] if command == "phantom" else [])) == 1
    err = capsys.readouterr().err
    assert err == "error [config] [image]: extent = 1e+39 overflows the raster header's float32\n"
    assert not raster.exists()
    assert not out.exists()


def test_forward_and_reconstruct_subcommands(tmp_path):
    cfg, _ = _write_cfg(tmp_path, SMALL_CONFIG)
    sino_path = tmp_path / "g.lts"
    assert main(["forward", "--config", str(cfg), "--out", str(sino_path)]) == 0
    sino = read_sinogram(sino_path, load_config(cfg).sgrid)
    # center sample of the unit disk sinogram is the chord length 2
    mid = sino.grid.n_s // 2
    assert sino.values[0, mid] == pytest.approx(2.0, abs=1e-6)

    rec_path = tmp_path / "rec.ltr"
    assert main(["reconstruct", "--sinogram", str(sino_path), "--config", str(cfg),
                 "--out", str(rec_path)]) == 0
    rec = read_raster(rec_path, load_config(cfg).igrid)
    # coarse grid, but the reconstruction must resemble the disk
    assert abs(rec.values[32, 32] - 1.0) < 0.15


@pytest.mark.parametrize("command, flag", [("reconstruct", "--sinogram"),
                                           ("forward", "--from-raster")])
def test_subcommand_error_is_stage_tagged(tmp_path, capsys, command, flag):
    # The input file is missing: an OSError, tagged with the subcommand.
    cfg, _ = _write_cfg(tmp_path, DEFAULTS_CONFIG)
    assert main([command, flag, str(tmp_path / "missing"), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error [{command}] ")


def test_analyze_pipeline_outputs(tmp_path):
    cfg, out = _write_cfg(tmp_path, SMALL_CONFIG)
    assert main(["analyze", "--config", str(cfg)]) == 0
    for name in ("config.normalized.ini", "phantom.ltr", "sinogram.lts",
                 "recon.ltr", "recon.pgm", "report.csv", "report.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["config_sha256"]
    assert report["lines"] == []  # full window predicts no streaks


def test_analyze_write_failure_is_stage_tagged(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_CONFIG.format(out=blocker / "sub"), encoding="utf-8")
    rc = main(["analyze", "--config", str(cfg)])
    assert rc != 0
    err = capsys.readouterr().err
    assert "[write]" in err


def test_study_subcommand(tmp_path):
    cfg, out = _write_cfg(tmp_path, STUDY_CONFIG)
    rc = main(["study", "--config", str(cfg), "--k-list", "1,2",
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "report_k1.csv").exists()
    assert (out / "report_k2.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["k_list"] == [1, 2]
    assert len(summary["rows"]) == 2


def test_study_rejects_full_window(tmp_path, capsys):
    cfg, out = _write_cfg(tmp_path, SMALL_CONFIG)
    rc = main(["study", "--config", str(cfg), "--k-list", "1,2",
               "--out-dir", str(out)])
    assert rc == 1
    assert "error [study]" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_reruns_bit_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_CONFIG.format(out=out1), encoding="utf-8")
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert main(["analyze", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    for name in ("phantom.ltr", "sinogram.lts", "recon.ltr"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[window]\nkind = finite-order\nphi1_deg = 100\nphi2_deg = 80\n",
                   encoding="utf-8")
    rc = main(["analyze", "--config", str(bad)])
    assert rc != 0
    assert "phi1 < phi2 required" in capsys.readouterr().err


def test_selftest_subcommand(tmp_path, capsys):
    rc = main(["selftest", "--out-dir", str(tmp_path / "st")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] determinism" in out
    assert "[FAIL]" not in out
    assert (tmp_path / "st" / "run1" / "kappa_slopes.f32").exists()
    assert (tmp_path / "st" / "run2" / "kappa_slopes.f32").exists()


def test_help_smoke():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--help"])
    assert exc.value.code == 0


def _record_pools(monkeypatch):
    # The max_workers of every thread pool the projectors make, in order.
    pools = []
    pool = _util.ThreadPoolExecutor
    monkeypatch.setattr(_util, "ThreadPoolExecutor",
                        lambda max_workers: pools.append(max_workers) or pool(max_workers))
    return pools


def test_raster_forward_file_byte_identical_for_one_and_two_cpus(tmp_path, monkeypatch,
                                                                usable_cpus):
    # The raster forward is the threaded forward path; two CPUs must
    # really start two workers and write the same bytes as one.
    pools = _record_pools(monkeypatch)
    cfg, _ = _write_cfg(tmp_path, SMALL_CONFIG)
    raster = tmp_path / "phantom.ltr"
    assert main(["phantom", "--config", str(cfg), "--out", str(raster)]) == 0
    files = []
    for cpus in (1, 2):
        usable_cpus(cpus)
        files.append(tmp_path / f"g{cpus}.lts")
        assert main(["forward", "--config", str(cfg), "--from-raster", str(raster),
                     "--out", str(files[-1])]) == 0
    assert pools == [2]
    assert files[0].read_bytes() == files[1].read_bytes()


@pytest.mark.parametrize("template, argv", [
    (SMALL_CONFIG, ["analyze"]),
    (STUDY_CONFIG, ["study", "--k-list", "1,2"]),
], ids=["analyze-folded", "study"])
def test_outputs_byte_identical_for_every_thread_count(tmp_path, monkeypatch, template, argv,
                                                       usable_cpus):
    # SMALL_CONFIG is a full circle with even n_phi and a constant nu, so
    # analyze folds opposite angles; study back-projects a batch of windows.
    # Blocks of 16 rows give the 64-row image's back-projection two workers.
    monkeypatch.setattr(_util, "BLOCK_PIXELS", 16 * 64)
    pools = _record_pools(monkeypatch)
    cfg, out = _write_cfg(tmp_path, template)
    runs = []
    for cpus in (1, 2):
        usable_cpus(cpus)
        assert main(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        shutil.rmtree(out)
    assert pools and set(pools) == {2}
    assert len(runs[0]) >= 3
    assert runs[0] == runs[1]


def _assert_same_recon(path, reference, grid):
    # reconstruct reads the sinogram as stored, in float32; analyze
    # reconstructs from its float64 sinogram.
    got, want = read_raster(path, grid).values, read_raster(reference, grid).values
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())


def test_two_angles_over_half_circle_read_back_with_their_config(tmp_path):
    # Two angles over [0, pi] have n_phi * dphi = 2 pi, the header of the
    # full circle too; the config, not the header, says which it is.
    text = DEFAULTS_CONFIG.replace("n_phi = 8", "n_phi = 2\nphi0_deg = 0\nphi1_deg = 180")
    cfg, out = _write_cfg(tmp_path, text)
    assert main(["analyze", "--config", str(cfg)]) == 0
    rec = tmp_path / "r.ltr"
    assert main(["reconstruct", "--config", str(cfg), "--sinogram",
                 str(out / "sinogram.lts"), "--out", str(rec)]) == 0
    _assert_same_recon(rec, out / "recon.ltr", load_config(cfg).igrid)


# Values that a dump to 12 significant digits would not give back.
ODD_CONFIG = """
[image]
n = 16
extent = 1.2345678901234567

[phantom]
shape1 = disk 0.01234567890123456 0 0.98765432109876543 1.1111111111111112
shape2 = ellipse 0.1 0.2 0.3333333333333333 0.2 37.123456789012345 0.5

[sinogram]
n_phi = 9
phi0_deg = 12.345678901234567
phi1_deg = 191.23456789012345
n_s = 33

[window]
kind = finite-order
phi1_deg = 23.456789012345678
phi2_deg = 156.78901234567891
k = 2

[weights]
mu = exponential 0.12345678901234567 parallel
nu = constant 1.0000000000000002

[output]
dir = {out}
"""


def test_reconstruct_reads_analyze_output_with_its_config_echo(tmp_path):
    # The default s_max = sqrt(2) * extent must survive the echo: to 12
    # digits it moves by more than the header check's relative 1e-12.
    cfg, out = _write_cfg(tmp_path, ODD_CONFIG)
    assert main(["analyze", "--config", str(cfg)]) == 0
    rec = tmp_path / "r.ltr"
    assert main(["reconstruct", "--config", str(out / "config.normalized.ini"),
                 "--sinogram", str(out / "sinogram.lts"), "--out", str(rec)]) == 0
    _assert_same_recon(rec, out / "recon.ltr", load_config(cfg).igrid)


def test_analyze_and_study_never_import_scipy(tmp_path):
    # The package needs numpy only: importing the CLI and running the
    # subcommands that measure streaks must not load scipy.
    text = STUDY_CONFIG.replace("n = 64", "n = 32").replace(
        "shape1 = disk 0 0 1 1",
        "shape1 = disk 0 0 1 1\nshape2 = ellipse 0.3 0.2 0.3 0.15 30 0.5\n"
        "shape3 = clipped-disk -0.3 -0.2 0.3 1 0 0.1 0.5")
    cfg, _ = _write_cfg(tmp_path, text)
    script = (
        "import sys\n"
        "from limitomo import cli\n"
        f"assert cli.main(['analyze', '--config', {str(cfg)!r}, '--out-dir', 'a']) == 0\n"
        f"assert cli.main(['study', '--config', {str(cfg)!r}, '--k-list', '1,2',"
        " '--out-dir', 's']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(limitomo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "a" / "report.json").exists()
    assert (tmp_path / "s" / "report_k2.csv").exists()


def test_study_rejects_order_beyond_normal_floats(tmp_path, capsys):
    cfg, out = _write_cfg(tmp_path, STUDY_CONFIG)
    rc = main(["study", "--config", str(cfg), "--k-list", "1,2045", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error [study] finite-order cutoff requires")
    assert not out.exists()


def test_study_rejects_images_beyond_the_buffer_limit(tmp_path, capsys, monkeypatch):
    # Each order gets a 64x64 float64 image (32 KiB): under a 140000-byte
    # limit, which the config's own buffers meet, four orders fit and five
    # are rejected before the forward projection.
    def no_forward(*args, **kwargs):
        raise AssertionError("the sinogram was projected")

    monkeypatch.setattr(limitomo.config, "MAX_BUFFER_BYTES", 140000)
    monkeypatch.setattr(limitomo.microlocal, "forward", no_forward)
    cfg, out = _write_cfg(tmp_path, STUDY_CONFIG)
    rc = main(["study", "--config", str(cfg), "--k-list", "1,2,3,4,5", "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error [study] the stack of 5 64x64 float64 images takes")
    assert "GiB limit" in err
    assert not out.exists()


def test_reconstruct_rejects_header_grid_unlike_config(tmp_path, capsys):
    # A valid file for the 16x16 config whose header says s_max = 1e300.
    cfg, _ = _write_cfg(tmp_path, DEFAULTS_CONFIG)
    sino = tmp_path / "g.lts"
    assert main(["forward", "--config", str(cfg), "--out", str(sino)]) == 0
    header = struct.Struct("<4sIddId")
    raw = sino.read_bytes()
    fields = list(header.unpack(raw[:header.size]))
    assert fields[1:5:3] == [8, 33]
    fields[5] = 1e300
    sino.write_bytes(header.pack(*fields) + raw[header.size:])
    capsys.readouterr()
    rec = tmp_path / "r.ltr"
    assert main(["reconstruct", "--config", str(cfg), "--sinogram", str(sino),
                 "--out", str(rec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [reconstruct] the sinogram header does not match")
    assert "s_max = 1.0000000000000001e+300" in err
    assert not rec.exists()

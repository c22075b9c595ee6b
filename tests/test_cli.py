import json

import numpy as np
import pytest

from limitomo import read_raster, read_sinogram
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
filter_impl = finite-difference

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
    raster = read_raster(out)
    assert raster.grid.n == 64
    assert raster.values.max() == 1.0
    assert pgm.exists()


def test_forward_from_raster_with_default_geometry(tmp_path):
    # The raster header stores the extent as float32 (1.2 -> 1.2000000477),
    # which must not make the default s_max look too small.
    cfg, _ = _write_cfg(tmp_path, DEFAULTS_CONFIG)
    raster = tmp_path / "phantom.ltr"
    sino_path = tmp_path / "g.lts"
    assert main(["phantom", "--config", str(cfg), "--out", str(raster)]) == 0
    assert main(["forward", "--config", str(cfg), "--from-raster", str(raster),
                 "--out", str(sino_path)]) == 0
    sino = read_sinogram(sino_path)
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


def test_analyze_removed_key_exits_1(tmp_path, capsys):
    cfg, out = _write_cfg(tmp_path, DEFAULTS_CONFIG + "\n[reconstruction]\napodize = true\n")
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error [config] [reconstruction] unknown key 'apodize'\n"
    assert not out.exists()


def test_forward_and_reconstruct_subcommands(tmp_path):
    cfg, _ = _write_cfg(tmp_path, SMALL_CONFIG)
    sino_path = tmp_path / "g.lts"
    assert main(["forward", "--config", str(cfg), "--out", str(sino_path)]) == 0
    sino = read_sinogram(sino_path)
    assert sino.grid.n_phi == 90
    # center sample of the unit disk sinogram is the chord length 2
    mid = sino.grid.n_s // 2
    assert sino.values[0, mid] == pytest.approx(2.0, abs=1e-6)

    rec_path = tmp_path / "rec.ltr"
    assert main(["reconstruct", "--sinogram", str(sino_path), "--config", str(cfg),
                 "--out", str(rec_path)]) == 0
    rec = read_raster(rec_path)
    assert rec.grid.n == 64
    # coarse grid, but the reconstruction must resemble the disk
    assert abs(rec.values[32, 32] - 1.0) < 0.15


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


def test_study_rejects_full_window(tmp_path):
    cfg, out = _write_cfg(tmp_path, SMALL_CONFIG)
    rc = main(["study", "--config", str(cfg), "--k-list", "1,2",
               "--out-dir", str(out)])
    assert rc != 0


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


def test_threads_env_var_matches_serial(tmp_path, monkeypatch):
    cfg, _ = _write_cfg(tmp_path, SMALL_CONFIG)
    sino1 = tmp_path / "g1.lts"
    assert main(["forward", "--config", str(cfg), "--out", str(sino1)]) == 0
    monkeypatch.setenv("LIMITOMO_THREADS", "2")
    sino2 = tmp_path / "g2.lts"
    assert main(["forward", "--config", str(cfg), "--out", str(sino2)]) == 0
    a = read_sinogram(sino1)
    b = read_sinogram(sino2)
    np.testing.assert_allclose(a.values, b.values, atol=1e-12)

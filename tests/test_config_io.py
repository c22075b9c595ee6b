import math
import struct
import tracemalloc

import numpy as np
import pytest

from limitomo import (
    ConfigError,
    ImageGrid,
    Raster,
    Sinogram,
    SinogramGrid,
    load_config,
    loads_config,
    read_raster,
    read_sinogram,
    write_raster,
    write_sinogram,
)
from limitomo.io import _check_float32, _float32_payload

MINIMAL = """
[phantom]
shape1 = disk 0 0 1 1

[window]
kind = full

[reconstruction]
operator = B
"""


def test_minimal_config_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.igrid.n == 512
    assert cfg.sgrid.n_phi == 720
    assert cfg.window is None
    assert cfg.operator == "B"
    assert cfg.sgrid.s_max == pytest.approx(math.sqrt(2.0) * cfg.igrid.extent)
    assert cfg.mu_spec == "constant 1"
    assert len(cfg.phantom.shapes) == 1


def test_config_dump_roundtrip():
    cfg = loads_config(MINIMAL)
    text = cfg.dumps()
    cfg2 = loads_config(text)
    assert cfg2.dumps() == text
    assert cfg2.sha256() == cfg.sha256()


ODD = """
[image]
n = 16
extent = 1.2345678901234567

[phantom]
shape1 = disk 0.01234567890123456 0 0.98765432109876543 1.1111111111111112
shape2 = ellipse 0.1 0.2 0.3333333333333333 0.2 37.123456789012345 0.5
shape3 = clipped-disk 0 0 0.7 0.6 0.8 0.1111111111111111 1e-7

[sinogram]
n_phi = 9
phi0_deg = 12.345678901234567
phi1_deg = 191.23456789012345
n_s = 33

[window]
kind = finite-order
phi1_deg = 30
phi2_deg = 150

[weights]
mu = exponential 0.12345678901234567 parallel
nu = constant 1.0000000000000002
"""


def _stored_values(cfg):
    return (cfg.igrid, cfg.sgrid.n_phi, cfg.sgrid.n_s, cfg.sgrid.s_max,
            [vars(shape) for shape in cfg.phantom.shapes],
            cfg.mu.kind, cfg.mu.params, cfg.nu.kind, cfg.nu.params)


def test_config_dump_reloads_the_same_floats():
    # The default s_max = sqrt(2) * extent and every value kept as given
    # come back as the same float64; round degrees stay round.
    cfg = loads_config(ODD)
    text = cfg.dumps()
    back = loads_config(text)
    assert _stored_values(back) == _stored_values(cfg)
    assert back.sgrid.s_max == math.sqrt(2.0) * 1.2345678901234567
    assert "phi1_deg = 30\n" in text and "phi2_deg = 150\n" in text
    assert "nu = constant 1.0000000000000002\n" in text
    assert "shape3 = clipped-disk 0 0 0.7 0.6 0.8 0.1111111111111111 1e-07\n" in text
    assert back.sgrid.phi0 == pytest.approx(cfg.sgrid.phi0, rel=1e-14)
    assert back.sgrid.dphi == pytest.approx(cfg.sgrid.dphi, rel=1e-14)
    assert back.dumps() == text


def test_config_rejects_reversed_window():
    text = MINIMAL.replace("kind = full",
                           "kind = finite-order\nphi1_deg = 100\nphi2_deg = 80\nk = 1")
    with pytest.raises(ConfigError, match="phi1 < phi2 required"):
        loads_config(text)


def test_config_rejects_order_beyond_normal_floats():
    text = MINIMAL.replace("kind = full", "kind = finite-order\nk = 2045")
    with pytest.raises(ConfigError, match=r"^\[window\]: .*k <= 2044"):
        loads_config(text)
    text = MINIMAL.replace("kind = full", "kind = finite-order\nk = 99999999999999999999")
    with pytest.raises(ConfigError, match=r"^\[window\]: "):
        loads_config(text)


def test_config_rejects_small_smax():
    text = MINIMAL + "\n[sinogram]\ns_max = 1.0\n"
    with pytest.raises(ConfigError, match="s_max"):
        loads_config(text)


def test_config_rejects_infinite_smax():
    text = MINIMAL + "\n[sinogram]\ns_max = inf\n"
    with pytest.raises(ConfigError, match=r"^\[sinogram\]: .*finite"):
        loads_config(text)


@pytest.mark.parametrize("text, error", [
    (MINIMAL.replace("disk 0 0 1 1", "ellipse 0 0 0.5 0.3 inf 1"),
     r"^\[phantom\] shape1: non-finite shape parameter"),
    (MINIMAL.replace("disk 0 0 1 1", "disk nan 0 0.5 1"), r"^\[phantom\] shape1: non-finite"),
    (MINIMAL + "\n[image]\nn = " + "9" * 400, r"^\[image\]: the .* takes 7\.451e\+791 GiB"),
    (MINIMAL + "\n[sinogram]\nn_phi = " + "9" * 400, r"^\[sinogram\]: the .* GiB"),
    (MINIMAL + "\n[sinogram]\ns_max = 1e308", r"^\[sinogram\]: .*2 s_max finite"),
], ids=["inf-angle", "nan-center", "image-digits", "sinogram-digits", "s_max-span"])
def test_config_rejects_values_beyond_floats(text, error):
    # Each once escaped loads_config as an error other than ConfigError,
    # or (s_max) loaded with an infinite offset spacing.
    with pytest.raises(ConfigError, match=error):
        loads_config(text)


def test_config_rejects_infinite_extent():
    text = MINIMAL + "\n[image]\nextent = inf\n"
    with pytest.raises(ConfigError, match=r"^\[image\]: .*finite"):
        loads_config(text)


@pytest.mark.parametrize("key", ["mu", "nu"])
@pytest.mark.parametrize("rate", ["inf", "nan", "1000", "-1000"])
def test_config_rejects_bad_exponential_rate(key, rate):
    text = MINIMAL + f"\n[weights]\n{key} = exponential {rate}\n"
    with pytest.raises(ConfigError, match=rf"^\[weights\] {key}: "):
        loads_config(text)


def test_exponential_rate_bound_uses_largest_radius():
    # R = max(s_max, sqrt(2) * extent): 300 * 2 < 709.78 < 300 * 2.5
    base = MINIMAL + "\n[image]\nextent = 1.2\n\n[weights]\nmu = exponential 300\n"
    assert loads_config(base + "\n[sinogram]\ns_max = 2\n").mu.params[0] == 300.0
    with pytest.raises(ConfigError, match=r"^\[weights\] mu: .*overflows"):
        loads_config(base + "\n[sinogram]\ns_max = 2.5\n")


def test_config_bounds_combined_exponential_rate():
    # R = sqrt(2) * 1.2 = 1.697: 400 * R < 709.78 < 800 * R
    base = MINIMAL + "\n[image]\nextent = 1.2\n\n[weights]\nmu = exponential 400\n"
    assert loads_config(base + "nu = constant 1\n").mu.params[0] == 400.0
    with pytest.raises(ConfigError, match=r"^\[weights\]: .*overflow"):
        loads_config(base + "nu = exponential 400\n")
    with pytest.raises(ConfigError, match=r"^\[weights\]: "):
        loads_config(base + "nu = exponential -400 parallel\n")


def test_config_parse_error_carries_line():
    bad = "[image\nn = 32\n"
    with pytest.raises(ConfigError, match="line"):
        loads_config(bad)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        loads_config(MINIMAL + "\n[image]\nnn = 12\n")
    with pytest.raises(ConfigError, match="unknown section"):
        loads_config(MINIMAL + "\n[imaging]\nn = 12\n")
    # Removed keys: MINIMAL ends inside [reconstruction].
    for extra, error in (("\n[image]\nsupersample = false\n", "[image] unknown key 'supersample'"),
                         ("pad_factor = 2\n", "[reconstruction] unknown key 'pad_factor'"),
                         ("apodize = false\n", "[reconstruction] unknown key 'apodize'")):
        with pytest.raises(ConfigError) as exc:
            loads_config(MINIMAL + extra)
        assert str(exc.value) == error


# MINIMAL's [reconstruction] with the operator and the filter_impl key swapped in.
def _recon_text(operator, filter_impl=None):
    text = MINIMAL.replace("operator = B", f"operator = {operator}")
    return text if filter_impl is None else text + f"filter_impl = {filter_impl}\n"


@pytest.mark.parametrize("operator,given,own", [("B", "finite-difference", "spectral"),
                                                ("Lambda", "spectral", "finite-difference"),
                                                ("B", "wavelet", "spectral")])
def test_filter_impl_other_than_the_operators_filter_is_rejected(operator, given, own):
    # The operator fixes its row filter; the key may only name it.
    with pytest.raises(ConfigError) as exc:
        loads_config(_recon_text(operator, given))
    assert str(exc.value) == (f"[reconstruction]: filter_impl = {given!r}, "
                              f"but operator {operator} filters by {own!r}")


@pytest.mark.parametrize("operator,own", [("B", "spectral"), ("Lambda", "finite-difference")])
@pytest.mark.parametrize("keyed", [True, False], ids=["matching", "absent"])
def test_filter_impl_matching_or_absent_loads_and_dumps_the_operators_filter(operator, own,
                                                                             keyed):
    cfg = loads_config(_recon_text(operator, own if keyed else None))
    assert cfg.operator == operator
    text = cfg.dumps()
    assert f"[reconstruction]\noperator = {operator}\nfilter_impl = {own}\n" in text
    back = loads_config(text)
    assert back.dumps() == text
    assert back.sha256() == cfg.sha256()


def test_bad_operator_reports_before_filter_impl():
    with pytest.raises(ConfigError, match=r"^\[reconstruction\]: operator must be 'B' or"):
        loads_config(_recon_text("C", "spectral"))


@pytest.mark.parametrize("section,line,size", [
    ("image", "n = 1000000", "1000000x1000000 float64 image"),
    ("sinogram", "n_phi = 100000000", "100000000x1536 complex128 padded row spectrum"),
], ids=["image", "sinogram"])
def test_config_rejects_oversized_grid(section, line, size):
    # Checked at load: nothing of the grid's size is allocated.
    with pytest.raises(ConfigError, match=rf"^\[{section}\]: the {size} takes .* GiB"):
        loads_config(MINIMAL + f"\n[{section}]\n{line}\n")


def test_config_rejects_oversized_phantom():
    text = MINIMAL + "\n[image]\nn = 64\nextent = 0.9\n"
    with pytest.raises(ConfigError, match="inside the image extent"):
        loads_config(text)


def test_config_parses_all_shapes_and_weights():
    text = """
[image]
n = 64
extent = 2.0

[phantom]
shape1 = disk 0 0 1 1
shape2 = ellipse 0.3 0 0.5 0.3 30 0.5
shape3 = clipped-disk 0 0 1 1 0 0.2 1

[sinogram]
n_phi = 90
n_s = 64
s_max = 3.0

[window]
kind = finite-order
phi1_deg = 45
phi2_deg = 135
k = 2

[weights]
mu = exponential 0.3 perp
nu = constant 2.0

[reconstruction]
operator = Lambda
filter_impl = finite-difference
"""
    cfg = loads_config(text)
    assert len(cfg.phantom.shapes) == 3
    assert cfg.window.k == 2
    assert cfg.window.phi1 == pytest.approx(math.pi / 4.0)
    assert cfg.mu.kind == "exponential"
    assert cfg.nu.params[0] == 2.0
    assert cfg.operator == "Lambda"
    rc = cfg.recon_config()
    assert rc.operator == "Lambda"


def test_raster_file_size_and_roundtrip(tmp_path):
    grid = ImageGrid(8, 1.0)
    raster = Raster(grid, np.zeros((8, 8)))
    path = tmp_path / "zero.ltr"
    write_raster(raster, path)
    assert path.stat().st_size == 16 + 8 * 8 * 4
    rng = np.random.default_rng(4)
    raster2 = Raster(grid, rng.normal(size=(8, 8)))
    path2 = tmp_path / "rand.ltr"
    write_raster(raster2, path2)
    back = read_raster(path2, grid)
    np.testing.assert_array_equal(back.values.astype("<f4"),
                                  raster2.values.astype("<f4"))
    # second write of the read-back values is byte-identical
    path3 = tmp_path / "rand2.ltr"
    write_raster(back, path3)
    assert path2.read_bytes() == path3.read_bytes()


def test_raster_write_rejects_nonfinite(tmp_path):
    grid = ImageGrid(8, 1.0)
    values = np.zeros((8, 8))
    values[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        write_raster(Raster(grid, values), tmp_path / "bad.ltr")


def test_writers_reject_float32_overflow(tmp_path):
    # 1e39 is finite in float64 and inf in float32
    values = np.zeros((8, 8))
    values[2, 3] = 1e39
    path = tmp_path / "big.ltr"
    with pytest.raises(ValueError, match="float32"):
        write_raster(Raster(ImageGrid(8, 1.0), values), path)
    assert not path.exists()
    path = tmp_path / "big.lts"
    with pytest.raises(ValueError, match="float32"):
        write_sinogram(Sinogram(SinogramGrid(n_phi=8, n_s=8, s_max=1.5), values), path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e39], ids=["nan", "inf", "-inf", "-1e39"])
def test_writers_reject_every_non_finite_float32(tmp_path, bad):
    # The check reads the payload's minimum and maximum cast to float32: a
    # NaN, either infinity and a float64 beyond the float32 range are each
    # rejected.
    values = np.ones((8, 8))
    values[5, 6] = bad
    with pytest.raises(ValueError, match="non-finite values as float32"):
        write_raster(Raster(ImageGrid(8, 1.0), values), tmp_path / "bad.ltr")
    with pytest.raises(ValueError, match="non-finite values as float32"):
        write_sinogram(Sinogram(SinogramGrid(n_phi=8, n_s=8, s_max=1.5), values),
                       tmp_path / "bad.lts")


def test_writers_keep_the_float32_bytes(tmp_path):
    # The payload is the cast array written as it is: the bytes of
    # astype("<f4").tobytes(), also for a transposed (Fortran-ordered) input.
    rng = np.random.default_rng(11)
    values = rng.standard_normal((40, 33)) * 10.0 ** rng.uniform(-40, 38, (40, 33))
    sgrid = SinogramGrid(n_phi=33, n_s=40, s_max=1.5)
    for sino in (Sinogram(sgrid, values.T), Sinogram(sgrid, values.T.copy())):
        write_sinogram(sino, tmp_path / "s.lts")
        data = (tmp_path / "s.lts").read_bytes()
        assert data[36:] == values.T.astype("<f4").tobytes(order="C")
    raster = Raster(ImageGrid(40, 1.0), rng.standard_normal((40, 40)).T)
    write_raster(raster, tmp_path / "r.ltr")
    assert (tmp_path / "r.ltr").read_bytes()[16:] == raster.values.astype("<f4").tobytes()


def test_write_sinogram_holds_one_payload(tmp_path):
    # Beyond its float64 input, the writer holds the float32 payload and
    # nothing of its size besides: under 1.25 payloads (a bytes copy of the
    # payload makes 2).
    values = np.random.default_rng(12).standard_normal((360, 513))
    sino = Sinogram(SinogramGrid(n_phi=360, n_s=513, s_max=1.5), values)
    tracemalloc.start()
    try:
        write_sinogram(sino, tmp_path / "s.lts")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * values.size * 4


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["max", "min"])
def test_float32_check_and_cast_agree_at_the_range_edge(sign):
    # Exact: 2^128 - 2^103 is the first float64 that rounds to inf in
    # float32 (halfway to 2^128); the check, which casts only the minimum and
    # the maximum, rejects it and passes its float64 predecessor, whose cast
    # payload is finite.  NaN and either infinity are rejected too.
    edge = 2.0 ** 128 - 2.0 ** 103
    below = np.array([[1.0, sign * np.nextafter(edge, 0.0)], [-2.0, 0.5]])
    _check_float32(below, "raster")
    assert np.all(np.isfinite(_float32_payload(below, "raster")))
    for bad in (sign * edge, np.nan, np.inf, -np.inf):
        values = below.copy()
        values[1, 0] = bad
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(values.astype("<f4")))
        with pytest.raises(ValueError, match="raster contains non-finite values as float32"):
            _check_float32(values, "raster")
        with pytest.raises(ValueError, match="raster contains non-finite values as float32"):
            _float32_payload(values, "raster")


def test_float32_check_holds_no_payload():
    # The check casts two values, not the payload: its traced peak on a 512^2
    # payload stays below 1% of the payload's float32 bytes (a cast is 100%).
    values = np.random.default_rng(13).standard_normal((512, 512))
    tracemalloc.start()
    try:
        _check_float32(values, "raster")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * values.size * 4


def test_pgm_constant_maps_to_zero(tmp_path):
    grid = ImageGrid(8, 1.0)
    raster = Raster(grid, np.full((8, 8), 3.3))
    path = tmp_path / "const.pgm"
    write_raster(raster, path, fmt="pgm16")
    data = path.read_bytes()
    assert data.startswith(b"P5\n8 8\n65535\n")
    pix = np.frombuffer(data[len(b"P5\n8 8\n65535\n"):], dtype=">u2")
    assert np.all(pix == 0)


def test_pgm_minmax_normalization(tmp_path):
    grid = ImageGrid(8, 1.0)
    values = np.zeros((8, 8))
    values[3, 2] = -1.0
    values[5, 6] = 3.0
    path = tmp_path / "ramp.pgm"
    write_raster(Raster(grid, values), path, fmt="pgm16")
    pix = np.frombuffer(path.read_bytes()[len(b"P5\n8 8\n65535\n"):],
                        dtype=">u2").reshape(8, 8)
    assert pix.min() == 0
    assert pix.max() == 65535


def test_sinogram_roundtrip_full_range(tmp_path):
    sg = SinogramGrid(n_phi=90, n_s=65, s_max=1.75)
    rng = np.random.default_rng(6)
    sino = Sinogram(sg, rng.normal(size=(90, 65)))
    path = tmp_path / "g.lts"
    write_sinogram(sino, path)
    back = read_sinogram(path, sg)
    np.testing.assert_array_equal(back.values.astype("<f4"),
                                  sino.values.astype("<f4"))


def test_sinogram_roundtrip_window_range(tmp_path):
    sg = SinogramGrid(n_phi=91, n_s=33, s_max=2.0,
                      phi0=math.pi / 4.0, phi1=3.0 * math.pi / 4.0)
    sino = Sinogram(sg, np.ones((91, 33)))
    path = tmp_path / "gw.lts"
    write_sinogram(sino, path)
    back = read_sinogram(path, sg)
    np.testing.assert_array_equal(back.values, 1.0)


def test_raster_header_magic(tmp_path):
    path = tmp_path / "bad.ltr"
    path.write_bytes(struct.pack("<4sIf4x", b"XXXX", 8, 1.0) + b"\0" * 256)
    with pytest.raises(ValueError, match="magic"):
        read_raster(path, ImageGrid(8, 1.0))


@pytest.mark.parametrize("kind", ["raster", "sinogram"])
def test_readers_reject_bytes_after_the_payload(tmp_path, kind):
    # A header that claims fewer samples than the file holds is a lie too.
    path = tmp_path / "f"
    if kind == "raster":
        grid = ImageGrid(8, 1.0)
        write_raster(Raster(grid, np.zeros((8, 8))), path)
        read = read_raster
    else:
        grid = SinogramGrid(n_phi=4, n_s=5, s_max=1.0)
        write_sinogram(Sinogram(grid, np.zeros((4, 5))), path)
        read = read_sinogram
    path.write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(ValueError, match="4 bytes after the payload"):
        read(path, grid)


def test_sinogram_truncated(tmp_path):
    sg = SinogramGrid(n_phi=16, n_s=17, s_max=1.0)
    sino = Sinogram(sg, np.zeros((16, 17)))
    path = tmp_path / "t.lts"
    write_sinogram(sino, path)
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    with pytest.raises(ValueError, match="truncated"):
        read_sinogram(path, sg)


def test_raster_header_claiming_more_than_the_file(tmp_path):
    # n = 2**32 - 1 claims about 7e19 payload bytes; the file holds 8.
    path = tmp_path / "lying.ltr"
    path.write_bytes(struct.pack("<4sIf4x", b"LTR1", 0xFFFFFFFF, 1.0) + b"\0" * 8)
    with pytest.raises(ValueError, match="truncated"):
        read_raster(path, ImageGrid(8, 1.0))


def test_sinogram_header_claiming_more_than_the_file(tmp_path):
    path = tmp_path / "lying.lts"
    header = struct.pack("<4sIddId", b"LTS1", 0xFFFFFFFF, 0.0, 0.01,
                         0xFFFFFFFF, 1.0)
    path.write_bytes(header + b"\0" * 8)
    with pytest.raises(ValueError, match="truncated"):
        read_sinogram(path, SinogramGrid(n_phi=8, n_s=8, s_max=1.0))


@pytest.mark.parametrize("grid, error", [
    (ImageGrid(9, 1.0), r"\[image\]: n = 8 \(config 9\)$"),
    (ImageGrid(8, 1.0 + 1e-7), r"\[image\]: extent = 1 \(config 1.0000001192092896\)$"),
])
def test_raster_read_on_another_grid_raises(tmp_path, grid, error):
    # The header must hold the grid exactly, as the writer stores it.
    path = tmp_path / "r.ltr"
    write_raster(Raster(ImageGrid(8, 1.0), np.zeros((8, 8))), path)
    assert read_raster(path, ImageGrid(8, 1.0 + 1e-9)).grid.extent == 1.0 + 1e-9
    with pytest.raises(ValueError, match="^the raster header does not match the config's " + error):
        read_raster(path, grid)


def test_config_rejects_angle_step_that_underflows():
    text = MINIMAL + "\n[sinogram]\nn_phi = 1000\nphi1_deg = 1e-321\n"
    with pytest.raises(ConfigError, match=r"^\[sinogram\]: the angle step .* underflows to 0"):
        loads_config(text)

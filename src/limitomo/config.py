"""Run configuration: a flat-section INI text format.

A run is described by up to seven sections (all optional, all keys
defaulted)::

    [image]
    n = 512                 # pixels per axis
    extent = 1.2            # half-width L of [-L, L]^2, finite as float32

    [phantom]               # one shapeN key per shape, additive densities
    shape1 = disk 0 0 1 1                   # cx cy r density
    #shape2 = ellipse 0.3 0 0.5 0.3 30 0.5  # cx cy a b angle_deg density
    #shape3 = clipped-disk 0 0 1 1 0 0.2 1  # cx cy r nx ny offset density

    [sinogram]
    n_phi = 720
    phi0_deg = 0
    phi1_deg = 360          # span of 360 means the full circle
    n_s = 768
    s_max = 1.7             # default sqrt(2) * extent

    [window]
    kind = full             # full | indicator | finite-order | infinite-order
    phi1_deg = 45
    phi2_deg = 135
    k = 1                   # finite-order only

    [weights]
    mu = constant 1.0       # constant C | exponential LAM [perp|parallel]
    nu = constant 1.0       # LAM finite, |LAM| * R <= 709.78, R = max(s_max, sqrt(2) * extent),
                            # and (|LAM of mu| + |LAM of nu|) * R <= 709.78

    [reconstruction]
    operator = B            # B | Lambda

    [output]
    dir = out

Unknown sections or keys are rejected, and so is a grid whose float64
image (``8 n^2`` bytes) or padded row spectrum (``32 n_phi n_s`` bytes)
exceeds ``MAX_BUFFER_BYTES`` (2 GiB).  ``load_config`` fills every
default and the result echoes back as a normalized dump via
:meth:`RunConfig.dumps`.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import struct
import sys
from dataclasses import dataclass
from decimal import Decimal

from .filters import ReconstructionConfig
from .geometry import AngularWindow, ImageGrid, SinogramGrid
from .phantoms import ClippedDisk, Disk, Ellipse, Phantom
from .transforms import WeightFunction


class ConfigError(ValueError):
    """Raised for unparsable or invalid run configurations."""


def _num(x: float) -> str:
    """``repr(x)`` without a trailing ``.0``: text that reads back as the same float64."""
    return repr(float(x)).removesuffix(".0")


_KNOWN_KEYS = {
    "image": {"n", "extent"},
    "phantom": None,  # shapeN keys, validated separately
    "sinogram": {"n_phi", "phi0_deg", "phi1_deg", "n_s", "s_max"},
    "window": {"kind", "phi1_deg", "phi2_deg", "k"},
    "weights": {"mu", "nu"},
    "reconstruction": {"operator", "filter_impl"},
    "output": {"dir"},
}

# The row filter of each operator, by the name the ``[reconstruction] filter_impl``
# key gives it.  A given value must name this filter; the dump writes it, so a
# config that sets the key dumps to the same bytes.
_OPERATOR_FILTER = {"B": "spectral", "Lambda": "finite-difference"}


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated, fully-defaulted pipeline configuration."""

    igrid: ImageGrid
    phantom: Phantom
    phantom_spec: tuple[str, ...]
    sgrid: SinogramGrid
    mu: WeightFunction
    nu: WeightFunction
    mu_spec: str
    nu_spec: str
    window: AngularWindow | None
    operator: str
    out_dir: str

    def recon_config(self) -> ReconstructionConfig:
        return ReconstructionConfig(self.operator, self.mu, self.nu, self.window)

    def dumps(self) -> str:
        """Normalized dump with all defaults filled; it reloads every value kept as
        given to the same float64, and the angles (kept in radians) to 15 digits."""
        lines = ["[image]",
                 f"n = {self.igrid.n}",
                 f"extent = {_num(self.igrid.extent)}",
                 "",
                 "[phantom]"]
        for i, spec in enumerate(self.phantom_spec, start=1):
            lines.append(f"shape{i} = {spec}")
        g = self.sgrid
        lines += ["",
                  "[sinogram]",
                  f"n_phi = {g.n_phi}",
                  f"phi0_deg = {math.degrees(g.phi0):.15g}",
                  f"phi1_deg = {math.degrees(g.phi1):.15g}",
                  f"n_s = {g.n_s}",
                  f"s_max = {_num(g.s_max)}",
                  "",
                  "[window]"]
        if self.window is None:
            lines.append("kind = full")
        else:
            w = self.window
            lines += [f"kind = {w.kind}",
                      f"phi1_deg = {math.degrees(w.phi1):.15g}",
                      f"phi2_deg = {math.degrees(w.phi2):.15g}"]
            if w.kind == "finite-order":
                lines.append(f"k = {w.k}")
        lines += ["",
                  "[weights]",
                  f"mu = {self.mu_spec}",
                  f"nu = {self.nu_spec}",
                  "",
                  "[reconstruction]",
                  f"operator = {self.operator}",
                  f"filter_impl = {_OPERATOR_FILTER[self.operator]}",
                  "",
                  "[output]",
                  f"dir = {self.out_dir}",
                  ""]
        return "\n".join(lines)

    def sha256(self) -> str:
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()


def _parse_shape(key: str, raw: str):
    parts = raw.split()
    if not parts:
        raise ConfigError(f"[phantom] {key}: empty shape specification")
    kind, args = parts[0], parts[1:]
    try:
        vals = [float(a) for a in args]
    except ValueError:
        raise ConfigError(f"[phantom] {key}: non-numeric shape parameter in {raw!r}")
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"[phantom] {key}: non-finite shape parameter in {raw!r}")
    try:
        if kind == "disk":
            if len(vals) != 4:
                raise ConfigError(f"[phantom] {key}: disk needs cx cy r density")
            shape = Disk((vals[0], vals[1]), vals[2], vals[3])
        elif kind == "ellipse":
            if len(vals) != 6:
                raise ConfigError(f"[phantom] {key}: ellipse needs cx cy a b angle_deg density")
            shape = Ellipse((vals[0], vals[1]), vals[2], vals[3],
                            math.radians(vals[4]), vals[5])
        elif kind == "clipped-disk":
            if len(vals) != 7:
                raise ConfigError(f"[phantom] {key}: clipped-disk needs cx cy r nx ny offset density")
            shape = ClippedDisk((vals[0], vals[1]), vals[2],
                                (vals[3], vals[4]), vals[5], vals[6])
        else:
            raise ConfigError(f"[phantom] {key}: unknown shape type {kind!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[phantom] {key}: {exc}") from exc
    return shape, " ".join([kind] + [_num(v) for v in vals])


# exp(x) overflows float64 for x above this.
_EXP_ARG_MAX = math.log(sys.float_info.max)

# Bytes of the largest array a run allocates for one grid: a grid beyond it
# fails at load, not in numpy.
MAX_BUFFER_BYTES = 2 * 1024**3


def check_buffer(what: str, nbytes: int) -> None:
    # Decimal: a count of hundreds of digits overflows a float.
    if nbytes > MAX_BUFFER_BYTES:
        raise ValueError(f"the {what} takes {Decimal(nbytes) / 2**30:.4g} GiB, "
                         f"more than the {MAX_BUFFER_BYTES / 2**30:g} GiB limit")


def _parse_weight(raw: str, where: str, radius: float) -> tuple[WeightFunction, str]:
    """Parse a weight spec; ``radius`` bounds the ``|x|`` the operators evaluate it at."""
    parts = raw.split()
    try:
        if parts and parts[0] == "constant" and len(parts) == 2:
            c = float(parts[1])
            return WeightFunction.constant(c), f"constant {_num(c)}"
        if parts and parts[0] == "exponential" and len(parts) in (2, 3):
            lam = float(parts[1])
            mode = parts[2] if len(parts) == 3 else "perp"
            weight = WeightFunction.exponential(lam, mode)
            if abs(lam) * radius > _EXP_ARG_MAX:
                raise ValueError(
                    f"exponential rate {lam:.6g} overflows float64: |rate| * R = "
                    f"{abs(lam) * radius:.6g} > {_EXP_ARG_MAX:.6g}, "
                    f"R = max(s_max, sqrt(2) * extent) = {radius:.6g}"
                )
            return weight, f"exponential {_num(lam)} {mode}"
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}: expected 'constant C' or 'exponential LAM [perp|parallel]', got {raw!r}"
    )


def loads_config(text: str) -> RunConfig:
    """Parse and validate a configuration from text."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        known = _KNOWN_KEYS[section]
        for key in parser.options(section):
            if known is None:
                if not key.startswith("shape"):
                    raise ConfigError(f"[phantom] unknown key {key!r} (expected shapeN)")
            elif key not in known:
                raise ConfigError(f"[{section}] unknown key {key!r}")

    def get(section, key, default):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    where = "[image]"
    try:
        n = int(get("image", "n", "512"))
        extent = float(get("image", "extent", "1.2"))
        igrid = ImageGrid(n, extent)
        try:
            struct.pack("<f", extent)  # the raster header stores the extent as float32
        except OverflowError:
            raise ValueError(f"extent = {extent:.6g} overflows the raster header's float32")
        check_buffer(f"{n}x{n} float64 image", 8 * n * n)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    shapes, specs = [], []
    if parser.has_section("phantom") and parser.options("phantom"):
        for key in sorted(parser.options("phantom"),
                          key=lambda k: (len(k), k)):
            shape, norm = _parse_shape(key, parser.get("phantom", key))
            shapes.append(shape)
            specs.append(norm)
    else:
        shapes = [Disk((0.0, 0.0), 1.0, 1.0)]
        specs = ["disk 0 0 1 1"]
    phantom = Phantom(tuple(shapes))
    # Overlapping shapes add their densities, so the sum must stay finite.
    if not math.isfinite(sum(abs(sh.density) for sh in shapes)):
        raise ConfigError("[phantom] the sum of |density| over the shapes overflows float64")
    if not phantom.fits_inside(igrid):
        raise ConfigError("phantom must lie strictly inside the image extent")

    where = "[sinogram]"
    try:
        n_phi = int(get("sinogram", "n_phi", "720"))
        phi0 = math.radians(float(get("sinogram", "phi0_deg", "0")))
        phi1 = math.radians(float(get("sinogram", "phi1_deg", "360")))
        n_s = int(get("sinogram", "n_s", "768"))
        s_default = math.sqrt(2.0) * igrid.extent
        s_max = float(get("sinogram", "s_max", repr(s_default)))
        sgrid = SinogramGrid(n_phi, n_s, s_max, phi0, phi1)
        # The row filter's zero-padded complex spectrum is four times the
        # float64 sinogram, so it bounds both.
        check_buffer(f"{n_phi}x{2 * n_s} complex128 padded row spectrum",
                     16 * n_phi * 2 * n_s)
        if not sgrid.dphi > 0.0:
            raise ValueError(f"the angle step over {phi1 - phi0:.6g} rad underflows to 0")
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if s_max < math.sqrt(2.0) * igrid.extent - 1e-12:
        raise ConfigError(
            f"{where}: s_max = {s_max:.6g} violates s_max >= sqrt(2) * extent "
            f"= {math.sqrt(2.0) * igrid.extent:.6g}"
        )

    where = "[window]"
    kind = get("window", "kind", "full").strip()
    if kind == "full":
        window = None
    else:
        try:
            wphi1 = math.radians(float(get("window", "phi1_deg", "45")))
            wphi2 = math.radians(float(get("window", "phi2_deg", "135")))
            k = int(get("window", "k", "1"))
            window = AngularWindow(wphi1, wphi2, kind, k)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    radius = max(s_max, math.sqrt(2.0) * igrid.extent)
    mu, mu_spec = _parse_weight(get("weights", "mu", "constant 1.0"), "[weights] mu", radius)
    nu, nu_spec = _parse_weight(get("weights", "nu", "constant 1.0"), "[weights] nu", radius)
    # The weighted back-projection multiplies a mu-weighted sinogram by nu.
    rate = sum(abs(w.params[0]) for w in (mu, nu) if w.kind == "exponential")
    if rate * radius > _EXP_ARG_MAX:
        raise ConfigError(
            f"[weights]: exponential rates of mu and nu overflow float64 together: "
            f"(|mu rate| + |nu rate|) * R = {rate * radius:.6g} > {_EXP_ARG_MAX:.6g}, "
            f"R = max(s_max, sqrt(2) * extent) = {radius:.6g}"
        )

    where = "[reconstruction]"
    operator = get("reconstruction", "operator", "B").strip()

    out_dir = get("output", "dir", "out").strip()

    cfg = RunConfig(
        igrid=igrid, phantom=phantom, phantom_spec=tuple(specs), sgrid=sgrid,
        mu=mu, nu=nu, mu_spec=mu_spec, nu_spec=nu_spec, window=window,
        operator=operator, out_dir=out_dir,
    )
    try:
        cfg.recon_config()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    own_filter = _OPERATOR_FILTER[operator]
    filter_impl = get("reconstruction", "filter_impl", own_filter).strip()
    if filter_impl != own_filter:
        raise ConfigError(f"{where}: filter_impl = {filter_impl!r}, but operator "
                          f"{operator} filters by {own_filter!r}")
    if window is not None and not sgrid.periodic:
        if window.phi1 < sgrid.phi0 - 1e-12 or window.phi2 > sgrid.phi1 + 1e-12:
            raise ConfigError("[window] window must lie inside the sinogram angular range")
    return cfg


def load_config(path) -> RunConfig:
    """Load and validate a configuration file (UTF-8 INI)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)

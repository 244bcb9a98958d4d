"""Problem parameters, potential descriptors, and standing-assumption validation."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid


class ConfigError(ValueError):
    """Malformed problem or experiment configuration; a bad value, so a ValueError."""


@dataclass(frozen=True)
class ProblemParams:
    """Equation and box parameters.

    N: spatial dimension (1..3); m: mass; p: convolution exponent;
    q: local exponent; alpha: Riesz order; L: box half-period (positive
    integer so unit-lattice shifts are grid exact); n: points per axis.
    """

    N: int
    m: float
    p: float
    q: float
    alpha: float
    L: float
    n: int

    def local_exponent_cap(self) -> float:
        """min(2p, 2N/(N-1)); the second bound reads as infinity for N = 1."""
        if self.N == 1:
            return 2.0 * self.p
        return min(2.0 * self.p, 2.0 * self.N / (self.N - 1))

    def make_grid(self) -> Grid:
        return Grid(self.N, float(self.L), self.n)


@dataclass(frozen=True)
class Descriptor:
    """Closed-form potential descriptor: formula tag plus named parameters."""

    tag: str
    params: dict = field(default_factory=dict)

    def get(self, key: str) -> float:
        if key not in self.params:
            raise ConfigError(f"missing key '{key}'")
        return float(self.params[key])


@dataclass(frozen=True)
class PotentialSpec:
    """Potential data: periodic part Vp, localized part Vl with sign mode, factor Gamma.

    sign mode 'zero' means Vl vanishes identically; 'negative'/'positive'
    require the sampled Vl to be strictly negative/positive everywhere.
    """

    Vp: Descriptor
    Vl: Descriptor
    Vl_sign: str
    Gamma: Descriptor


SIGN_MODES = ("zero", "negative", "positive")


def _constant(grid, value=0.0):
    return np.full(grid.shape, value)


def _tiled(cell):
    """The profile that samples cell(coords, **par) on one unit cell, coords one
    broadcastable array per axis, and tiles it over the box, which makes box
    periodicity and unit-lattice equivariance bitwise exact."""
    def profile(grid, **par):
        cpu = grid.cells_per_unit()
        coords = np.meshgrid(*([grid.axis_coords[:cpu]] * grid.N), indexing="ij", sparse=True)
        return np.tile(cell(coords, **par), (grid.n // cpu,) * grid.N)

    return profile


@_tiled
def _vp_cosine(coords, amplitude, offset):
    return offset + (amplitude / len(coords)) * sum(np.cos(2.0 * np.pi * c) for c in coords)


@_tiled
def _gamma_cosine(coords, amplitude):
    prod = 1.0
    for c in coords:
        prod = prod * (1.0 + np.cos(2.0 * np.pi * c)) / 2.0
    return amplitude * prod


def _gaussian_bump(grid, amplitude, width, center):
    return amplitude * np.exp(-grid.r2(np.full(grid.N, center)) / width**2)


def _inverse_power(grid, amplitude, width, power, center):
    r2 = grid.r2(np.full(grid.N, center))
    return amplitude / (1.0 + (r2 / width**2) ** (power / 2.0))


# section -> tag -> (the keys the tag reads, each with its default or REQUIRED, and
# the profile that samples the tag: profile(grid, **keys)). Tag zero is the constant 0.
REQUIRED = None  # the default of a key its tag cannot do without
PROFILES = {
    "potential.Vp": {
        "constant": ({"value": REQUIRED}, _constant),
        "cosine": ({"amplitude": REQUIRED, "offset": 0.0}, _vp_cosine),
    },
    "potential.Vl": {
        "zero": ({}, _constant),
        "gaussian-bump": ({"amplitude": REQUIRED, "width": 1.0, "center": 0.0}, _gaussian_bump),
        "inverse-power": ({"amplitude": REQUIRED, "width": 1.0, "power": 2.0, "center": 0.0},
                          _inverse_power),
    },
    "potential.Gamma": {
        "zero": ({}, _constant),
        "constant": ({"value": REQUIRED}, _constant),
        "cosine": ({"amplitude": REQUIRED}, _gamma_cosine),
    },
}


def _entry(section: str, tag: str):
    tags = PROFILES[section]
    if tag not in tags:
        raise ConfigError(f"[{section}] unknown tag '{tag}' (allowed: {', '.join(tags)})")
    return tags[tag]


@np.errstate(all="ignore")
def _sample(section: str, desc: Descriptor, grid: Grid) -> Field:
    """desc's profile at the grid nodes, defaults filling the keys desc leaves out;
    a missing key or a non-finite value is a ConfigError naming section and tag."""
    keys, profile = _entry(section, desc.tag)
    try:
        par = {key: desc.get(key) if key in desc.params or default is REQUIRED else default
               for key, default in keys.items()}
        return Field(grid, profile(grid, **par))
    except ValueError as exc:
        raise ConfigError(f"[{section}] tag '{desc.tag}': {exc}") from exc


def sample_potentials(pot: PotentialSpec, grid: Grid):
    """Sample (Vp, Vl, Gamma) at the grid nodes; Vp and Gamma exactly box-periodic."""
    vp = _sample("potential.Vp", pot.Vp, grid)
    vl = _sample("potential.Vl", pot.Vl, grid)
    return vp, vl, _sample("potential.Gamma", pot.Gamma, grid)


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    witness: str


@dataclass
class ValidationReport:
    checks: list[AssumptionCheck]
    # (Vp, Vl, Gamma) as sampled for the checks, once sampling succeeded
    potentials: tuple[Field, Field, Field] | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]


def _argwitness(grid: Grid, values: np.ndarray, idx_flat: int) -> str:
    idx = np.unravel_index(idx_flat, grid.shape)
    x = [grid.axis_coords[i] for i in idx]
    return f"x={tuple(round(v, 6) for v in x)}, value={values[idx]:.6g}"


def validate(params: ProblemParams, pot: PotentialSpec) -> ValidationReport:
    """Check every standing assumption; report one pass/fail entry per condition.

    Deterministic and side-effect free. Callers must refuse to solve unless
    all checks pass.
    """
    checks: list[AssumptionCheck] = []

    def add(name, passed, witness):
        checks.append(AssumptionCheck(name, bool(passed), witness))

    N, p, q, alpha, m = params.N, params.p, params.q, params.alpha, params.m
    add("dimension", N in (1, 2, 3), f"N={N}")
    add("mass positive", 0 < m < np.inf, f"m={m}")
    add("exponent window lower: (N-1)p - N < alpha",
        (N - 1) * p - N < alpha, f"(N-1)p-N={(N - 1) * p - N}, alpha={alpha}")
    add("exponent window upper: alpha < N", alpha < N, f"alpha={alpha}, N={N}")
    add("alpha positive", alpha > 0, f"alpha={alpha}")
    add("convolution exponent: p >= 2", p >= 2, f"p={p}")
    cap = params.local_exponent_cap()
    add("local exponent: 2 < q", q > 2, f"q={q}")
    add("local exponent: q < min(2p, 2N/(N-1))", q < cap, f"q={q}, cap={cap}")

    add("box half-period positive integer",
        0 < params.L < np.inf and abs(params.L - round(params.L)) < 1e-12,
        f"L={params.L}")
    add("grid points even and >= 8", params.n % 2 == 0 and params.n >= 8, f"n={params.n}")
    try:
        grid = params.make_grid()
        cpu = grid.cells_per_unit()
        add("unit cell integral in grid cells", True, f"cells per unit={cpu}")
    except ValueError as exc:
        grid = None
        add("unit cell integral in grid cells", False, str(exc))

    add("Vl sign mode recognised", pot.Vl_sign in SIGN_MODES, f"sign={pot.Vl_sign}")
    if grid is None or pot.Vl_sign not in SIGN_MODES:
        return ValidationReport(checks)

    try:
        vp, vl, gam = sample_potentials(pot, grid)
    except ConfigError as exc:
        add("potential descriptors sampled", False, str(exc))
        return ValidationReport(checks)
    add("potential descriptors sampled", True, "ok")

    roll = (cpu,) * grid.N
    axes = tuple(range(grid.N))
    for name, f in (("Vp", vp), ("Gamma", gam)):
        add(f"{name} unit-periodic on grid",
            np.array_equal(np.roll(f.values, roll, axis=axes), f.values), "tiled sampling")
    gmin_idx = int(np.argmin(gam.values))
    add("Gamma non-negative", gam.values.flat[gmin_idx] >= 0.0,
        _argwitness(grid, gam.values, gmin_idx))

    if pot.Vl_sign == "zero":
        add("Vl identically zero", not np.any(vl.values), f"max |Vl|={np.max(np.abs(vl.values)):.3g}")
    elif pot.Vl_sign == "negative":
        bad = int(np.argmax(vl.values))
        add("Vl strictly negative", vl.values.flat[bad] < 0.0, _argwitness(grid, vl.values, bad))
    else:
        bad = int(np.argmin(vl.values))
        add("Vl strictly positive", vl.values.flat[bad] > 0.0, _argwitness(grid, vl.values, bad))

    name, v = (("essinf V > 0", vp.values + vl.values) if pot.Vl_sign in ("zero", "negative")
               else ("essinf Vp > 0 (positive localized part)", vp.values))
    vmin_idx = int(np.argmin(v))
    add(name, v.flat[vmin_idx] > 0.0, _argwitness(grid, v, vmin_idx))
    return ValidationReport(checks, (vp, vl, gam))


PARAM_KEYS = ("N", "m", "p", "q", "alpha", "L", "n")


def _descriptor_from(section: dict, where: str) -> Descriptor:
    """The descriptor of one potential section, which takes only the keys its
    tag reads in PROFILES ([potential.Vl]'s sign is popped before)."""
    tag = section.pop("tag", None)
    if tag is None:
        raise ConfigError(f"[{where}] missing 'tag'")
    keys, _ = _entry(where, tag)
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"[{where}] unknown keys for tag '{tag}': {sorted(unknown)}")
    params = {}
    for key, raw in section.items():
        try:
            params[key] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{where}] {key}={raw!r} is not a number") from exc
    return Descriptor(tag, params)


def load_problem_config(path) -> tuple[ProblemParams, PotentialSpec]:
    """Parse the flat key/value problem config (UTF-8, INI sections).

    Required sections: [params], [potential.Vp], [potential.Vl],
    [potential.Gamma]. Unknown sections are errors, and so are keys that
    the section's tag does not read.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(str(path), "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    found, expected = set(parser.sections()), {"params", *PROFILES}
    gaps = {"missing": expected - found, "unknown": found - expected}
    parts = [f"{what} sections: {sorted(names)}" for what, names in gaps.items() if names]
    if parts:
        raise ConfigError("; ".join(parts))
    unknown = set(parser["params"]) - set(PARAM_KEYS)
    if unknown:
        raise ConfigError(f"[params] unknown keys: {sorted(unknown)}")

    par = dict(parser["params"])
    try:
        params = ProblemParams(
            N=int(par["N"]), m=float(par["m"]), p=float(par["p"]), q=float(par["q"]),
            alpha=float(par["alpha"]), L=float(par["L"]), n=int(par["n"]),
        )
    except KeyError as exc:
        raise ConfigError(f"[params] missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"[params] bad value: {exc}") from exc

    vl_section = dict(parser["potential.Vl"])
    sign = vl_section.pop("sign", None)
    vl = _descriptor_from(vl_section, "potential.Vl")
    if vl.tag == "zero":
        sign = sign or "zero"
    if sign not in SIGN_MODES:
        raise ConfigError(f"[potential.Vl] sign must be one of {SIGN_MODES}, got {sign!r}")
    if sign == "zero" and vl.tag != "zero":
        raise ConfigError("[potential.Vl] sign 'zero' requires tag 'zero'")

    vp = _descriptor_from(dict(parser["potential.Vp"]), "potential.Vp")
    gamma = _descriptor_from(dict(parser["potential.Gamma"]), "potential.Gamma")
    return params, PotentialSpec(vp, vl, sign, gamma)


def resolved_config_text(params: ProblemParams, pot: PotentialSpec) -> str:
    """Render the fully resolved problem back as config text for report embedding."""
    lines = ["[params]"]
    for key in PARAM_KEYS:
        lines.append(f"{key} = {getattr(params, key)!r}")
    for name, desc in (("Vp", pot.Vp), ("Vl", pot.Vl), ("Gamma", pot.Gamma)):
        lines.append(f"[potential.{name}]")
        lines.append(f"tag = {desc.tag}")
        if name == "Vl":
            lines.append(f"sign = {pot.Vl_sign}")
        for key, val in sorted(desc.params.items()):
            lines.append(f"{key} = {val!r}")
    return "\n".join(lines) + "\n"

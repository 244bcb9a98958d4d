"""Problem parameters, potential descriptors, and standing-assumption validation."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid


class ConfigError(Exception):
    """Malformed problem or experiment configuration."""


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

    def get(self, key: str, default: float | None = None) -> float:
        if key in self.params:
            return float(self.params[key])
        if default is None:
            raise ConfigError(f"descriptor '{self.tag}' missing parameter '{key}'")
        return default


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


def _tile_unit_cell(grid: Grid, cell_of) -> np.ndarray:
    """Sample cell_of(coords) on one unit cell and tile it over the box.

    coords holds one broadcastable coordinate array per axis. Tiling makes box
    periodicity and unit-lattice equivariance bitwise exact.
    """
    cpu = grid.cells_per_unit()
    x1 = grid.axis_coords[:cpu]
    coords = [x1] if grid.N == 1 else np.meshgrid(*([x1] * grid.N), indexing="ij", sparse=True)
    return np.tile(cell_of(coords), (grid.n // cpu,) * grid.N)


def _sample_periodic(desc: Descriptor, grid: Grid) -> np.ndarray:
    """Sample a 1-periodic closed form on the grid."""
    if desc.tag == "zero":
        return np.zeros(grid.shape)
    if desc.tag == "constant":
        return np.full(grid.shape, desc.get("value"))
    if desc.tag == "cosine":
        offset = desc.get("offset", 0.0)
        amp = desc.get("amplitude")

        def cell(coords):
            return offset + (amp / grid.N) * sum(np.cos(2.0 * np.pi * c) for c in coords)

        return _tile_unit_cell(grid, cell)
    raise ConfigError(f"unknown periodic potential tag '{desc.tag}'")


def _sample_localized(desc: Descriptor, grid: Grid) -> np.ndarray:
    if desc.tag == "zero":
        return np.zeros(grid.shape)
    r2 = grid.r2(np.full(grid.N, desc.get("center", 0.0)))
    if desc.tag == "gaussian-bump":
        amp = desc.get("amplitude")
        width = desc.get("width", 1.0)
        return amp * np.exp(-r2 / width**2)
    if desc.tag == "inverse-power":
        amp = desc.get("amplitude")
        width = desc.get("width", 1.0)
        power = desc.get("power", 2.0)
        return amp / (1.0 + (r2 / width**2) ** (power / 2.0))
    raise ConfigError(f"unknown localized potential tag '{desc.tag}'")


def sample_potentials(pot: PotentialSpec, grid: Grid):
    """Sample (Vp, Vl, Gamma) at the grid nodes; Vp and Gamma exactly box-periodic."""
    vp = Field(grid, _sample_periodic(pot.Vp, grid))
    if pot.Vl_sign == "zero":
        vl = Field(grid, np.zeros(grid.shape))
    else:
        vl = Field(grid, _sample_localized(pot.Vl, grid))
    if pot.Gamma.tag == "cosine":
        # non-negative periodic profile: amplitude * prod_i (1 + cos 2 pi x_i)/2
        amp = pot.Gamma.get("amplitude")

        def cell(coords):
            prod = 1.0
            for c in coords:
                prod = prod * (1.0 + np.cos(2.0 * np.pi * c)) / 2.0
            return amp * prod

        gam = Field(grid, _tile_unit_cell(grid, cell))
    else:
        gam = Field(grid, _sample_periodic(pot.Gamma, grid))
    return vp, vl, gam


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
    grid_ok = True
    try:
        grid = params.make_grid()
        cpu = grid.cells_per_unit()
        add("unit cell integral in grid cells", True, f"cells per unit={cpu}")
    except ValueError as exc:
        grid_ok = False
        add("unit cell integral in grid cells", False, str(exc))

    if pot.Vl_sign not in SIGN_MODES:
        add("Vl sign mode recognised", False, f"sign={pot.Vl_sign}")
        return ValidationReport(checks)
    add("Vl sign mode recognised", True, f"sign={pot.Vl_sign}")
    if not grid_ok:
        return ValidationReport(checks)

    try:
        vp, vl, gam = sample_potentials(pot, grid)
    except ConfigError as exc:
        add("potential descriptors sampled", False, str(exc))
        return ValidationReport(checks)
    add("potential descriptors sampled", True, "ok")

    cpu = grid.cells_per_unit()
    roll = (cpu,) * grid.N
    axes = tuple(range(grid.N))
    add("Vp unit-periodic on grid",
        np.array_equal(np.roll(vp.values, roll, axis=axes), vp.values), "tiled sampling")
    add("Gamma unit-periodic on grid",
        np.array_equal(np.roll(gam.values, roll, axis=axes), gam.values), "tiled sampling")
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

    v_total = vp.values + vl.values
    if pot.Vl_sign in ("zero", "negative"):
        vmin_idx = int(np.argmin(v_total))
        add("essinf V > 0", v_total.flat[vmin_idx] > 0.0, _argwitness(grid, v_total, vmin_idx))
    else:
        vmin_idx = int(np.argmin(vp.values))
        add("essinf Vp > 0 (positive localized part)",
            vp.values.flat[vmin_idx] > 0.0, _argwitness(grid, vp.values, vmin_idx))
    return ValidationReport(checks, (vp, vl, gam))


PARAM_KEYS = ("N", "m", "p", "q", "alpha", "L", "n")
# the keys each tag of a potential section reads; [potential.Vl] also takes sign
TAG_KEYS = {
    "potential.Vp": {"constant": {"value"}, "cosine": {"offset", "amplitude"}},
    "potential.Vl": {"zero": set(), "gaussian-bump": {"amplitude", "width", "center"},
                     "inverse-power": {"amplitude", "width", "power", "center"}},
    "potential.Gamma": {"zero": set(), "constant": {"value"}, "cosine": {"amplitude"}},
}


def _descriptor_from(section: dict, where: str) -> Descriptor:
    tags = TAG_KEYS[where]
    tag = section.pop("tag", None)
    if tag is None:
        raise ConfigError(f"[{where}] missing 'tag'")
    if tag not in tags:
        raise ConfigError(f"[{where}] unknown tag '{tag}' (allowed: {', '.join(tags)})")
    unknown = set(section) - tags[tag]
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

    found = set(parser.sections())
    expected = {"params", *TAG_KEYS}
    if found != expected:
        missing = expected - found
        extra = found - expected
        parts = []
        if missing:
            parts.append(f"missing sections: {sorted(missing)}")
        if extra:
            parts.append(f"unknown sections: {sorted(extra)}")
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

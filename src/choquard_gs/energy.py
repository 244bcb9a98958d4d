"""Energy functional, its periodic variant, gradient, and splitting diagnostics.

All functionals are evaluated in the boundary representation: the quadratic
part through the spectral square-root operator, the nonlocal part through the
box-periodized Riesz convolution.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .grid import Field, Grid, apply_multiplier, l2_norm, random_smooth_fields, row_dots, shift
from .operators import RieszKernel, SqrtOp, build_riesz, build_sqrt_op
from .problem import ConfigError, PotentialSpec, ProblemParams, validate


@dataclass(eq=False)
class EnergyContext:
    """Assembled, validated problem data shared by every functional evaluation."""

    params: ProblemParams
    grid: Grid
    sqrt_op: SqrtOp
    kernel: RieszKernel
    Vp: Field
    Vl: Field
    Gamma: Field

    def __post_init__(self):
        v = self.Vp.values + self.Vl.values
        self.v_minus_m = v - self.params.m
        self.has_vl = bool(np.any(self.Vl.values))
        self.has_gamma = bool(np.any(self.Gamma.values))
        self.v_min = float(np.min(v))
        if not self.v_min > 0:
            # A - m vanishes at xi = 0, so B's constant-coefficient part is
            # invertible only for a positive potential floor
            raise ValueError(f"min V must be positive to precondition, got {self.v_min}")
        # P inverts B's constant-coefficient part A - m + min V exactly
        self._precond = 1.0 / (self.sqrt_op.multiplier - self.params.m + self.v_min)
        pg_shift = v - self.v_min
        # B(Pg) - g = (V - min V) Pg, identically zero for constant V
        self._pg_shift = pg_shift if np.any(pg_shift) else None

    def periodic_variant(self) -> EnergyContext:
        """Same problem with the localized potential stripped."""
        return replace(self, Vl=Field(self.grid, np.zeros(self.grid.shape)))

    def with_gamma_scaled(self, factor: float) -> EnergyContext:
        return replace(self, Gamma=Field(self.grid, factor * self.Gamma.values))


def build_context(params: ProblemParams, pot: PotentialSpec) -> EnergyContext:
    """Validate the problem, a failed check being a ConfigError, and assemble
    operators and kernel around the potentials the validation sampled."""
    report = validate(params, pot)
    if not report.all_passed:
        failed = "; ".join(f"{c.name} ({c.witness})" for c in report.failures())
        raise ConfigError(f"problem validation failed: {failed}")
    vp, vl, gam = report.potentials
    grid = vp.grid
    sqrt_op = build_sqrt_op(grid, params.m)
    kernel = build_riesz(grid, params.alpha, p=params.p)
    return EnergyContext(params, grid, sqrt_op, kernel, vp, vl, gam)


def b_values(ctx: EnergyContext, vals: np.ndarray, spec: np.ndarray | None = None) -> np.ndarray:
    """(A + V - m) u on raw grid values, A the square-root operator; Q(u) = <Bu, u>.
    spec, the dft of u when the caller has it, saves a transform."""
    return apply_multiplier(ctx.sqrt_op.multiplier, vals, spec) + ctx.v_minus_m * vals


def direction_and_b(ctx: EnergyContext, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The preconditioned gradient Pg and B(Pg), from one forward and one inverse
    transform: P inverts A - m + v_min, B's constant-coefficient part, so
    B(Pg) = g + (V - v_min) Pg exactly, which is g itself (the same array) for
    constant V."""
    pg = apply_multiplier(ctx._precond, grad)
    if ctx._pg_shift is None:
        return pg, grad
    b_pg = ctx._pg_shift * pg
    b_pg += grad
    return pg, b_pg


def precondition(ctx: EnergyContext, g: Field) -> Field:
    """Spectral division by A - m plus the potential floor: the Riesz map of
    B's constant-coefficient part, exact for constant V."""
    return Field(ctx.grid, apply_multiplier(ctx._precond, g.values))


def _abs_power(vals: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """|u|^e as a new array, bit for bit np.abs(u) ** e; given out, out * |u|^e
    written into out, which e = 0, a factor of ones, leaves as it is.
    np.power costs about two multiplies; e = 2 and e = 1 round the same without
    it (one rounding, or none), e = 3 does not (u*u*|u| rounds twice) and keeps it."""
    if e == 0.0 and out is not None:
        return out
    if e == 2.0:
        a = np.square(vals)
    elif e == 1.0:
        a = np.abs(vals)
    else:
        a = np.abs(vals) ** e
    return a if out is None else np.multiply(out, a, out=out)


def nonlocal_terms(ctx: EnergyContext, vals: np.ndarray) -> tuple[np.ndarray, float]:
    """phi = I_alpha * |u|^p and D(u) = <phi, |u|^p> on raw grid values, or on
    each row of a (k, *grid.shape) stack of them, D then an array of k."""
    up = _abs_power(vals, ctx.params.p)
    phi = apply_multiplier(ctx.kernel.conv_multiplier, up)
    return phi, ctx.grid.cell_volume * row_dots(phi, up, ctx.grid.N)


def gamma_values(ctx: EnergyContext, vals: np.ndarray) -> float:
    """G(u), the local-factor integral, on raw grid values, or an array of k on
    a stack of them."""
    if not ctx.has_gamma:
        return 0.0 if vals.ndim == ctx.grid.N else np.zeros(len(vals))
    return ctx.grid.cell_volume * row_dots(ctx.Gamma.values, _abs_power(vals, ctx.params.q),
                                           ctx.grid.N)


def grad_values(ctx: EnergyContext, vals: np.ndarray, bu: np.ndarray,
                phi: np.ndarray) -> np.ndarray:
    """L^2 gradient at raw values u from Bu and phi = I_alpha * |u|^p; no
    transform. phi is consumed: its array becomes the gradient."""
    out = _abs_power(vals, ctx.params.p - 2.0, out=phi)
    out *= vals
    np.subtract(bu, out, out=out)
    if ctx.has_gamma:
        local = _abs_power(vals, ctx.params.q - 2.0)
        local *= ctx.Gamma.values
        local *= vals
        out += local
    return out


def qdg(ctx: EnergyContext, vals: np.ndarray) -> tuple[float, float, float]:
    """The triple (Q, D, G) from which every fiber quantity recombines: three
    Python floats for one field's raw values, three arrays of k for a
    (k, *grid.shape) stack of them."""
    shape = ctx.grid.shape
    got = getattr(vals, "shape", None)
    if got != shape and (got is None or got[1:] != shape or got[0] == 0):
        raise ValueError(f"qdg takes one field's values of shape {shape} or a non-empty "
                         f"(k, *{shape}) stack of them, got {type(vals).__name__} of "
                         f"shape {np.shape(vals)}")
    q = ctx.grid.cell_volume * row_dots(b_values(ctx, vals), vals, ctx.grid.N)
    return q, nonlocal_terms(ctx, vals)[1], gamma_values(ctx, vals)


def energy_value(ctx: EnergyContext, u: Field) -> float:
    q, d, g = qdg(ctx, u.values)
    return energy_from_qdg(ctx, q, d, g)


def energy_from_qdg(ctx: EnergyContext, q: float, d: float, g: float, t: float = 1.0) -> float:
    """Energy of t*u given the scalar triple of u; arrays of triples and
    scalings broadcast."""
    p, qe = ctx.params.p, ctx.params.q
    return t**2 * q / 2.0 - t ** (2.0 * p) * d / (2.0 * p) + t**qe * g / qe


def fiber_residual_from_qdg(ctx: EnergyContext, q: float, d: float, g: float,
                            t: float = 1.0) -> float:
    """Derivative pairing of the energy at t*u with t*u itself; arrays
    broadcast as in energy_from_qdg."""
    p, qe = ctx.params.p, ctx.params.q
    return t**2 * q - t ** (2.0 * p) * d + t**qe * g


def grad_energy(ctx: EnergyContext, u: Field) -> Field:
    """L^2 gradient field of the energy at u."""
    phi = nonlocal_terms(ctx, u.values)[0]
    return Field(ctx.grid, grad_values(ctx, u.values, b_values(ctx, u.values), phi))


@dataclass
class EnergyReport:
    """Every functional piece at one field, flattened for serialization."""

    q_val: float
    d_val: float
    gamma_term: float
    e_val: float
    e_per_val: float
    nehari_residual: float
    grad_norm: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def energy_report(ctx: EnergyContext, u: Field) -> EnergyReport:
    cv, N, vals = ctx.grid.cell_volume, ctx.grid.N, u.values
    bu = b_values(ctx, vals)
    phi, d = nonlocal_terms(ctx, vals)
    q = cv * row_dots(bu, vals, N)
    g = gamma_values(ctx, vals)
    e = energy_from_qdg(ctx, q, d, g)
    grad = Field(ctx.grid, grad_values(ctx, vals, bu, phi))
    return EnergyReport(
        q_val=q,
        d_val=d,
        gamma_term=g,
        e_val=e,
        e_per_val=e - 0.5 * cv * row_dots(ctx.Vl.values * vals, vals, N),
        nehari_residual=fiber_residual_from_qdg(ctx, q, d, g),
        grad_norm=l2_norm(grad),
    )


D_BOUND_SAMPLES = 64    # random smooth fields behind the estimate
D_BOUND_SEED = 0
D_BOUND_SAFETY = 2.0    # factor on the largest sampled ratio


def estimate_d_bound(ctx: EnergyContext) -> float:
    """Empirical constant C with D(u)/(2p) <= C * Q(u)^p over random smooth fields.

    Estimated by randomized maximization from the fixed seed D_BOUND_SEED, so
    repeated calls on one context agree bit for bit; checks treat it as a
    regression bound.
    """
    rng = np.random.default_rng(D_BOUND_SEED)
    p = ctx.params.p
    qs, ds, _ = qdg(ctx, random_smooth_fields(ctx.grid, rng, D_BOUND_SAMPLES))
    best = 0.0
    # Python floats: numpy's array ** differs from float ** in the last bit
    for q, d in zip(qs.tolist(), ds.tolist()):
        if q <= 0:
            continue
        best = max(best, d / (2.0 * p * q**p))
    return D_BOUND_SAFETY * best


def brezis_lieb_check(ctx: EnergyContext, u0: Field, w: Field, shifts) -> list[float]:
    """Splitting defect of the nonlocal term under separating translations.

    For u_n = u0 + w(. - z_n) returns |D(u_n) - D(u_n - u0) - D(u0)| for each
    shift, which must sink toward the periodization floor as the bumps separate.
    """
    moved = np.array([shift(w, z).values for z in shifts]).reshape((-1,) + ctx.grid.shape)
    # one stack: u0, then each u0 + w(. - z), then each w(. - z)
    d = nonlocal_terms(ctx, np.concatenate([u0.values[None], u0.values + moved, moved]))[1]
    d_un, d_wz = np.split(d[1:], 2)
    return np.abs(d_un - d_wz - d[0]).tolist()

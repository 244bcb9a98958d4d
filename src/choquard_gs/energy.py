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
    return pg, grad + ctx._pg_shift * pg


def precondition(ctx: EnergyContext, g: Field) -> Field:
    """Spectral division by A - m plus the potential floor: the Riesz map of
    B's constant-coefficient part, exact for constant V."""
    return Field(ctx.grid, apply_multiplier(ctx._precond, g.values))


def nonlocal_terms(ctx: EnergyContext, vals: np.ndarray) -> tuple[np.ndarray, float]:
    """phi = I_alpha * |u|^p and D(u) = <phi, |u|^p> on raw grid values."""
    up = np.abs(vals) ** ctx.params.p
    phi = apply_multiplier(ctx.kernel.conv_multiplier, up)
    return phi, ctx.grid.cell_volume * float(np.vdot(phi, up))


def gamma_values(ctx: EnergyContext, vals: np.ndarray) -> float:
    """G(u), the local-factor integral, on raw grid values."""
    if not ctx.has_gamma:
        return 0.0
    return ctx.grid.cell_volume * float(np.vdot(ctx.Gamma.values, np.abs(vals) ** ctx.params.q))


def grad_values(ctx: EnergyContext, vals: np.ndarray, bu: np.ndarray,
                phi: np.ndarray) -> np.ndarray:
    """L^2 gradient at raw values u from Bu and phi = I_alpha * |u|^p; no transform."""
    p, qe = ctx.params.p, ctx.params.q
    out = bu - phi * np.abs(vals) ** (p - 2.0) * vals
    if ctx.has_gamma:
        out = out + ctx.Gamma.values * np.abs(vals) ** (qe - 2.0) * vals
    return out


def q_boundary(ctx: EnergyContext, u: Field) -> float:
    """Quadratic form in the boundary representation; the squared problem norm."""
    return ctx.grid.cell_volume * float(np.vdot(b_values(ctx, u.values), u.values))


def d_value(ctx: EnergyContext, u: Field) -> float:
    """Nonlocal interaction: pairing of the Riesz convolution of |u|^p with |u|^p."""
    return nonlocal_terms(ctx, u.values)[1]


def qdg_rows(ctx: EnergyContext, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q, D and G of each row of a stack of raw grid values (k, *grid.shape),
    each an array of k values."""
    N, cv = ctx.grid.N, ctx.grid.cell_volume
    q = cv * row_dots(b_values(ctx, vals), vals, N)
    up = np.abs(vals) ** ctx.params.p
    d = cv * row_dots(apply_multiplier(ctx.kernel.conv_multiplier, up), up, N)
    if not ctx.has_gamma:
        return q, d, np.zeros(q.shape)
    return q, d, cv * row_dots(ctx.Gamma.values, np.abs(vals) ** ctx.params.q, N)


def qdg(ctx: EnergyContext, u: Field) -> tuple[float, float, float]:
    """The scalar triple (Q, D, G) from which every fiber quantity recombines."""
    q, d, g = qdg_rows(ctx, u.values[None])
    return float(q[0]), float(d[0]), float(g[0])


def energy_value(ctx: EnergyContext, u: Field) -> float:
    q, d, g = qdg(ctx, u)
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


def vl_integral(ctx: EnergyContext, u: Field) -> float:
    if not ctx.has_vl:
        return 0.0
    return ctx.grid.cell_volume * float(np.vdot(ctx.Vl.values * u.values, u.values))


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
    bu = b_values(ctx, u.values)
    phi, d = nonlocal_terms(ctx, u.values)
    q = ctx.grid.cell_volume * float(np.vdot(bu, u.values))
    g = gamma_values(ctx, u.values)
    e = energy_from_qdg(ctx, q, d, g)
    grad = Field(ctx.grid, grad_values(ctx, u.values, bu, phi))
    return EnergyReport(
        q_val=q,
        d_val=d,
        gamma_term=g,
        e_val=e,
        e_per_val=e - 0.5 * vl_integral(ctx, u),
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
    qs, ds, _ = qdg_rows(ctx, random_smooth_fields(ctx.grid, rng, D_BOUND_SAMPLES))
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
    d_u0 = d_value(ctx, u0)
    deltas = []
    for z in shifts:
        wz = shift(w, z)
        un = Field(ctx.grid, u0.values + wz.values)
        delta = d_value(ctx, un) - d_value(ctx, wz) - d_u0
        deltas.append(abs(delta))
    return deltas


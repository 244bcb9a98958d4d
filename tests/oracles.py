"""Reference computations the tests check production code against; the package
itself never calls them."""

import math

import numpy as np

from choquard_gs.energy import (
    b_values,
    energy_from_qdg,
    energy_value,
    estimate_d_bound,
    fiber_residual_from_qdg,
    qdg,
)
from choquard_gs.extension import _rows, norm_equivalence_constants, volume_integrals
from choquard_gs.grid import (
    SMOOTH_FIELD_BUMPS,
    Field,
    apply_multiplier,
    dft,
    gaussian_field,
    idft_real,
    shift,
)
from choquard_gs.nehari import JConditionReport, NehariProjectionError, nehari_t_from_qdg


def project_to_nehari(ctx, u):
    """Scale u onto the manifold: t* with zero fiber residual, and t*u."""
    q, d, g = qdg(ctx, u.values)
    t = nehari_t_from_qdg(q, d, g, ctx.params.p, ctx.params.q)
    return t, Field(ctx.grid, t * u.values)


def directional_derivative_fd(ctx, u, w, eps=1e-5):
    """Central finite difference of the energy along w; gradient oracle."""
    up = Field(ctx.grid, u.values + eps * w.values)
    um = Field(ctx.grid, u.values - eps * w.values)
    return (energy_value(ctx, up) - energy_value(ctx, um)) / (2.0 * eps)


def ground_level(ctx, candidates):
    """Infimum of the energy over the projected candidate set, and its argmin."""
    if not candidates:
        raise ValueError("candidate list is empty")
    best_e = best_u = None
    for u in candidates:
        try:
            _, u_star = project_to_nehari(ctx, u)
        except NehariProjectionError:
            continue
        e = energy_value(ctx, u_star)
        if best_e is None or e < best_e:
            best_e, best_u = e, u_star
    if best_u is None:
        raise NehariProjectionError(f"all {len(candidates)} candidates failed projection")
    return best_e, best_u


def q_form_volume(v, V_field, m):
    """Quadratic form on the half-space of a one-trace extension: volume
    Dirichlet and mass terms plus the boundary (V - m) term."""
    g = v.wall.grid
    (grad,), (mass,) = volume_integrals(v)
    u0 = v.trace[0]
    return grad + m * m * mass + g.cell_volume * float(np.vdot((V_field.values - m) * u0, u0))


def extension_rows(v):
    """The wall rows of an extension, (k, nx, *grid.shape): the extension's
    values at every wall node, from one batched inverse transform."""
    return _rows(v.wall, v.uhat)


def pde_residual(v, m):
    """Interior residual of the extension equation of a one-trace extension:
    finite differences in x, spectral in y; decays at second order under wall
    refinement."""
    g = v.wall.grid
    w = v.wall.weights
    dx = np.diff(v.wall.x).reshape((-1,) + (1,) * g.N)
    hm, hp, vals = dx[:-1], dx[1:], extension_rows(v)[0]
    d2 = 2.0 * (hm * vals[2:] - (hm + hp) * vals[1:-1] + hp * vals[:-2]) / (hm * hp * (hm + hp))
    r = -d2 + apply_multiplier(g.freq2 + m * m, vals[1:-1])
    axes = tuple(range(1, g.N + 1))
    total = float(w[1:-1] @ np.sum(r * r, axis=axes))
    norm = float(w[1:-1] @ np.sum(vals[1:-1] ** 2, axis=axes))
    return float(np.sqrt(total / max(norm, 1e-300)))



def random_smooth_field_per_bump(grid, rng, n_bumps=SMOOTH_FIELD_BUMPS):
    """random_smooth_field built one gaussian_field per bump, each bump from its
    own rng.random(N + 3): the reference for both its values and its use of
    the stream."""
    N, L = grid.N, grid.L
    vals = np.zeros(grid.shape)
    for _ in range(n_bumps):
        *center, width, size, sign = rng.random(N + 3).tolist()
        center = [-L + 2.0 * L * u for u in center]
        width = 0.5 + (max(1.0, L / 4) - 0.5) * width
        amp = (0.2 + 0.8 * size) * (-1.0 if sign < 0.5 else 1.0)
        vals += gaussian_field(grid, np.array(center), width, amp).values
    return Field(grid, vals)


def qdg_per_field(ctx, u):
    """(Q, D, G) of one field with one np.vdot per term: the reference for the
    stacked evaluation, which must match it bit for bit."""
    cv, vals = ctx.grid.cell_volume, u.values
    q = cv * float(np.vdot(b_values(ctx, vals), vals))
    up = np.abs(vals) ** ctx.params.p
    d = cv * float(np.vdot(apply_multiplier(ctx.kernel.conv_multiplier, up), up))
    if not ctx.has_gamma:
        return q, d, 0.0
    return q, d, cv * float(np.vdot(ctx.Gamma.values, np.abs(vals) ** ctx.params.q))


def nonlinear_terms_plain(ctx, vals):
    """phi, D, G and the gradient at one field's raw values with every power
    of |u| written np.abs(u) ** e: the reference for the exponent shortcuts,
    which must match it bit for bit."""
    cv, p, qe = ctx.grid.cell_volume, ctx.params.p, ctx.params.q
    up = np.abs(vals) ** p
    phi = apply_multiplier(ctx.kernel.conv_multiplier, up)
    d = cv * float(np.vdot(phi, up))
    grad = b_values(ctx, vals) - phi * np.abs(vals) ** (p - 2.0) * vals
    if not ctx.has_gamma:
        return phi, d, 0.0, grad
    g = cv * float(np.vdot(ctx.Gamma.values, np.abs(vals) ** qe))
    return phi, d, g, grad + ctx.Gamma.values * np.abs(vals) ** (qe - 2.0) * vals


def brezis_lieb_per_field(ctx, u0, w, shifts):
    """|D(u0 + w(. - z)) - D(w(. - z)) - D(u0)| for each shift z, one field's D
    at a time: the reference for the stacked brezis_lieb_check."""
    d_u0 = qdg_per_field(ctx, u0)[1]
    deltas = []
    for z in shifts:
        wz = shift(w, z)
        un = Field(ctx.grid, u0.values + wz.values)
        deltas.append(abs(qdg_per_field(ctx, un)[1] - qdg_per_field(ctx, wz)[1] - d_u0))
    return deltas


def j_conditions_per_field(ctx, samples, tol=1e-9):
    """The four manifold geometry conditions field by field, each fiber scanned
    by its own geomspace and one scalar energy and residual per scaling in
    Python floats: the reference for the stacked check_J_conditions."""
    p, qe = ctx.params.p, ctx.params.q
    C = estimate_d_bound(ctx)
    r = (1.0 / (4.0 * C)) ** (1.0 / (2.0 * p - 2.0))
    j1_ok = j2_ok = j4_ok = True
    j1_min = j4_margin = np.inf
    j3_violations = 0
    for vals in samples:
        q, d, g = qdg_per_field(ctx, Field(ctx.grid, vals))
        e_sphere = energy_from_qdg(ctx, q, d, g, r / np.sqrt(q))
        j1_min = min(j1_min, e_sphere / (r * r / 4.0))
        j1_ok = j1_ok and not e_sphere < (r * r / 4.0) * (1.0 - tol)
        growth = [t ** (2.0 * p - qe) * d / (2.0 * p) - g / qe for t in (10.0, 100.0, 1000.0)]
        j2_ok = j2_ok and growth[2] > growth[1] > growth[0]
        t_star = nehari_t_from_qdg(q, d, g, p, qe)
        t_grid = np.geomspace(t_star / 8.0, 8.0 * t_star, 33)
        slopes = np.array([fiber_residual_from_qdg(ctx, q, d, g, t) / t for t in t_grid])
        tol_s = 1e-12 * np.max(np.abs(slopes))
        if not (np.all(slopes[t_grid < t_star] > -tol_s)
                and np.all(slopes[t_grid > t_star] < tol_s)):
            j3_violations += 1
        e_star = energy_from_qdg(ctx, q, d, g, t_star)
        floor = (0.5 - 1.0 / qe) * t_star**2 * q
        j4_margin = min(j4_margin, e_star - floor)
        j4_ok = j4_ok and not e_star < floor * (1.0 - tol) - tol
    return JConditionReport(r, j1_ok, float(j1_min), j2_ok, j3_violations == 0,
                            j3_violations, j4_ok, float(j4_margin))


def trace_checks_per_field(u, wall, p, V_field, tol=1e-9):
    """For one trace u: the four sides of the two trace inequalities (L^p lhs,
    rhs, then L^2), the two volume integrals, and the norm sandwich
    (ok, Q, lower, upper), each reduced over the whole grid with np.vdot or
    np.sum and the wall rows built from this trace alone: the reference for the
    stacked checks, which must match it bit for bit."""
    g, m, cv = wall.grid, wall.m, wall.grid.cell_volume
    u0 = u.values
    uhat = dft(u0)
    slab = (cv / g.size) * g.half_weights * wall.slab_weights * (uhat.real**2 + uhat.imag**2)
    grad, mass = float(np.vdot(slab, wall.grad)), float(np.sum(slab))
    dx2 = float(np.vdot(slab, wall.s2))
    if p == 2:
        vol = mass
    else:
        rows = np.abs(idft_real(uhat * wall.decay, g.shape)) ** (2.0 * (p - 1.0))
        vol = float(wall.weights @ (cv * np.sum(rows, axis=tuple(range(1, g.N + 1)))))
    sides = (float(cv * np.sum(np.abs(u0) ** p)), float(p * np.sqrt(vol * dx2)),
             cv * float(np.vdot(u0, u0)), m * grad + mass / m)
    c_low, c_high = norm_equivalence_constants(m, float(np.min(V_field.values)),
                                               float(np.max(V_field.values)))
    q = grad + m * m * mass + cv * float(np.vdot((V_field.values - m) * u0, u0))
    h1 = grad + mass
    ok = c_low * h1 * (1.0 - tol) <= q <= c_high * h1 * (1.0 + tol)
    return sides, (grad, mass), (ok, q, c_low * h1, c_high * h1)


def potential_profile(section, tag, params, grid):
    """The closed form of a potential tag at every node of the box, with the
    documented defaults for the keys params leaves out: evaluated pointwise on
    the whole box, no unit cell tiled, the distance to center wrapped by the
    remainder mod 2L."""
    par = {"offset": 0.0, "width": 1.0, "power": 2.0, "center": 0.0, **params}
    x = np.meshgrid(*([-grid.L + grid.h * np.arange(grid.n)] * grid.N), indexing="ij")
    cosines = [np.cos(2.0 * np.pi * xi) for xi in x]
    d = [np.mod(xi - par["center"] + grid.L, 2.0 * grid.L) - grid.L for xi in x]
    r = np.sqrt(np.sum([di**2 for di in d], axis=0))
    profiles = {
        ("potential.Vp", "constant"): lambda: np.full(grid.shape, par["value"]),
        ("potential.Vp", "cosine"):
            lambda: par["offset"] + par["amplitude"] * np.mean(cosines, axis=0),
        ("potential.Vl", "zero"): lambda: np.zeros(grid.shape),
        ("potential.Vl", "gaussian-bump"):
            lambda: par["amplitude"] * np.exp(-((r / par["width"]) ** 2)),
        ("potential.Vl", "inverse-power"):
            lambda: par["amplitude"] / (1.0 + (r / par["width"]) ** par["power"]),
        ("potential.Gamma", "zero"): lambda: np.zeros(grid.shape),
        ("potential.Gamma", "constant"): lambda: np.full(grid.shape, par["value"]),
        ("potential.Gamma", "cosine"):
            lambda: par["amplitude"] * np.prod([(1.0 + c) / 2.0 for c in cosines], axis=0),
    }
    return profiles[section, tag]()


def upper_gamma_per_call(a, x):
    """Gamma(a, x) for x >= 2 by Legendre's continued fraction (modified Lentz)
    for one exponent a, a Python float, over the array x."""
    b = x + 1.0 - a
    c = np.full_like(x, np.inf)
    d = 1.0 / b
    h = d
    for i in range(1, 60):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h = h * d * c
    return np.exp(a * np.log(x) - x) * h


def epstein_oracle_per_call(N, s):
    """Z_N(s) by Epstein's incomplete-gamma formula with split point 1.5, its two
    continued fractions run one call each: the reference for the stacked
    oracle of verify's kernel suite, which must match it bit for bit."""
    lam = 1.5
    k = np.arange(-7, 8) ** 2
    r2 = sum(np.meshgrid(*[k] * N, indexing="ij")).ravel()
    r2, mult = np.unique(r2[r2 > 0], return_counts=True)
    x = np.pi * r2
    a, b = s / 2.0, (N - s) / 2.0
    shells = mult @ (x**-a * upper_gamma_per_call(a, lam * x)
                     + x**-b * upper_gamma_per_call(b, x / lam))
    return math.pi**a / math.gamma(a) * (shells - 2.0 * lam**-b / (N - s) - 2.0 * lam**a / s)


def wall_ratio_200_steps(nx, x_max, delta0):
    """The wall's geometric ratio r > 1 with delta0*(r^(nx-1) - 1)/(r - 1) =
    x_max by 200 bisection steps, every one run."""

    def gap(r):
        expo = (nx - 1) * np.log(r)
        if expo > 700.0:
            return np.inf
        return delta0 * np.expm1(expo) / (r - 1.0) - x_max

    lo, hi = 1.0 + 1e-12, 2.0
    while gap(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

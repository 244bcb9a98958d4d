"""Reference computations the tests check production code against; the package
itself never calls them."""

import numpy as np

from choquard_gs.energy import energy_value
from choquard_gs.extension import volume_integrals
from choquard_gs.grid import Field, apply_multiplier, gaussian_field
from choquard_gs.nehari import NehariProjectionError, project_to_nehari


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
    """Quadratic form on the half-space: volume Dirichlet and mass terms plus
    the boundary (V - m) term."""
    g = v.wall.grid
    grad, mass = volume_integrals(v)
    u0 = v.values[0]
    return grad + m * m * mass + g.cell_volume * float(np.vdot((V_field.values - m) * u0, u0))


def pde_residual(v, m):
    """Interior residual of the extension equation: finite differences in x,
    spectral in y; decays at second order under wall refinement."""
    g = v.wall.grid
    w = v.wall.weights
    dx = np.diff(v.wall.x).reshape((-1,) + (1,) * g.N)
    hm, hp, vals = dx[:-1], dx[1:], v.values
    d2 = 2.0 * (hm * vals[2:] - (hm + hp) * vals[1:-1] + hp * vals[:-2]) / (hm * hp * (hm + hp))
    r = -d2 + apply_multiplier(g.freq2 + m * m, vals[1:-1])
    axes = tuple(range(1, g.N + 1))
    total = float(w[1:-1] @ np.sum(r * r, axis=axes))
    norm = float(w[1:-1] @ np.sum(vals[1:-1] ** 2, axis=axes))
    return float(np.sqrt(total / max(norm, 1e-300)))



def random_smooth_field_per_bump(grid, rng, n_bumps=3):
    """random_smooth_field built one gaussian_field per bump, its sign drawn by
    rng.choice: the reference for both its values and its use of the stream."""
    vals = np.zeros(grid.shape)
    for _ in range(n_bumps):
        center = rng.uniform(-grid.L, grid.L, size=grid.N)
        width = rng.uniform(0.5, max(1.0, grid.L / 4))
        amp = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        vals += gaussian_field(grid, center, width, amp).values
    return Field(grid, vals)

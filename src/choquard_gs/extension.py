"""Half-space realization: harmonic-type extension, boundary derivative operator,
and the trace and norm-equivalence checks on the volume.

Everything here is diagonal in the boundary Fourier variable, so only the wall
direction is discretized: geometrically clustered nodes, trapezoid quadrature.
These routines cross-validate the boundary (spectral) representation and never
run inside the optimization loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, Grid, _read_only, apply_multiplier, check_stack, dft, idft_real, row_dots


def _solve_ratio(nx: int, x_max: float, delta0: float) -> float:
    """Per-step geometric ratio r > 1 with delta0*(r^(nx-1) - 1)/(r - 1) = x_max,
    for delta0*(nx - 1) < x_max."""

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
        if mid == lo or mid == hi:   # the bracket shrinks no further
            break
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class WallGrid:
    """Discretization of the wall direction x >= 0, clustered toward x = 0,
    for the one mass m of the extension equation. Its weights and tables are
    built on first use: x and m stay fixed."""

    grid: Grid
    m: float
    x: np.ndarray

    @property
    def nx(self) -> int:
        return len(self.x)

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights on the (non-uniform) wall nodes."""
        w = np.zeros(self.nx)
        dx = np.diff(self.x)
        w[0] = dx[0] / 2.0
        w[-1] = dx[-1] / 2.0
        w[1:-1] = (dx[:-1] + dx[1:]) / 2.0
        return w

    @cached_property
    def _s(self) -> np.ndarray:
        """Decay rate sqrt(|xi|^2 + m^2) of each mode, on the freq2 grid."""
        return np.sqrt(self.grid.freq2 + self.m * self.m)

    @cached_property
    def decay(self) -> np.ndarray:
        """exp(-x s), one read-only row per wall node."""
        return _read_only(np.exp(-np.multiply.outer(self.x, self._s)))

    @cached_property
    def slab_weights(self) -> np.ndarray:
        """Per mode, the read-only trapezoid integral over x of exp(-2 x s)."""
        return _read_only(np.tensordot(self.weights, self.decay**2, axes=1))

    @cached_property
    def dtn_symbol(self) -> np.ndarray:
        """The read-only symbol of dtn_apply: minus the second-order one-sided
        derivative at x = 0 over the first three rows of decay."""
        return _read_only(-np.tensordot(_diff_weights(self.x[:3]), self.decay[:3], axes=1))

    @cached_property
    def s2(self) -> np.ndarray:
        """s^2, the read-only symbol of |d_x v|^2."""
        return _read_only(self._s**2)

    @cached_property
    def grad(self) -> np.ndarray:
        """s^2 + |xi|^2, the read-only symbol of |grad v|^2."""
        return _read_only(self.s2 + self.grid.freq2)


def build_wall(grid: Grid, m: float, nx: int = 384) -> WallGrid:
    """Wall grid sized so extension tails and boundary derivatives resolve.

    The top x_max = 23.1/m puts the extension amplitude below 1e-10; the
    first spacing is 0.01 over the stiffest symbol value, scaled by 384/nx.
    Both the order-2 boundary stencil and the trapezoid energy integrals sit
    below 1e-4 relative error, second order under refinement in nx.
    """
    if nx < 16:
        raise ValueError("wall needs at least 16 nodes")
    x_max = 23.1 / m
    # scales inversely with nx so raising nx refines uniformly
    s_max = np.sqrt(np.max(grid.freq2) + m * m)
    delta0 = (0.01 / s_max) * (384.0 / nx)
    # delta0*(nx - 1) < 3.84/s_max <= 3.84/m < x_max: the spacing always grows
    r = _solve_ratio(nx, x_max, delta0)
    x = delta0 * np.expm1(np.arange(nx) * np.log(r)) / (r - 1.0)
    x[0] = 0.0
    return WallGrid(grid, m, x)


def _rows(wall: WallGrid, uhat: np.ndarray) -> np.ndarray:
    """Extension values of the traces with half spectrum uhat, one row per wall
    node (row 0 the trace) after uhat's leading axes: one batched inverse of
    u-hat times the decay table."""
    return idft_real(np.expand_dims(uhat, -wall.grid.N - 1) * wall.decay, wall.grid.shape)


@dataclass(eq=False)
class ExtendedField:
    """Half-space extension of a (k, *grid.shape) stack of boundary traces;
    uhat is their half spectrum, from which every slab integral comes. Each
    slab integral and check returns an array of k values, one per trace."""

    wall: WallGrid
    trace: np.ndarray
    uhat: np.ndarray

    @cached_property
    def slab(self) -> np.ndarray:
        """Slab spectrum: per mode, the trapezoid integral over x of its share
        of v^2, so that its plain sum is the integral of v^2 (Parseval)."""
        g = self.wall.grid
        power = self.uhat.real**2 + self.uhat.imag**2
        return (g.cell_volume / g.size) * g.half_weights * self.wall.slab_weights * power


def harmonic_extend(u: np.ndarray, wall: WallGrid) -> ExtendedField:
    """Solve -Laplacian v + m^2 v = 0 on the half-space for each trace of u, a
    (k, *grid.shape) stack of trace values.

    Per boundary mode the solution is exp(-x*sqrt(|xi|^2 + m^2)) times the
    mode amplitude; one forward transform gives every amplitude of every
    trace, and the wall rows are synthesized only where a check needs them.
    """
    check_stack(wall.grid, u)
    return ExtendedField(wall, u, dft(u, wall.grid.N))


def _diff_weights(nodes: np.ndarray) -> np.ndarray:
    """Weights w with sum w_j f(nodes_j) = f'(0), exact on polynomials."""
    k = len(nodes)
    A = np.vander(nodes, k, increasing=True).T
    b = np.zeros(k)
    b[1] = 1.0
    return np.linalg.solve(A, b)


def dtn_apply(u: Field, wall: WallGrid) -> Field:
    """Boundary-normal derivative of the extension: -dv/dx at x = 0.

    One-sided finite difference over the first three wall nodes (second
    order); converges to the spectral square-root operator under wall
    refinement.
    """
    if u.grid != wall.grid:
        raise ValueError("field grid does not match wall grid")
    return Field(u.grid, apply_multiplier(wall.dtn_symbol, u.values))


def _sums(g: Grid, rows: np.ndarray) -> np.ndarray:
    """Plain sum over the trailing N axes, for each row of a stack."""
    return np.sum(rows.reshape(rows.shape[:rows.ndim - g.N] + (-1,)), axis=-1)


def volume_integrals(v: ExtendedField) -> tuple[np.ndarray, np.ndarray]:
    """(integral of |grad v|^2, integral of v^2) over the half-space slab, one
    value each per trace.

    Per mode |d_x v|^2 + |grad_y v|^2 is (s^2 + |xi|^2) times |v|^2.
    """
    g = v.wall.grid
    return row_dots(v.slab, v.wall.grad, g.N), _sums(g, v.slab)


@dataclass
class InequalityReport:
    """Both trace inequalities evaluated on an extension, with margins; one
    value per trace."""

    trace_p_lhs: np.ndarray
    trace_p_rhs: np.ndarray
    trace_2_lhs: np.ndarray
    trace_2_rhs: np.ndarray

    def margins(self) -> tuple[np.ndarray, np.ndarray]:
        def rel(lhs, rhs):
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
            return (rhs - lhs) / scale

        return rel(self.trace_p_lhs, self.trace_p_rhs), rel(self.trace_2_lhs, self.trace_2_rhs)


def _power_integral(v: ExtendedField, e: float) -> np.ndarray:
    """Integral of |v|^e over the slab, per trace, from the wall rows; each
    trace's rows are built and dropped in turn: all at once they would take
    nx times the stack's size."""
    g, w = v.wall.grid, v.wall.weights
    return np.array([np.vecdot(g.cell_volume * _sums(g, np.abs(_rows(v.wall, uhat)) ** e), w)
                     for uhat in v.uhat])


def check_trace_inequalities(v: ExtendedField, p: float) -> InequalityReport:
    """Evaluate the L^p trace bound and its L^2 consequence on an extension."""
    g, m = v.wall.grid, v.wall.m
    u0 = v.trace
    lhs_p = g.cell_volume * _sums(g, np.abs(u0) ** p)
    dx2 = row_dots(v.slab, v.wall.s2, g.N)
    grad, mass = volume_integrals(v)
    # L^{2(p-1)} norm of v over the volume, raised to 2(p-1): the mass at p = 2
    vol_2p2 = mass if p == 2 else _power_integral(v, 2.0 * (p - 1.0))
    rhs_p = p * np.sqrt(vol_2p2 * dx2)
    lhs_2 = g.cell_volume * row_dots(u0, u0, g.N)
    rhs_2 = m * grad + mass / m
    return InequalityReport(lhs_p, rhs_p, lhs_2, rhs_2)


def norm_equivalence_constants(m: float, v_min: float, v_max: float) -> tuple[float, float]:
    """(c_low, c_high) with c_low*|v|_{H1}^2 <= Q(v) <= c_high*|v|_{H1}^2.

    Derived from the scaled trace bound; the lower pair uses the s = 1/m
    pairing, which stays valid for every mass (the balanced min pair does not
    when m < 1).
    """
    deficit = max(m - v_min, 0.0)
    c_low = min(1.0 - deficit / m, m * m - m * deficit)
    excess = max(v_max - m, 0.0)
    c_high = max(1.0 + m * excess, m * m + excess / m)
    if c_low <= 0:
        raise ValueError("potential floor too small relative to the mass for these constants")
    return c_low, c_high


def check_norm_equivalence(v: ExtendedField, V_field: Field, tol: float = 1e-9
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sandwich Q between the equivalence constants times the squared H^1 norm;
    returns (ok, Q, lower, upper), one value each per trace.

    Q(v) is the volume Dirichlet and mass terms (trapezoid in the wall
    direction, spectral in the boundary variables) plus the boundary (V - m)
    term.
    """
    g, m = v.wall.grid, v.wall.m
    if V_field.grid != g:
        raise ValueError("potential grid does not match extension grid")
    c_low, c_high = norm_equivalence_constants(m, float(np.min(V_field.values)),
                                               float(np.max(V_field.values)))
    grad, mass = volume_integrals(v)
    u0 = v.trace
    q = grad + m * m * mass + g.cell_volume * row_dots((V_field.values - m) * u0, u0, g.N)
    h1 = grad + mass
    ok = (q >= c_low * h1 * (1.0 - tol)) & (q <= c_high * h1 * (1.0 + tol))
    return ok, q, c_low * h1, c_high * h1

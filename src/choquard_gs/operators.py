"""Semirelativistic square-root operator and Riesz-potential convolution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, apply_multiplier, dft


@dataclass
class SqrtOp:
    """Spectral realization of sqrt(-Laplacian + m^2) on the periodic box."""

    grid: Grid
    m: float
    multiplier: np.ndarray


def build_sqrt_op(grid: Grid, m: float) -> SqrtOp:
    if not m > 0:
        raise ValueError("mass must be positive")
    return SqrtOp(grid, m, np.sqrt(grid.freq2() + m * m))


def apply_sqrt(op: SqrtOp, u: Field) -> Field:
    """sqrt(-Laplacian + m^2) u via per-frequency multiplication."""
    if u.grid != op.grid:
        raise ValueError("field grid does not match operator grid")
    return Field(u.grid, apply_multiplier(op.multiplier, u.values))


def apply_sqrt_minus_m(op: SqrtOp, u: Field) -> Field:
    """(sqrt(-Laplacian + m^2) - m) u; vanishes on constants."""
    if u.grid != op.grid:
        raise ValueError("field grid does not match operator grid")
    return Field(u.grid, apply_multiplier(op.multiplier - op.m, u.values))


_SPHERE_MEASURE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def singular_cell_average(N: int, h: float, alpha: float, order: int = 16) -> float:
    """Average of |x|^(alpha - N) over the grid cell [-h/2, h/2]^N.

    Closed form in one dimension; in two and three dimensions the radial
    integral is done exactly and the remaining smooth face integral by
    fixed-order Gauss-Legendre quadrature.
    """
    if not 0 < alpha < N:
        raise ValueError(f"alpha must lie in (0, {N}), got {alpha}")
    half = h / 2.0
    if N == 1:
        return half ** (alpha - 1.0) / alpha
    nodes, weights = np.polynomial.legendre.leggauss(order)
    if N == 2:
        face = float(np.sum(weights * (1.0 + nodes**2) ** ((alpha - 2.0) / 2.0)))
        integral = (4.0 / alpha) * half**alpha * face
        return integral / h**2
    u = nodes[:, None]
    v = nodes[None, :]
    w2 = weights[:, None] * weights[None, :]
    face = float(np.sum(w2 * (1.0 + u * u + v * v) ** ((alpha - 3.0) / 2.0)))
    integral = (6.0 / alpha) * half**alpha * face
    return integral / h**3


def riesz_integrability_window(N: int, p: float, alpha: float) -> tuple[float, float]:
    """Open interval of Lebesgue exponents t for which the near kernel part is L^t.

    Nonempty exactly when the exponent assumption (N-1)p - N < alpha < N holds.
    """
    denom = N * (2.0 - p) + p
    lo = max(1.0, N / denom) if denom > 0 else 1.0
    hi = N / (N - alpha)
    return lo, hi


def sample_riesz_kernel(grid: Grid, alpha: float, quadrature_order: int = 16,
                        singular_correction: bool = True) -> np.ndarray:
    """Kernel |d|^(alpha - N) at minimal-image displacements, indexed by offset.

    The cell containing the origin gets the exact cell average of the kernel;
    with singular_correction=False that cell is dropped (set to zero), which
    reproduces the bias of naive sampling.
    """
    return _riesz_samples(grid, grid.offset_r2(), alpha, quadrature_order, singular_correction)


def _riesz_samples(grid: Grid, d2: np.ndarray, alpha: float, quadrature_order: int,
                   singular_correction: bool) -> np.ndarray:
    """sample_riesz_kernel on the squared offset lengths d2 (left unchanged)."""
    origin = (0,) * grid.N
    with np.errstate(divide="ignore"):
        S = d2 ** ((alpha - grid.N) / 2.0)  # infinite at the origin, overwritten below
    if singular_correction:
        S[origin] = singular_cell_average(grid.N, grid.h, alpha, quadrature_order)
    else:
        S[origin] = 0.0
    return S


@dataclass
class RieszKernel:
    """Box-periodized Riesz potential ready for circular convolution.

    conv_multiplier already carries the quadrature weight h^N, so convolution
    is a plain per-frequency product. near_part_norm / far_part_bound are the
    L^t norm of the kernel restricted to the unit ball and the sup of the
    remainder, kept as diagnostics.
    """

    grid: Grid
    alpha: float
    conv_multiplier: np.ndarray
    kernel_samples: np.ndarray
    near_part_exponent: float
    near_part_norm: float
    far_part_bound: float


def build_riesz(grid: Grid, alpha: float, cell_quadrature_order: int = 16,
                p: float = 2.0, singular_correction: bool = True) -> RieszKernel:
    if not 0 < alpha < grid.N:
        raise ValueError(f"Riesz order must lie in (0, N)=(0, {grid.N}), got {alpha}")
    d2 = grid.offset_r2()
    S = _riesz_samples(grid, d2, alpha, cell_quadrature_order, singular_correction)
    multiplier = grid.cell_volume * dft(S)
    imag_max = float(np.max(np.abs(multiplier.imag)))
    scale = float(np.max(np.abs(multiplier.real)))
    if imag_max > 1e-9 * scale:
        raise AssertionError("even kernel produced a non-real multiplier")
    lo, hi = riesz_integrability_window(grid.N, p, alpha)
    t = 0.5 * (lo + hi)
    sphere = _SPHERE_MEASURE[grid.N]
    near = (sphere / ((alpha - grid.N) * t + grid.N)) ** (1.0 / t)
    outside = d2 >= 1.0
    far = float(np.max(S[outside])) if np.any(outside) else 0.0
    return RieszKernel(grid, alpha, multiplier.real, S, t, float(near), far)


def riesz_convolve(kernel: RieszKernel, f: Field) -> Field:
    """Circular convolution (kernel * f) on the box, h^N-weighted."""
    if f.grid != kernel.grid:
        raise ValueError("field grid does not match kernel grid")
    return Field(f.grid, apply_multiplier(kernel.conv_multiplier, f.values))


def phi_u(kernel: RieszKernel, u: Field, p: float) -> Field:
    """Auxiliary potential: Riesz convolution of |u|^p.

    Homogeneous of degree p in u, equivariant under lattice shifts, and
    non-negative up to round-off.
    """
    if p < 2:
        raise ValueError("convolution exponent must satisfy p >= 2")
    return riesz_convolve(kernel, Field(u.grid, np.abs(u.values) ** p))

"""Semirelativistic square-root operator and Riesz-potential convolution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, apply_multiplier, dft


@dataclass
class SqrtOp:
    """Spectral realization of sqrt(-Laplacian + m^2) on the periodic box."""

    grid: Grid
    multiplier: np.ndarray


def build_sqrt_op(grid: Grid, m: float) -> SqrtOp:
    if not m > 0:
        raise ValueError("mass must be positive")
    return SqrtOp(grid, np.sqrt(grid.freq2 + m * m))


def apply_sqrt(op: SqrtOp, u: Field) -> Field:
    """sqrt(-Laplacian + m^2) u via per-frequency multiplication."""
    if u.grid != op.grid:
        raise ValueError("field grid does not match operator grid")
    return Field(u.grid, apply_multiplier(op.multiplier, u.values))


# trapezoid nodes and weights for the theta integral over t in [1, inf), on
# t = 1 + exp(x - e^-x): the integrand decays double-exponentially at both ends
_X = 0.25 * np.arange(-16, 17)
_T = 1.0 + np.exp(_X - np.exp(-_X))
_DT = 0.25 * (_T - 1.0) * (1.0 + np.exp(-_X))
_THETA = 1.0 + 2.0 * np.exp(-np.pi * np.arange(1, 6)[:, None] ** 2 * _T).sum(axis=0)


def epstein_zeta(N: int, s: float) -> float:
    """Z_N(s), the sum of |k|^-s over nonzero k in Z^N, analytically continued.

    Riemann's theta split: Z_N(s) = pi^(s/2)/Gamma(s/2) * [integral over t >= 1 of
    (theta(t)^N - 1)(t^(s/2-1) + t^((N-s)/2-1)) - 2/s - 2/(N-s)]; Z_N(0) = -1 is
    its limit.
    """
    if s == 0:
        return -1.0
    w = (_THETA**N - 1.0) * _DT
    integral = float(w @ (_T ** (s / 2.0 - 1.0) + _T ** ((N - s) / 2.0 - 1.0)))
    return math.pi ** (s / 2.0) / math.gamma(s / 2.0) * (integral - 2.0 / s - 2.0 / (N - s))


def sample_riesz_kernel(grid: Grid, alpha: float) -> np.ndarray:
    """Quadrature weights of |d|^(alpha - N) at minimal-image offsets, indexed by offset.

    Away from the origin and its 2N neighbours the weight is the kernel value.
    Those 2N + 1 weights carry the zeta corrections of the generalized
    Euler-Maclaurin expansion (Navot 1961), which make the lattice sum of the
    kernel against a smooth function accurate to O(h^(4+alpha)).
    """
    N = grid.N
    if not 0 < alpha < N:
        raise ValueError(f"Riesz order must lie in (0, N)=(0, {N}), got {alpha}")
    scale = grid.h ** (alpha - N)
    with np.errstate(divide="ignore"):
        S = grid.offset_r2() ** ((alpha - N) / 2.0)  # infinite at the origin, overwritten below
    # Laplacian stencil weight of the h^(2+alpha) term
    c = -epstein_zeta(N, N - alpha - 2.0) / (2 * N) * scale
    for axis in range(N):
        for side in (1, -1):
            S[(0,) * axis + (side,) + (0,) * (N - axis - 1)] += c
    S[(0,) * N] = -epstein_zeta(N, N - alpha) * scale - 2 * N * c
    return S


@dataclass
class RieszKernel:
    """Box-periodized Riesz potential ready for circular convolution.

    conv_multiplier already carries the quadrature weight h^N, so convolution
    is a plain per-frequency product. far_part_bound is the sup of the kernel
    outside the unit ball, kept as a diagnostic.
    """

    grid: Grid
    conv_multiplier: np.ndarray
    kernel_samples: np.ndarray
    far_part_bound: float


def build_riesz(grid: Grid, alpha: float, p: float = 2.0) -> RieszKernel:
    floor = (grid.N - 1) * p - grid.N
    if not alpha > floor:
        # the exponent window of the near kernel part is empty
        raise ValueError(f"Riesz order must exceed (N-1)p - N = {floor} for N={grid.N}, "
                         f"p={p}, got {alpha}")
    S = sample_riesz_kernel(grid, alpha)
    multiplier = grid.cell_volume * dft(S)
    imag_max = float(np.max(np.abs(multiplier.imag)))
    scale = float(np.max(np.abs(multiplier.real)))
    if imag_max > 1e-9 * scale:
        raise AssertionError("even kernel produced a non-real multiplier")
    d2 = grid.offset_r2()
    outside = d2 >= 1.0
    far = float(np.min(d2[outside])) ** ((alpha - grid.N) / 2.0) if np.any(outside) else 0.0
    return RieszKernel(grid, multiplier.real, S, far)


def riesz_convolve(kernel: RieszKernel, f: Field) -> Field:
    """Circular convolution (kernel * f) on the box, h^N-weighted."""
    if f.grid != kernel.grid:
        raise ValueError("field grid does not match kernel grid")
    return Field(f.grid, apply_multiplier(kernel.conv_multiplier, f.values))

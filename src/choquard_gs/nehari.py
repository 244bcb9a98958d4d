"""Nehari manifold machinery: fiber maps, the unique projection, geometry checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyContext,
    energy_from_qdg,
    estimate_d_bound,
    fiber_residual_from_qdg,
    qdg,
    qdg_rows,
)
from .grid import Field, check_stack


class NehariProjectionError(ValueError):
    """No scaling of the candidate reaches the manifold (degenerate nonlocal term)."""


NEHARI_RTOL = 1e-10    # on the scalar residual, relative to q


def nehari_t_from_qdg(q: float, d: float, g: float, p: float, qe: float) -> float:
    """Unique t > 0 with q - t^(2p-2) d + t^(q-2) g = 0.

    The scalar equation is the fiber stationarity condition divided by t^2.
    Bracketing plus safeguarded Newton; the closed form (q/d)^(1/(2p-2)) is
    both the g = 0 answer and the lower bracket end otherwise.
    """
    if not (math.isfinite(q) and math.isfinite(d) and math.isfinite(g)):
        raise NehariProjectionError(f"non-finite triple ({q}, {d}, {g})")
    if not q > 0:
        raise NehariProjectionError(f"quadratic form must be positive, got {q}")
    if not d > 0:
        raise NehariProjectionError(f"nonlocal term must be positive, got {d}")
    a = 2.0 * p - 2.0
    b = qe - 2.0
    t0 = (q / d) ** (1.0 / a)
    if g == 0.0:
        return t0

    def resid(t):
        return q - t**a * d + t**b * g

    def dresid(t):
        return -a * t ** (a - 1.0) * d + b * t ** (b - 1.0) * g

    lo = t0
    hi = t0
    for _ in range(200):
        hi *= 2.0
        if resid(hi) < 0:
            break
    else:
        raise NehariProjectionError("failed to bracket the manifold scaling")
    t = hi
    for _ in range(200):
        r = resid(t)
        if abs(r) <= NEHARI_RTOL * q:
            return t
        if r > 0:
            lo = t
        else:
            hi = t
        dr = dresid(t)
        t_new = t - r / dr if dr != 0 else 0.5 * (lo + hi)
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-16 * t:
            return t_new
        t = t_new
    raise NehariProjectionError("manifold scaling did not converge")


def project_to_nehari(ctx: EnergyContext, u: Field) -> tuple[float, Field]:
    """Scale u onto the manifold: t* with zero fiber residual, and t*u."""
    q, d, g = qdg(ctx, u)
    t = nehari_t_from_qdg(q, d, g, ctx.params.p, ctx.params.q)
    return t, Field(ctx.grid, t * u.values)


@dataclass
class FiberScan:
    """Energy and fiber residual along the ray t -> t*u, with the located maximizer."""

    t_values: np.ndarray
    e_values: np.ndarray
    residuals: np.ndarray
    t_star: float
    residual_at_t_star: float
    slope_sign_ok: bool

    def max_bracket_contains_t_star(self) -> bool:
        i = int(np.argmax(self.e_values))
        lo = self.t_values[max(i - 1, 0)]
        hi = self.t_values[min(i + 1, len(self.t_values) - 1)]
        return bool(lo <= self.t_star <= hi) or i in (0, len(self.t_values) - 1)


def fiber_scan(ctx: EnergyContext, triple, spread: float, num: int) -> FiberScan:
    """Sample the fiber energy along t -> t*u from the triple (Q, D, G) = qdg(ctx, u)
    at num scalings geometrically spaced from t*/spread to spread*t*, t* the
    projection point, and certify the single rise-then-fall pattern."""
    if not spread > 1.0:
        raise ValueError(f"fiber scan needs a spread above 1, got {spread}")
    q, d, g = triple
    t_star = nehari_t_from_qdg(q, d, g, ctx.params.p, ctx.params.q)
    t_grid = np.geomspace(t_star / spread, spread * t_star, num)
    e_vals = np.array([energy_from_qdg(ctx, q, d, g, t) for t in t_grid])
    resids = np.array([fiber_residual_from_qdg(ctx, q, d, g, t) for t in t_grid])
    # the fiber slope, residual / t, keeps the sign test exact in t; samples
    # within round-off of the root itself carry slope of either sign
    slopes = resids / t_grid
    tol = 1e-12 * np.max(np.abs(slopes))
    ok = bool(np.all(slopes[t_grid < t_star] > -tol) and np.all(slopes[t_grid > t_star] < tol))
    resid = fiber_residual_from_qdg(ctx, q, d, g, t_star)
    return FiberScan(t_grid, e_vals, resids, t_star, resid, ok)


def fiber_scan_csv(scan: FiberScan) -> str:
    """CSV rows (t, energy, residual) for plotting, residual being the fiber
    derivative pairing at each scaling; each cell is repr of the Python float,
    which reads back bit for bit (repr of a numpy scalar names its type)."""
    lines = ["t,energy,residual"]
    for row in zip(scan.t_values, scan.e_values, scan.residuals):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


@dataclass
class JConditionReport:
    """Numerical certification of the four manifold geometry conditions."""

    radius: float
    j1_ok: bool
    j1_min_ratio: float
    j2_ok: bool
    j3_ok: bool
    j3_violations: int
    j4_ok: bool
    j4_min_margin: float


def check_J_conditions(ctx: EnergyContext, samples: np.ndarray,
                       tol: float = 1e-9) -> JConditionReport:
    """Certify, on the samples, a (k, *grid.shape) stack of field values:
    positive energy on a small sphere, super-q growth of the nonlinear part,
    the fiber slope sign pattern, and coercivity on the manifold. Their
    triples (Q, D, G) come from one stacked evaluation."""
    p, qe = ctx.params.p, ctx.params.q
    check_stack(ctx.grid, samples)
    if not np.all(np.any(samples.reshape(len(samples), -1), axis=1)):
        raise ValueError("sample fields must be nonzero")
    triples = zip(*(x.tolist() for x in qdg_rows(ctx, samples)))
    C = estimate_d_bound(ctx)
    r = (1.0 / (4.0 * C)) ** (1.0 / (2.0 * p - 2.0))

    j1_ok = True
    j1_min = np.inf
    j2_ok = True
    j3_violations = 0
    j4_ok = True
    j4_margin = np.inf
    for q, d, g in triples:
        norm = np.sqrt(q)
        # sphere of radius r: energy at least r^2/4
        ts = r / norm
        e_sphere = energy_from_qdg(ctx, q, d, g, ts)
        ratio = e_sphere / (r * r / 4.0)
        j1_min = min(j1_min, ratio)
        if e_sphere < (r * r / 4.0) * (1.0 - tol):
            j1_ok = False
        # growth of I(t u)/t^q along t = 10, 100, 1000
        growth = [t ** (2.0 * p - qe) * d / (2.0 * p) - g / qe for t in (10.0, 100.0, 1000.0)]
        if not (growth[2] > growth[1] > growth[0]):
            j2_ok = False
        # fiber slope sign pattern around the projection point
        scan = fiber_scan(ctx, (q, d, g), 8.0, 33)
        if not scan.slope_sign_ok:
            j3_violations += 1
        # coercivity on the manifold
        t_star = scan.t_star
        e_star = energy_from_qdg(ctx, q, d, g, t_star)
        floor = (0.5 - 1.0 / qe) * t_star**2 * q
        j4_margin = min(j4_margin, e_star - floor)
        if e_star < floor * (1.0 - tol) - tol:
            j4_ok = False
    return JConditionReport(r, j1_ok, float(j1_min), j2_ok,
                            j3_violations == 0, j3_violations, j4_ok, float(j4_margin))

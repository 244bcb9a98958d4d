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
)
from .grid import check_stack


class NehariProjectionError(ValueError):
    """No scaling of the candidate reaches the manifold (degenerate nonlocal term)."""


NEHARI_RTOL = 1e-10    # on the scalar residual, relative to q


def nehari_t_from_qdg(q: float, d: float, g: float, p: float, qe: float) -> float:
    """Unique t > 0 with q - t^(2p-2) d + t^(q-2) g = 0.

    The scalar equation is the fiber stationarity condition divided by t^2.
    Bracketing plus safeguarded Newton; the closed form (q/d)^(1/(2p-2)) is
    both the g = 0 answer and the lower bracket end otherwise. A triple whose
    scaling leaves the floats, t0 zero or infinite or t^(2p-2) overflowing,
    raises NehariProjectionError like any other degenerate triple.
    """
    if not (math.isfinite(q) and math.isfinite(d) and math.isfinite(g)):
        raise NehariProjectionError(f"non-finite triple ({q}, {d}, {g})")
    if not q > 0:
        raise NehariProjectionError(f"quadratic form must be positive, got {q}")
    if not d > 0:
        raise NehariProjectionError(f"nonlocal term must be positive, got {d}")
    a = 2.0 * p - 2.0
    b = qe - 2.0
    try:
        t0 = (q / d) ** (1.0 / a)
        if not 0.0 < t0 < math.inf:
            raise NehariProjectionError(f"manifold scaling out of range: (q/d)^(1/(2p-2)) = {t0}")
        if g == 0.0:
            return t0
        lo = hi = t0
        for _ in range(200):
            hi *= 2.0
            if q - hi**a * d + hi**b * g < 0:
                break
        else:
            raise NehariProjectionError("failed to bracket the manifold scaling")
        t = hi
        for _ in range(200):
            r = q - t**a * d + t**b * g
            if abs(r) <= NEHARI_RTOL * q:
                return t
            if r > 0:
                lo = t
            else:
                hi = t
            dr = -a * t ** (a - 1.0) * d + b * t ** (b - 1.0) * g
            t_new = t - r / dr if dr != 0 else 0.5 * (lo + hi)
            if not (lo < t_new < hi):
                t_new = 0.5 * (lo + hi)
            if abs(t_new - t) <= 1e-16 * t:
                return t_new
            t = t_new
    except OverflowError:
        raise NehariProjectionError(f"manifold scaling overflows for the triple "
                                    f"({q}, {d}, {g})") from None
    raise NehariProjectionError("manifold scaling did not converge")


@dataclass
class FiberScan:
    """Energy and fiber residual along the rays t -> t*u of k fields, (k, num)
    arrays row by row, with each ray's located maximizer: k values each."""

    t_values: np.ndarray
    e_values: np.ndarray
    residuals: np.ndarray
    t_star: np.ndarray
    residual_at_t_star: np.ndarray
    slope_sign_ok: np.ndarray

    def max_bracket_contains_t_star(self) -> np.ndarray:
        """Per ray: the samples beside the largest energy bracket t*, or that
        largest energy sits at an end of the scan."""
        k, num = self.t_values.shape
        i = np.argmax(self.e_values, axis=1)
        lo = self.t_values[np.arange(k), np.maximum(i - 1, 0)]
        hi = self.t_values[np.arange(k), np.minimum(i + 1, num - 1)]
        return (lo <= self.t_star) & (self.t_star <= hi) | (i == 0) | (i == num - 1)


def fiber_scan(ctx: EnergyContext, triples, spread: float, num: int) -> FiberScan:
    """Sample the fiber energy along t -> t*u of k fields from their triples
    (Q, D, G) = qdg(ctx, stack), three arrays of k values, at num scalings
    geometrically spaced from t*/spread to spread*t*, t* the projection point,
    and certify each ray's single rise-then-fall pattern."""
    if not spread > 1.0:
        raise ValueError(f"fiber scan needs a spread above 1, got {spread}")
    q, d, g = (np.asarray(x, dtype=float) for x in triples)
    if q.ndim != 1 or not q.shape == d.shape == g.shape:
        raise ValueError(f"fiber scan needs three arrays of k values, got shapes "
                         f"{q.shape}, {d.shape}, {g.shape}")
    rows = list(zip(q.tolist(), d.tolist(), g.tolist()))
    # t* and the residual there stay Python floats, one root solve per ray:
    # numpy's array ** differs from float ** in the last bit
    t_star = [nehari_t_from_qdg(*row, ctx.params.p, ctx.params.q) for row in rows]
    resid = [fiber_residual_from_qdg(ctx, *row, t) for row, t in zip(rows, t_star)]
    t_star, resid = np.array(t_star), np.array(resid)
    t = np.geomspace(t_star / spread, spread * t_star, num, axis=-1)
    q, d, g, ts = q[:, None], d[:, None], g[:, None], t_star[:, None]
    e_vals = energy_from_qdg(ctx, q, d, g, t)
    resids = fiber_residual_from_qdg(ctx, q, d, g, t)
    # the fiber slope, residual / t, keeps the sign test exact in t; samples
    # within round-off of the root itself carry slope of either sign
    slopes = resids / t
    tol = 1e-12 * np.max(np.abs(slopes), axis=1, keepdims=True)
    ok = np.all(((slopes > -tol) | (t >= ts)) & ((slopes < tol) | (t <= ts)), axis=1)
    return FiberScan(t, e_vals, resids, t_star, resid, ok)


def fiber_scan_csv(scan: FiberScan) -> str:
    """CSV rows (t, energy, residual) of a scan of one ray, for plotting,
    residual being the fiber derivative pairing at each scaling; each cell is
    repr of the Python float, which reads back bit for bit (repr of a numpy
    scalar names its type)."""
    if scan.t_values.shape[0] != 1:
        raise ValueError(f"fiber scan CSV takes a scan of one ray, got t_values of "
                         f"shape {scan.t_values.shape}")
    lines = ["t,energy,residual"]
    for row in zip(scan.t_values[0], scan.e_values[0], scan.residuals[0]):
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
    triples (Q, D, G) come from one stacked evaluation, their fibers from one
    stacked scan, and each condition is one array expression over the k."""
    p, qe = ctx.params.p, ctx.params.q
    check_stack(ctx.grid, samples)
    if not np.all(np.any(samples.reshape(len(samples), -1), axis=1)):
        raise ValueError("sample fields must be nonzero")
    q, d, g = qdg(ctx, samples)
    C = estimate_d_bound(ctx)
    r = (1.0 / (4.0 * C)) ** (1.0 / (2.0 * p - 2.0))
    # sphere of radius r: energy at least r^2/4
    e_sphere = energy_from_qdg(ctx, q, d, g, r / np.sqrt(q))
    j1_ok = not np.any(e_sphere < (r * r / 4.0) * (1.0 - tol))
    # growth of I(t u)/t^q along t = 10, 100, 1000
    growth = np.array([[10.0], [100.0], [1000.0]]) ** (2.0 * p - qe) * d / (2.0 * p) - g / qe
    j2_ok = bool(np.all((growth[2] > growth[1]) & (growth[1] > growth[0])))
    # fiber slope sign pattern around the projection point
    scan = fiber_scan(ctx, (q, d, g), 8.0, 33)
    j3_violations = int(np.sum(~scan.slope_sign_ok))
    # coercivity on the manifold
    t_star = scan.t_star
    e_star = energy_from_qdg(ctx, q, d, g, t_star)
    floor = (0.5 - 1.0 / qe) * t_star**2 * q
    j4_ok = not np.any(e_star < floor * (1.0 - tol) - tol)
    return JConditionReport(r, j1_ok, float(np.min(e_sphere / (r * r / 4.0))), j2_ok,
                            j3_violations == 0, j3_violations, j4_ok,
                            float(np.min(e_star - floor)))

"""Acceptance criteria: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget."""

import time

import numpy as np
import pytest

from choquard_gs import (
    Field,
    ProblemParams,
    apply_sqrt,
    build_context,
    build_riesz,
    build_sqrt_op,
    build_wall,
    check_norm_equivalence,
    check_trace_inequalities,
    dtn_apply,
    gaussian_field,
    grad_energy,
    harmonic_extend,
    l2_inner,
    l2_norm,
    multistart,
    riesz_convolve,
    shift,
    solve,
)
from choquard_gs.energy import (
    brezis_lieb_check,
    fiber_residual_from_qdg,
    gamma_values,
    qdg,
)
from choquard_gs.grid import Grid, random_smooth_field
from choquard_gs.nehari import fiber_scan
from choquard_gs.problem import Descriptor, PotentialSpec
from choquard_gs.solver import SolverConfig
from conftest import const_potential, gamma_potential, make_params, refined_wall
from oracles import directional_derivative_fd, project_to_nehari


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.t0 = time.monotonic()

    def done(self, num: int, title: str, detail: str = "") -> None:
        dt = time.monotonic() - self.t0
        print(f"[PASS] criterion {num}: {title} ({dt:.1f}s) {detail}")
        assert dt <= self.limit, f"runtime {dt:.1f}s exceeds budget {self.limit}s"


def test_criterion_1_operator_oracle_equivalence():
    budget = Budget(10.0)
    grid = Grid(1, 16.0, 128)
    m = 1.0
    op = build_sqrt_op(grid, m)
    rng = np.random.default_rng(101)
    fields = [random_smooth_field(grid, rng) for _ in range(20)]
    wall = build_wall(grid, m)
    walls = [wall, refined_wall(wall, 2), refined_wall(wall, 4)]
    errs = []
    for wall in walls:
        total, ref = 0.0, 0.0
        for u in fields:
            diff = dtn_apply(u, wall).values - apply_sqrt(op, u).values
            total += float(np.sum(diff**2))
            ref += float(np.sum(apply_sqrt(op, u).values ** 2))
        errs.append(np.sqrt(total / ref))
    assert errs[0] <= 1e-4
    ratio1 = errs[0] / errs[1]
    ratio2 = errs[1] / errs[2]
    assert ratio1 >= 3.5
    assert ratio2 >= 3.5
    budget.done(1, "operator oracle equivalence",
                f"rel err {errs[0]:.2e}, refinement ratios {ratio1:.2f}, {ratio2:.2f}")


def test_criterion_2_convolution_oracle():
    budget = Budget(5.0)
    rng = np.random.default_rng(202)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for n in (16, 32, 64):
            grid = Grid(1, 4.0, n)
            kern = build_riesz(grid, alpha)
            f = rng.standard_normal(n)
            brute = np.empty(n)
            for i in range(n):
                brute[i] = grid.h * np.sum(kern.kernel_samples * f[(i - np.arange(n)) % n])
            out = riesz_convolve(kern, Field(grid, f))
            worst = max(worst, float(np.max(np.abs(out.values - brute))))
    assert worst <= 1e-10
    budget.done(2, "convolution against direct periodic sum", f"max abs err {worst:.2e}")


def test_criterion_3_nonlocal_term_properties():
    budget = Budget(10.0)
    ctx = build_context(make_params(), const_potential())
    rng = np.random.default_rng(303)
    u = random_smooth_field(ctx.grid, rng)
    p = ctx.params.p
    d1 = qdg(ctx, u.values)[1]
    for t in (0.5, 2.0, 3.0):
        dt_ = qdg(ctx, t * u.values)[1]
        assert dt_ == pytest.approx(t ** (2 * p) * d1, rel=1e-11)
    moved = qdg(ctx, shift(u, [5.0]).values)[1]
    assert moved == pytest.approx(d1, rel=1e-12)
    u0 = gaussian_field(ctx.grid, [0.0], 1.0)
    w = gaussian_field(ctx.grid, [0.0], 0.8, amplitude=0.7)
    deltas = brezis_lieb_check(ctx, u0, w, [[2.0], [4.0], [6.0], [8.0]])
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    budget.done(3, "nonlocal-term homogeneity, equivariance, splitting",
                "deltas " + ", ".join(f"{d:.2e}" for d in deltas))


def test_criterion_4_gradient_check():
    budget = Budget(5.0)
    ctx = build_context(make_params(), gamma_potential())
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10):
        u = random_smooth_field(ctx.grid, rng)
        w = random_smooth_field(ctx.grid, rng)
        analytic = l2_inner(grad_energy(ctx, u), w)
        fd = directional_derivative_fd(ctx, u, w, eps=1e-5)
        worst = max(worst, abs(fd - analytic) / max(abs(analytic), 1e-300))
    assert worst <= 1e-6
    budget.done(4, "analytic gradient vs central differences", f"max rel err {worst:.2e}")


def test_criterion_5_nehari_geometry():
    budget = Budget(20.0)
    ctx = build_context(make_params(), gamma_potential())
    ctx0 = build_context(make_params(), const_potential())
    rng = np.random.default_rng(505)
    violations = 0
    for i in range(50):
        u = random_smooth_field(ctx.grid, rng)
        _, u_star = project_to_nehari(ctx, u)
        q, d, g = qdg(ctx, u_star.values)
        assert abs(fiber_residual_from_qdg(ctx, q, d, g)) <= 1e-10 * q
        t_again, _ = project_to_nehari(ctx, u_star)
        assert 1 - 1e-8 <= t_again <= 1 + 1e-8
        scan = fiber_scan(ctx, qdg(ctx, u.values[None]), 8.0, 33)
        if not scan.slope_sign_ok[0]:
            violations += 1
        if i < 10:
            q0, d0, g0 = qdg(ctx0, u.values)
            t_closed = (q0 / d0) ** (1.0 / (2 * ctx0.params.p - 2))
            t_num, _ = project_to_nehari(ctx0, u)
            assert t_num == pytest.approx(t_closed, rel=1e-10)
    assert violations == 0
    budget.done(5, "manifold projection and fiber geometry", "0 sign violations")


def test_criterion_6_trace_and_norm_inequalities():
    budget = Budget(30.0)
    grid = Grid(1, 16.0, 128)
    m = 1.0
    wall = build_wall(grid, m)
    rng = np.random.default_rng(606)
    V_flat = Field(grid, np.ones(grid.n))
    V_cos = Field(grid, 1.0 + 0.25 * np.cos(2 * np.pi * grid.axis_coords))
    worst1 = worst2 = np.inf
    for i in range(100):
        v = harmonic_extend(random_smooth_field(grid, rng).values[None], wall)
        rep = check_trace_inequalities(v, 2.0)
        (m1,), (m2,) = rep.margins()
        worst1, worst2 = min(worst1, m1), min(worst2, m2)
        V = V_flat if i % 2 == 0 else V_cos
        (ok,), _, _, _ = check_norm_equivalence(v, V)
        assert ok
    assert worst1 >= -1e-8
    assert worst2 >= -1e-8
    budget.done(6, "trace inequalities and norm equivalence sandwich",
                f"worst margins {worst1:.2e}, {worst2:.2e}")


def test_criterion_7_ground_state_solve():
    budget = Budget(120.0)
    ctx = build_context(make_params(n=256), const_potential())
    cfg = SolverConfig(max_iters=2000, seed=7)
    best, runs = multistart(ctx, 8, cfg)
    finals = []
    for r in runs:
        assert r.status == "converged"
        assert r.iterations <= 2000
        assert r.history[-1]["residual"] <= 1e-8 * r.history[0]["residual"]
        finals.append(r.energy_trace[-1])
    spread = max(finals) - min(finals)
    assert spread <= 1e-6
    assert best.energy_trace[-1] > 0
    budget.done(7, "ground-state solve with multistart agreement",
                f"c = {best.energy_trace[-1]:.9f}, spread {spread:.2e}")


def _vl_potential(amplitude: float) -> PotentialSpec:
    if amplitude == 0.0:
        return const_potential()
    sign = "positive" if amplitude > 0 else "negative"
    return PotentialSpec(Descriptor("constant", {"value": 1.0}),
                         Descriptor("inverse-power",
                                    {"amplitude": amplitude, "width": 2.0, "power": 2.0}),
                         sign, Descriptor("zero"))


def test_criterion_8_negative_bump_lowers_level():
    budget = Budget(180.0)
    params = make_params(n=256)
    cfg = SolverConfig(seed=8)
    ctx0 = build_context(params, const_potential())
    best0, _ = multistart(ctx0, 4, cfg)
    c0 = best0.energy_trace[-1]
    ctx_neg = build_context(params, _vl_potential(-0.3))
    r_neg = solve(ctx_neg, best0.u_final, cfg)
    assert r_neg.status == "converged"
    c_neg = r_neg.energy_trace[-1]
    solver_tol = 1e-6
    assert c_neg < c0 - 10 * solver_tol
    budget.done(8, "attracting localized part lowers the ground level",
                f"drop {c0 - c_neg:.3e}")


def test_criterion_9_positive_bump_escape_signature():
    budget = Budget(600.0)
    h = 0.125
    cfg = SolverConfig(seed=9)
    gaps, overlaps = [], []
    for L in (8.0, 16.0, 32.0):
        n = int(round(2 * L / h))
        params = make_params(L=L, n=n)
        ctx_per = build_context(params, const_potential())
        r_per = solve(ctx_per, gaussian_field(ctx_per.grid, [0.0], 2.0), cfg)
        assert r_per.status == "converged"
        ctx_pos = build_context(params, _vl_potential(0.3))
        antipode = shift(r_per.u_final, [float(int(L))])
        r_pos = solve(ctx_pos, antipode, cfg)
        assert r_pos.status == "converged"
        centered = solve(ctx_pos, r_per.u_final, cfg)
        c_pos = r_pos.energy_trace[-1]
        if centered.status == "converged":
            c_pos = min(c_pos, centered.energy_trace[-1])
        gaps.append(c_pos - r_per.energy_trace[-1])
        x = ctx_pos.grid.axis_coords
        u2 = r_pos.u_final.values ** 2
        overlaps.append(float(ctx_pos.grid.cell_volume * np.sum(u2[np.abs(x) < 2.0])))
    assert all(g > 0 for g in gaps)
    assert gaps[2] < gaps[1] < gaps[0]
    assert overlaps[2] < overlaps[1] < overlaps[0]
    budget.done(9, "repelling localized part: vanishing gap and overlap",
                "gaps " + ", ".join(f"{g:.2e}" for g in gaps))


def test_criterion_10_vanishing_local_factor_compactness():
    budget = Budget(600.0)
    params = make_params(n=256)
    base = gamma_potential(1.0)
    cfg = SolverConfig(seed=10)
    eps = [0.5, 0.25, 0.1, 0.05, 0.0]
    ctx_full = build_context(params, base)
    contexts = [ctx_full.with_gamma_scaled(e) for e in eps]
    results = []
    init = None
    for ctx in contexts:
        if init is None:
            best, _ = multistart(ctx, 4, cfg)
        else:
            best = solve(ctx, init, cfg)
            assert best.status == "converged"
        results.append(best)
        init = best.u_final
    c = [r.energy_trace[-1] for r in results]
    c0 = c[-1]
    ctx0 = contexts[-1]
    u0 = results[-1].u_final
    slack = 1e-8 * (1 + abs(c0))
    # monotone approach from above
    for i in range(len(c) - 1):
        assert c[i] >= c[i + 1] - slack
    # sandwich: c0 <= c_i <= c0 + s_i^q/q * Gamma_i-term of the limit state
    qe = params.q
    for ctx, ci in zip(contexts, c):
        assert ci >= c0 - slack
        s_i, _ = project_to_nehari(ctx, u0)
        upper = c0 + s_i**qe / qe * gamma_values(ctx, u0.values)
        assert ci <= upper + slack
    # recentered problem-norm distance to the limit state decreases
    dists = []
    for r in results:
        best_d = np.inf
        for z in range(-3, 4):
            for sign in (1.0, -1.0):
                diff = Field(ctx0.grid, sign * shift(r.u_final, [float(z)]).values - u0.values)
                best_d = min(best_d, qdg(ctx0, diff.values)[0])
        dists.append(np.sqrt(max(best_d, 0.0)))
    for i in range(len(dists) - 1):
        assert dists[i] >= dists[i + 1] - 1e-10
    budget.done(10, "vanishing local factor: levels and states converge",
                "c " + ", ".join(f"{v:.8f}" for v in c))

"""Experiment drivers behind the CLI: run(ecfg) and the six kinds it looks up in KINDS."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..energy import (
    EnergyContext,
    b_values,
    brezis_lieb_check,
    build_context,
    energy_report,
    gamma_values,
    nonlocal_terms,
    qdg,
)
from ..extension import (
    WallGrid,
    build_wall,
    check_norm_equivalence,
    check_trace_inequalities,
    dtn_apply,
    harmonic_extend,
)
from ..grid import (
    Field,
    Grid,
    apply_multiplier,
    gaussian_field,
    l2_inner,
    l2_norm,
    l2_norm2,
    random_smooth_field,
    random_smooth_fields,
    row_dots,
    save_field,
    shift,
)
from ..nehari import (
    check_J_conditions,
    fiber_scan,
    fiber_scan_csv,
    nehari_t_from_qdg,
)
from ..operators import apply_sqrt, build_riesz, epstein_zeta, riesz_convolve
from ..problem import (
    ConfigError,
    Descriptor,
    PotentialSpec,
    ProblemParams,
    load_problem_config,
    resolved_config_text,
)
from ..solver import (
    SolverConfig,
    SolveFailure,
    best_converged,
    enough_starts,
    multistart,
    solve,
)
from .config import ExperimentConfig, Report


# ---------------------------------------------------------------------------
# plain solve


def _ground_state(ecfg: ExperimentConfig, pot: PotentialSpec, ctx: EnergyContext,
                  rep: Report) -> None:
    best, runs = multistart(ctx, ecfg.multistarts, ecfg.solver_config)
    rep.section("Runs")
    levels = [float(r.energy_trace[-1]) for r in runs]
    for i, r in enumerate(runs):
        # a join row carries the joined level, first reached by the start it joined
        joins = "".join(f", joined start {levels.index(row['energy'])} at iteration {row['iter']}"
                        for row in r.history if row["accept"] == "join")
        rep.add_line(f"- start {i}: status={r.status}, iterations={r.iterations}, "
                     f"energy={levels[i]!r}, residual={r.history[-1]['residual']:.3e}{joins}")
    rep.add_line(f"- ran {len(runs)} of {ecfg.multistarts} starts, stopped by "
                 + ("the stopping rule" if enough_starts(runs) else "the cap"))
    rep.add_check("best run converged", best.status == "converged",
                  f"energy={float(best.energy_trace[-1])!r}")
    rep.add_check("ground level positive", best.energy_trace[-1] > 0)

    out = Path(ecfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    er = energy_report(ctx, best.u_final)
    (out / "energy.json").write_text(er.to_json() + "\n", encoding="utf-8")
    save_field(best.u_final, out / "u_final.cgsf",
               {"experiment": "solve", "seed": ecfg.seed, "energy": er.e_val})
    with open(out / "trace.ndjson", "w", encoding="utf-8") as fh:
        for row in best.history:
            rep.add_metric(iter=row["iter"], energy=row["energy"], residual=row["residual"])
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# verification suites


def _upper_gamma(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for x >= 2 by Legendre's continued fraction (modified Lentz),
    one fraction per row of x, its exponent the same row of the column a."""
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


def _epstein_oracle(N: int, s_values: tuple[float, ...]) -> list[float]:
    """Z_N(s) at each s by Epstein's incomplete-gamma formula with split point lam.

    Sums over the lattice shells directly; its value does not depend on lam,
    so lam != 1 also checks the analytic terms of the split. The two
    incomplete-gamma fractions of every s run as one stack.
    """
    lam = 1.5
    k = np.arange(-7, 8) ** 2
    r2 = sum(np.meshgrid(*[k] * N, indexing="ij")).ravel()
    r2, mult = np.unique(r2[r2 > 0], return_counts=True)
    x = np.pi * r2
    exps = [(s / 2.0, (N - s) / 2.0) for s in s_values]
    frac = _upper_gamma(np.array(exps).reshape(-1, 1),
                        np.tile([lam * x, x / lam], (len(exps), 1)))
    zs = []
    for s, (a, b), ga, gb in zip(s_values, exps, frac[0::2], frac[1::2]):
        shells = mult @ (x**-a * ga + x**-b * gb)
        zs.append(math.pi**a / math.gamma(a)
                  * (shells - 2.0 * lam**-b / (N - s) - 2.0 * lam**a / s))
    return zs


def _gaussian_riesz(N: int, alpha: float, r2: np.ndarray) -> np.ndarray:
    """Riesz potential of exp(-|y|^2) over R^N at squared radius r2 <= 4:
    pi^(N/2) Gamma(alpha/2)/Gamma(N/2) M((N-alpha)/2, N/2, -r2), with Kummer's
    transformation M(a, b, -z) = e^-z M(b - a, b, z) to sum a positive series."""
    a, b = (N - alpha) / 2.0, N / 2.0
    term = np.ones_like(r2)
    total = term.copy()
    for j in range(60):
        term = term * (b - a + j) / (b + j) * r2 / (j + 1)
        total += term
    return math.pi**b * math.gamma(alpha / 2.0) / math.gamma(b) * np.exp(-r2) * total


def _suite_kernel_oracles(ctx: EnergyContext, rep: Report, scale: float) -> None:
    rep.section("Riesz kernel oracles")
    g = ctx.grid
    N, alpha = g.N, ctx.params.alpha
    z0, z2 = _epstein_oracle(N, (N - alpha, N - alpha - 2.0))
    err_z = max(abs(epstein_zeta(N, N - alpha) - z0) / max(1.0, abs(z0)),
                abs(epstein_zeta(N, N - alpha - 2.0) - z2) / max(1.0, abs(z2)))
    rep.add_check("Epstein zeta matches the incomplete-gamma lattice sum",
                  err_z <= 1e-12 * scale, f"rel diff {err_z:.3e}")
    # weights h^(alpha-N) (-Z(N-alpha) + Z(N-alpha-2)) at the origin and
    # h^(alpha-N) (1 - Z(N-alpha-2)/(2N)) at its 2N neighbours
    unit = g.h ** (alpha - N)
    samples = ctx.kernel.kernel_samples
    got = [samples[(0,) * N]] + [samples[(0,) * i + (side,) + (0,) * (N - 1 - i)]
                                 for i in range(N) for side in (1, -1)]
    want = np.array([-z0 + z2] + [1.0 - z2 / (2 * N)] * (2 * N)) * unit
    err_w = float(np.max(np.abs(np.array(got) - want)) / np.max(np.abs(want)))
    rep.add_check("production kernel carries the zeta-corrected weights",
                  err_w <= 1e-12 * scale, f"rel diff {err_w:.3e}")
    rep.add_check("far kernel part bounded by one",
                  ctx.kernel.far_part_bound <= 1.0 + 1e-12, f"sup {ctx.kernel.far_part_bound:.6f}")

    # a Gaussian four cells wide, far from the box edge: the lattice sum is
    # accurate to O(h^(4+alpha)), against O(h^alpha) with a plain origin weight
    small = Grid(N, 6.0, 48)
    kern = build_riesz(small, alpha, p=ctx.params.p)
    line = (slice(None),) + (small.n // 2,) * (N - 1)
    spectral = riesz_convolve(kern, Field(small, np.exp(-small.r2()))).values[line]
    x = small.axis_coords
    near = np.abs(x) <= 1.5
    exact = _gaussian_riesz(N, alpha, x[near] ** 2)
    err = float(np.max(np.abs(spectral[near] - exact)) / np.max(exact))
    rep.add_check("spectral convolution matches the Riesz potential of a Gaussian",
                  err <= 2e-4 * scale, f"max rel err {err:.3e}")
    spike = np.zeros(small.shape)
    spike[(3,) + (0,) * (N - 1)] = 1.0 / small.cell_volume
    row = riesz_convolve(kern, Field(small, spike)).values
    row_expect = np.roll(kern.kernel_samples, 3, axis=0)
    err_row = float(np.max(np.abs(row - row_expect)))
    rep.add_check("unit spike reproduces the kernel row",
                  err_row <= 1e-10 * scale * np.max(np.abs(row_expect)),
                  f"max abs err {err_row:.3e}")


def _suite_operator(ctx: EnergyContext, wall: WallGrid, rep: Report, scale: float,
                    rng: np.random.Generator) -> None:
    rep.section("Operator realization")
    g = ctx.grid
    m = ctx.params.m
    # u and w, then five fields for the boundary-derivative check
    u, w, *others = (Field(g, vals) for vals in random_smooth_fields(g, rng, 2 + 5))
    au = apply_sqrt(ctx.sqrt_op, u)
    aw = apply_sqrt(ctx.sqrt_op, w)
    sym = abs(l2_inner(au, w) - l2_inner(u, aw))
    rep.add_check("square-root operator self-adjoint",
                  sym <= 1e-12 * scale * max(abs(l2_inner(au, w)), 1.0), f"gap {sym:.3e}")
    pos = l2_inner(au, u) - m * l2_norm2(u)
    rep.add_check("square-root operator bounded below by the mass",
                  pos >= -1e-12 * scale * max(l2_norm2(u), 1.0), f"margin {pos:.3e}")
    rel_errs = []
    for v in others:
        via_wall = dtn_apply(v, wall)
        via_symbol = apply_sqrt(ctx.sqrt_op, v)
        rel_errs.append(l2_norm(Field(g, via_wall.values - via_symbol.values))
                        / l2_norm(via_symbol))
    rep.add_check("boundary-derivative operator agrees with the spectral square root",
                  max(rel_errs) <= 1e-4 * scale, f"max rel err {max(rel_errs):.3e}")
    tt = dtn_apply(dtn_apply(u, wall), wall)
    lap = Field(g, apply_multiplier(g.freq2 + m * m, u.values))
    rel_tt = l2_norm(Field(g, tt.values - lap.values)) / l2_norm(lap)
    rep.add_check("operator squares to the Schrodinger operator",
                  rel_tt <= 1e-4 * scale, f"rel err {rel_tt:.3e}")


TRACE_FIELDS = 100    # random fields behind the trace-inequality checks
J_FIELDS = 50         # and behind the manifold geometry checks


def _suite_trace(ctx: EnergyContext, wall: WallGrid, rep: Report, scale: float,
                 rng: np.random.Generator) -> None:
    rep.section("Trace and norm inequalities")
    g = ctx.grid
    p = ctx.params.p
    V = Field(g, ctx.Vp.values + ctx.Vl.values)
    v = harmonic_extend(random_smooth_fields(g, rng, TRACE_FIELDS), wall)
    worst1, worst2 = (float(np.min(m)) for m in check_trace_inequalities(v, p).margins())
    sandwich_ok = bool(np.all(check_norm_equivalence(v, V, tol=1e-9 * scale)[0]))
    tol = 1e-8 * scale
    rep.add_check("p-power trace inequality on random extensions",
                  worst1 >= -tol, f"worst margin {worst1:.3e}")
    rep.add_check("quadratic trace inequality on random extensions",
                  worst2 >= -tol, f"worst margin {worst2:.3e}")
    rep.add_check("norm equivalence sandwich with derived constants", sandwich_ok)


def _suite_phi(ctx: EnergyContext, rep: Report, scale: float,
               rng: np.random.Generator) -> None:
    rep.section("Auxiliary potential properties")
    g = ctx.grid
    p = ctx.params.p
    u = random_smooth_field(g, rng)
    # phi as the solver computes it
    base = nonlocal_terms(ctx, u.values)[0]
    t = 2.0
    scaled = nonlocal_terms(ctx, t * u.values)[0]
    hom = np.max(np.abs(scaled - t**p * base)) / max(np.max(np.abs(base)), 1e-300)
    rep.add_check("degree-p homogeneity", hom <= 1e-12 * scale * t**p, f"rel err {hom:.3e}")
    z = np.ones(g.N)
    lhs = nonlocal_terms(ctx, shift(u, z).values)[0]
    rhs = shift(Field(g, base), z).values
    equiv = np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(base)), 1e-300)
    rep.add_check("lattice shift equivariance", equiv <= 1e-12 * scale, f"rel err {equiv:.3e}")
    neg = float(np.min(base))
    rep.add_check("non-negativity", neg >= -1e-10 * scale * max(np.max(base), 1e-300),
                  f"min {neg:.3e}")


def _bl_shifts(g: Grid) -> list[np.ndarray]:
    base = max(1, round(g.L / 8.0))
    shifts = []
    for j in (1, 2, 3, 4):
        z = np.zeros(g.N)
        z[0] = min(j * base, g.L)
        shifts.append(z)
    return shifts


def _suite_brezis_lieb(ctx: EnergyContext, rep: Report, scale: float) -> None:
    rep.section("Nonlocal-term splitting")
    g = ctx.grid
    u0 = gaussian_field(g, np.zeros(g.N), width=min(1.0, g.L / 4.0))
    w = gaussian_field(g, np.zeros(g.N), width=min(0.8, g.L / 5.0), amplitude=0.7)
    deltas = brezis_lieb_check(ctx, u0, w, _bl_shifts(g))
    detail = ", ".join(f"{d:.3e}" for d in deltas)
    rep.add_check("splitting defect decreases with separation",
                  all(b <= a * (1.0 + 0.1 * scale) for a, b in zip(deltas, deltas[1:])),
                  f"deltas {detail}")


def _suite_j_conditions(ctx: EnergyContext, rep: Report, scale: float,
                        rng: np.random.Generator) -> None:
    rep.section("Manifold geometry conditions")
    jrep = check_J_conditions(ctx, random_smooth_fields(ctx.grid, rng, J_FIELDS),
                              tol=1e-9 * scale)
    rep.add_check("energy floor on the small sphere", jrep.j1_ok,
                  f"min ratio {jrep.j1_min_ratio:.6f} at radius {jrep.radius:.3e}")
    rep.add_check("super-q growth of the nonlinear part", jrep.j2_ok)
    rep.add_check("fiber slope sign pattern", jrep.j3_ok,
                  f"{jrep.j3_violations} violations")
    rep.add_check("coercivity on the manifold", jrep.j4_ok,
                  f"min margin {jrep.j4_min_margin:.3e}")


def _run_all_suites(ctx: EnergyContext, rep: Report, scale: float, seed: int) -> None:
    rng = np.random.default_rng(seed)
    _suite_kernel_oracles(ctx, rep, scale)
    wall = build_wall(ctx.grid, ctx.params.m)
    _suite_operator(ctx, wall, rep, scale, rng)
    _suite_trace(ctx, wall, rep, scale, rng)
    _suite_phi(ctx, rep, scale, rng)
    _suite_brezis_lieb(ctx, rep, scale)
    _suite_j_conditions(ctx, rep, scale, rng)


def _verify(ecfg: ExperimentConfig, pot: PotentialSpec, ctx: EnergyContext,
            rep: Report) -> None:
    _run_all_suites(ctx, rep, ecfg.tolerance_scale, ecfg.seed)


# ---------------------------------------------------------------------------
# fiber scan


def _fiber_scan(ecfg: ExperimentConfig, pot: PotentialSpec, ctx: EnergyContext,
                rep: Report) -> None:
    u = gaussian_field(ctx.grid, np.zeros(ctx.grid.N), width=max(1.0, ctx.grid.L / 8.0))
    scan = fiber_scan(ctx, qdg(ctx, u.values[None]), 4.0, 41)
    (t_star,), (resid,) = scan.t_star.tolist(), scan.residual_at_t_star.tolist()
    rep.add_check("single rise-then-fall pattern", scan.slope_sign_ok[0])
    rep.add_check("scan maximum brackets the projection point",
                  scan.max_bracket_contains_t_star()[0], f"t* = {t_star!r}")
    rep.add_check("projection residual small",
                  abs(resid) <= 1e-10 * ecfg.tolerance_scale * max(t_star**2, 1.0),
                  f"residual {resid:.3e}")
    out = Path(ecfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fiber_scan.csv").write_text(fiber_scan_csv(scan), encoding="utf-8")


# ---------------------------------------------------------------------------
# sweeps


def _aligned_distance(ctx: EnergyContext, u: Field, ref: Field, b_ref: np.ndarray) -> float:
    """Problem-norm distance after optimal sign and lattice-shift alignment;
    b_ref is B ref, b_values of ref's values.

    B is symmetric and its A part commutes with the rolls R, so
    Q(s R u - ref) = Q_A(u) + <(V - m) R u, R u> - 2 s <R u, B ref> + Q(ref):
    the sign and the roll are picked from these inner products, and only the
    chosen difference is evaluated exactly.
    """
    g = ctx.grid
    cv, cpu, axes = g.cell_volume, g.cells_per_unit(), tuple(range(g.N))
    vm = ctx.v_minus_m

    def q(vals):  # Q alone: D and G would cost two transforms more
        return cv * row_dots(b_values(ctx, vals), vals, g.N)

    q_a = q(u.values) - cv * row_dots(vm * u.values, u.values, g.N)
    best, pick = np.inf, None
    for offsets in np.ndindex(*(7,) * g.N):
        moved = np.roll(u.values, tuple(cpu * (k - 3) for k in offsets), axis=axes)
        cross = cv * row_dots(moved, b_ref, g.N)
        # Q(ref) is common to every candidate; s = -1 wins only when strictly better
        split = q_a + cv * row_dots(vm * moved, moved, g.N) - 2.0 * abs(cross)
        if split < best:
            best, pick = split, (moved if cross >= 0.0 else -moved)
    return float(np.sqrt(max(q(pick - ref.values), 0.0)))


def _gamma_sweep(ecfg: ExperimentConfig, pot: PotentialSpec, ctx_base: EnergyContext,
                 rep: Report) -> None:
    if pot.Vl_sign != "zero":
        raise ConfigError("gamma sweep requires a vanishing localized potential")
    if any(e < 0 for e in ecfg.eps_list):
        raise ConfigError("local factor amplitudes must be non-negative")
    eps = sorted({float(e) for e in ecfg.eps_list}, reverse=True)
    if eps[-1] != 0.0:
        eps.append(0.0)
    cfg = ecfg.solver_config
    contexts = [ctx_base.with_gamma_scaled(e) for e in eps]
    results = []
    init = None
    for ctx in contexts:
        if init is None:
            best, _ = multistart(ctx, ecfg.multistarts, cfg)
        else:
            best = _solve_best(ctx, [init], cfg)
        results.append(best)
        init = best.u_final
    c = [r.energy_trace[-1] for r in results]
    ctx0 = contexts[-1]
    u0 = results[-1].u_final
    c0 = c[-1]
    # Q and D of the limit state do not depend on Gamma's scale; only G does
    b_u0 = b_values(ctx0, u0.values)
    q_u0 = ctx0.grid.cell_volume * row_dots(b_u0, u0.values, ctx0.grid.N)
    d_u0 = nonlocal_terms(ctx0, u0.values)[1]

    rep.section("Sweep")
    slack = 1e-8 * (1.0 + abs(c0)) * ecfg.tolerance_scale
    mono_ok = all(c[i] >= c[i + 1] - slack for i in range(len(c) - 1))
    lower_ok = all(ci >= c0 - slack for ci in c)
    upper_ok = True
    dist = []
    for e, ctx, r in zip(eps, contexts, results):
        gam_term = gamma_values(ctx, u0.values)
        s_i = nehari_t_from_qdg(q_u0, d_u0, gam_term, ctx.params.p, ctx.params.q)
        upper = c0 + s_i**ctx.params.q / ctx.params.q * gam_term
        upper_ok = upper_ok and (r.energy_trace[-1] <= upper + slack)
        d_i = _aligned_distance(ctx0, r.u_final, u0, b_u0)
        dist.append(d_i)
        rep.add_metric(eps=e, c=r.energy_trace[-1], upper_bound=upper, distance=d_i)
        rep.add_line(f"- eps={e}: c={float(r.energy_trace[-1])!r}, sandwich top={float(upper)!r}, "
                     f"distance={d_i:.3e}")
    rep.add_check("levels non-increasing toward the limit", mono_ok)
    rep.add_check("levels bounded below by the limit level", lower_ok)
    rep.add_check("levels under the projected comparison bound", upper_ok)
    dist_ok = all(dist[i] >= dist[i + 1] - slack for i in range(len(dist) - 1))
    rep.add_check("recentered distance to the limit state decreasing", dist_ok,
                  ", ".join(f"{d:.3e}" for d in dist))
    rep.add_check("limit level positive", c0 > 0, f"c0={float(c0)!r}")


def _with_box(params: ProblemParams, L: float, h: float) -> ProblemParams:
    n = int(round(2.0 * L / h))
    return replace(params, L=float(L), n=n)


def _vl_spec(pot: PotentialSpec, amplitude: float) -> PotentialSpec:
    """The localized part at a nonzero amplitude, its sign mode to match."""
    par = dict(pot.Vl.params)
    par["amplitude"] = amplitude
    sign = "positive" if amplitude > 0 else "negative"
    return replace(pot, Vl=Descriptor(pot.Vl.tag, par), Vl_sign=sign)


def _solve_best(ctx: EnergyContext, inits: list[Field], cfg: SolverConfig):
    return best_converged([solve(ctx, u, cfg) for u in inits])


def _overlap_near_origin(u: Field, radius: float) -> float:
    g = u.grid
    return float(g.cell_volume * np.sum(u.values[g.r2() < radius**2] ** 2))


def _vl_sign(ecfg: ExperimentConfig, pot: PotentialSpec, ctx: EnergyContext,
             rep: Report) -> None:
    if pot.Vl.tag == "zero":
        raise ConfigError("vl-sign experiment needs a localized potential profile")
    amp = abs(pot.Vl.get("amplitude"))
    params, cfg = ctx.params, ecfg.solver_config

    best0, _ = multistart(ctx.periodic_variant(), ecfg.multistarts, cfg)
    c_per_base = best0.energy_trace[-1]
    u_per = best0.u_final

    neg = _vl_spec(pot, -amp)
    ctx_neg = ctx if neg == pot else build_context(params, neg)
    best_neg = _solve_best(ctx_neg, [u_per], cfg)
    c_neg = best_neg.energy_trace[-1]

    rep.section("Sign comparison at the base box")
    tol_energy = 1e-6
    rep.add_line(f"- c(negative) = {float(c_neg)!r}")
    rep.add_line(f"- c(zero) = c_per = {float(c_per_base)!r}")
    rep.add_check("negative localized part lowers the ground level",
                  c_neg < c_per_base - 10.0 * tol_energy,
                  f"drop {c_per_base - c_neg:.6e}")

    rep.section("Positive localized part: escape signature over growing boxes")
    h = ctx.grid.h
    gaps = []
    overlaps = []
    for L in sorted(float(v) for v in ecfg.box_list):
        par_L = _with_box(params, L, h)
        ctx_pos = build_context(par_L, _vl_spec(pot, amp))
        # same solver, same box, localized part stripped: the common-mode
        # discretization bias cancels in the gap
        ctx_per = ctx_pos.periodic_variant()
        g_center = gaussian_field(ctx_per.grid, np.zeros(par_L.N), width=2.0)
        r_per = _solve_best(ctx_per, [g_center], cfg)
        # best escape candidate: the periodic state parked at the torus antipode
        antipode = shift(r_per.u_final, np.full(par_L.N, float(int(L))))
        r_pos = _solve_best(ctx_pos, [antipode, r_per.u_final], cfg)
        gap = r_pos.energy_trace[-1] - r_per.energy_trace[-1]
        ov = _overlap_near_origin(r_pos.u_final, 2.0)
        gaps.append(gap)
        overlaps.append(ov)
        rep.add_metric(L=L, c_per=r_per.energy_trace[-1], c_pos=r_pos.energy_trace[-1],
                       gap=gap, overlap=ov)
        rep.add_line(f"- L={L}: gap={gap:.6e}, bump overlap={ov:.3e}")
    rep.add_check("gap to the periodic level positive at every box",
                  all(g > 0 for g in gaps), ", ".join(f"{g:.3e}" for g in gaps))
    rep.add_check("gap strictly decreasing with the box",
                  all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1)))
    rep.add_check("bump overlap decreasing with the box",
                  all(overlaps[i + 1] <= overlaps[i] for i in range(len(overlaps) - 1)),
                  ", ".join(f"{o:.3e}" for o in overlaps))


def _embed(u: Field, target: Grid) -> Field:
    """Inject a field into a larger box with the same spacing, zero elsewhere."""
    if target.n < u.grid.n:
        raise ValueError("target grid must be at least as large")
    pad = (target.n - u.grid.n) // 2
    vals = np.zeros(target.shape)
    sl = tuple(slice(pad, pad + u.grid.n) for _ in range(u.grid.N))
    vals[sl] = u.values
    return Field(target, vals)


def _box_start(grid: Grid) -> Field:
    """A width-2 Gaussian at the origin plus 1e-3 of one at 0.37 on every axis.

    An exactly even start keeps every iterate even, so where Gamma peaks at
    the origin descent can stop at a saddle whose unstable mode is odd.
    """
    odd = gaussian_field(grid, np.full(grid.N, 0.37), width=2.0, amplitude=1e-3)
    return Field(grid, gaussian_field(grid, np.zeros(grid.N), width=2.0).values + odd.values)


def _box_sweep(ecfg: ExperimentConfig, pot: PotentialSpec, ctx_base: EnergyContext,
               rep: Report) -> None:
    Ls = sorted(float(v) for v in ecfg.box_list)
    if len(Ls) < 2:
        raise ConfigError("box sweep needs at least two box sizes")
    params, cfg, h = ctx_base.params, ecfg.solver_config, ctx_base.grid.h
    cs = []
    tails = []
    prev = None
    for L in Ls:
        par_L = _with_box(params, L, h)
        ctx = build_context(par_L, pot)
        inits = [_box_start(ctx.grid)]
        if prev is not None:
            inits.insert(0, _embed(prev, ctx.grid))
        r = _solve_best(ctx, inits, cfg)
        prev = r.u_final
        c = r.energy_trace[-1]
        w = r.u_final.values**2
        tail = float(np.sum(w[ctx.grid.r2() >= (L / 2.0) ** 2]) / np.sum(w))
        cs.append(c)
        tails.append(tail)
        rep.add_metric(L=L, c=c, tail_mass=tail)
        rep.add_line(f"- L={L}: c={float(c)!r}, tail mass fraction={tail:.3e}")
    diffs = [abs(cs[i + 1] - cs[i]) for i in range(len(cs) - 1)]
    rep.add_check("level differences shrink with the box (Cauchy behavior)",
                  all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1)),
                  ", ".join(f"{d:.3e}" for d in diffs))
    rep.add_check("tail mass decreasing",
                  all(tails[i + 1] <= tails[i] for i in range(len(tails) - 1)),
                  ", ".join(f"{t:.3e}" for t in tails))
    # resolution study at the largest box: halving h must move the level by
    # less than the truncation gap being resolved (the largest one in the
    # sweep; smaller gaps share the h bias, which cancels in differences)
    ctx_fine = build_context(_with_box(params, Ls[-1], h / 2.0), pot)
    r_fine = _solve_best(ctx_fine, [_box_start(ctx_fine.grid)], cfg)
    h_shift = abs(r_fine.energy_trace[-1] - cs[-1])
    rep.add_check("spacing refinement moves the level less than the truncation gap",
                  h_shift < max(diffs[0], 1e-12), f"h-shift {h_shift:.3e} vs gap {diffs[0]:.3e}")


# ---------------------------------------------------------------------------
# the one entry point

# kind -> (report title, body(ecfg, pot, ctx, rep)), in the command line's order
KINDS = {
    "solve": ("Ground-state solve", _ground_state),
    "verify": ("Verification suites", _verify),
    "gamma-sweep": ("Vanishing local factor sweep", _gamma_sweep),
    "vl-sign": ("Localized potential sign study", _vl_sign),
    "box-sweep": ("Box periodization sweep", _box_sweep),
    "fiber-scan": ("Fiber scan", _fiber_scan),
}


def run(ecfg: ExperimentConfig) -> int:
    """Run the experiment ecfg.kind and return its exit code.

    run loads and builds the problem, heads the report with the kind's title
    and the resolved inputs, runs the kind's body and writes the report; it
    returns 0 when every check passed and 1 otherwise, a SolveFailure being
    one failed check. An unknown kind, or a ConfigError from the problem or
    the body, raises before anything is written.
    """
    if ecfg.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind '{ecfg.kind}'")
    title, body = KINDS[ecfg.kind]
    params, pot = load_problem_config(ecfg.problem_path)
    ctx = build_context(params, pot)
    rep = Report(title)
    rep.embed_inputs(resolved_config_text(params, pot), {"kind": ecfg.kind, "seed": ecfg.seed})
    try:
        body(ecfg, pot, ctx, rep)
    except SolveFailure as exc:
        rep.add_check("every solve converged", False, str(exc))
    rep.write(ecfg.out_dir)
    return 0 if rep.all_passed else 1

import numpy as np
import pytest

from choquard_gs.energy import build_context, energy_value, grad_energy, qdg
from choquard_gs.grid import Field, gaussian_field, l2_norm2, shift
from choquard_gs.solver import (
    SolveFailure,
    SolverConfig,
    SolverResult,
    escape_diagnostic,
    multistart,
    random_initial,
    solve,
)
from conftest import config_context, const_potential, make_params


@pytest.fixture(scope="module")
def converged(ctx_solver):
    init = gaussian_field(ctx_solver.grid, [1.0], 2.0)
    return solve(ctx_solver, init, SolverConfig())


def test_solve_converges_on_default_problem(converged):
    r = converged
    assert r.status == "converged"
    assert r.iterations <= 2000
    assert r.residual_trace[-1] <= r.threshold
    assert r.threshold == pytest.approx(1e-8 * r.residual_trace[0])
    assert r.energy_trace[-1] > 0


def test_energy_trace_monotone(converged):
    ctx = config_context("verify.ini")
    with_gamma = solve(ctx, random_initial(ctx, np.random.default_rng([0, 0])), SolverConfig())
    for r in (converged, with_gamma):
        assert r.status == "converged"
        e = r.energy_trace
        assert np.all(np.diff(e) <= 1e-12 * (1.0 + np.abs(e[:-1])))


def test_iterates_stay_on_manifold(ctx_solver, converged):
    q, d, g = qdg(ctx_solver, converged.u_final)
    assert abs(q - d + g) <= 1e-10 * q


def test_qnorm_bounded_by_coercivity(ctx_solver, converged):
    qe = ctx_solver.params.q
    bound = np.sqrt(converged.energy_trace[0] / (0.5 - 1.0 / qe)) + 1.0
    assert np.all(converged.qnorm_trace <= bound)


def test_final_state_even_about_center(converged):
    # node-centered symmetric start keeps the converged bump reflection
    # symmetric about a node up to round-off accumulation
    u = converged.u_final.values
    n = len(u)
    best = min(np.sqrt(np.sum((u - np.roll(u[::-1], k)) ** 2)) for k in range(n))
    assert best <= 1e-8 * np.sqrt(np.sum(u * u))


def test_recentering_moves_peak_to_origin(ctx_solver, converged):
    # the start at x = 1 converges before the first checkpoint; the shift at
    # exit still brings the peak home and leaves the recorded energy exact
    r = converged
    assert r.status == "converged"
    assert r.iterations < SolverConfig().recenter_every
    g = r.u_final.grid
    peak = np.argmax(np.abs(r.u_final.values))
    x_peak = abs(g.axis_coords()[peak])
    assert x_peak <= 0.5 + g.h
    assert r.shift_iters == [r.iterations]
    assert [z.tolist() for z in r.shifts_applied] == [[1]]
    assert r.energy_trace[-1] == pytest.approx(energy_value(ctx_solver, r.u_final), rel=1e-12)
    assert np.allclose(r.com_trace[-1], 0.0, atol=g.h)


def _vl_context(amplitude, width):
    """The default N=1, n=128 problem with an inverse-power V_l at the origin."""
    from choquard_gs.problem import Descriptor, PotentialSpec

    vl = Descriptor("inverse-power", {"amplitude": amplitude, "width": width, "power": 2.0})
    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}), vl,
                        "negative" if amplitude < 0 else "positive", Descriptor("zero"))
    return build_context(make_params(), pot)


@pytest.mark.parametrize("amplitude, moves", [(-0.5, True), (0.5, False)])
def test_recentering_guarded_by_localized_potential(amplitude, moves):
    # a well at the origin pulls the off-center bump home at the first
    # checkpoint; a barrier there would raise the energy, so the shift is refused
    ctx = _vl_context(amplitude, 1.0)
    r = solve(ctx, gaussian_field(ctx.grid, [6.0], 2.0),
              SolverConfig(max_iters=1, recenter_every=1))
    assert [z.tolist() for z in r.shifts_applied] == ([[6]] if moves else [])
    assert r.energy_trace[-1] == pytest.approx(energy_value(ctx, r.u_final), rel=1e-12)
    # the shift into the well lowers Q; the checkpoint re-projects onto the manifold
    q, d, g = qdg(ctx, r.u_final)
    assert abs(q - d + g) <= 1e-10 * q


def test_restart_from_shifted_converged_state(ctx_solver, converged):
    # a lattice translate of a converged state is already optimal: with the
    # achieved threshold as the absolute tolerance it converges immediately
    init = shift(converged.u_final, [3.0])
    cfg = SolverConfig(grad_tol_abs=1.5 * converged.threshold, recenter_every=0)
    r = solve(ctx_solver, init, cfg)
    assert r.status == "converged"
    assert r.iterations <= 5
    assert r.energy_trace[-1] == pytest.approx(converged.energy_trace[-1], rel=1e-10)


def test_zero_init_fails_projection(ctx_solver):
    r = solve(ctx_solver, Field(ctx_solver.grid, np.zeros(ctx_solver.grid.shape)))
    assert r.status == "projection_failed"
    assert r.iterations == 0
    assert len(r.energy_trace) == 0


def test_solve_shift_equivariant(ctx_solver):
    # trajectories of a shifted start track the shifted trajectories: the two
    # runs differ only at round-off, which neither the acceptance tests nor the
    # rounded secant step can see, so they take the same steps throughout
    cfg = SolverConfig(max_iters=60, recenter_every=0)
    init = gaussian_field(ctx_solver.grid, [0.0], 1.5)
    a = solve(ctx_solver, init, cfg)
    b = solve(ctx_solver, shift(init, [4.0]), cfg)
    k = min(len(a.energy_trace), len(b.energy_trace), 25)
    assert np.allclose(a.energy_trace[:k], b.energy_trace[:k], rtol=1e-12, atol=1e-14)
    assert np.allclose(a.residual_trace[:k], b.residual_trace[:k], rtol=0, atol=a.threshold)
    assert np.array_equal(a.step_trace[:k], b.step_trace[:k])
    assert a.energy_trace[-1] == pytest.approx(b.energy_trace[-1], rel=1e-12)
    back = shift(b.u_final, [-4.0])
    assert np.max(np.abs(back.values - a.u_final.values)) <= 1e-6 * np.max(np.abs(a.u_final.values))


def test_max_iters_status(ctx_solver):
    init = gaussian_field(ctx_solver.grid, [0.0], 4.0)
    r = solve(ctx_solver, init, SolverConfig(max_iters=3))
    assert r.status == "max_iters"
    assert r.iterations == 3


def test_multistart_k1_equals_solve(ctx_solver):
    cfg = SolverConfig(seed=7)
    best, runs = multistart(ctx_solver, 1, cfg)
    assert len(runs) == 1
    direct = solve(ctx_solver, random_initial(ctx_solver, np.random.default_rng([7, 0])), cfg)
    assert np.array_equal(best.energy_trace, direct.energy_trace)


def test_multistart_reproducible(ctx_solver):
    cfg = SolverConfig(seed=3)
    best1, _ = multistart(ctx_solver, 2, cfg)
    best2, _ = multistart(ctx_solver, 2, cfg)
    assert np.array_equal(best1.energy_trace, best2.energy_trace)
    assert np.array_equal(best1.u_final.values, best2.u_final.values)


def test_multistart_basin_agreement(ctx_solver):
    best, runs = multistart(ctx_solver, 4, SolverConfig(seed=11))
    finals = [r.energy_trace[-1] for r in runs if r.status == "converged"]
    assert len(finals) == 4
    assert max(finals) - min(finals) <= 1e-6


def test_multistart_failure_path(ctx_solver):
    with pytest.raises(SolveFailure):
        multistart(ctx_solver, 2, SolverConfig(max_iters=1, seed=0))
    with pytest.raises(ValueError):
        multistart(ctx_solver, 0)


def test_solve_best_skips_failed_starts(ctx_solver):
    from choquard_gs.experiments.drivers import _solve_best

    g = ctx_solver.grid
    inits = [Field(g, np.zeros(g.shape)), gaussian_field(g, [0.0], 2.0)]
    assert solve(ctx_solver, inits[0]).status == "projection_failed"
    best = _solve_best(ctx_solver, inits, SolverConfig())
    assert best.status == "converged"
    direct = solve(ctx_solver, inits[1], SolverConfig())
    assert np.array_equal(best.energy_trace, direct.energy_trace)
    with pytest.raises(SolveFailure):
        _solve_best(ctx_solver, inits, SolverConfig(max_iters=1))


def test_trace_file(ctx_solver, tmp_path):
    """The solve driver writes trace.ndjson from the winning run's own records."""
    import json
    from pathlib import Path

    from choquard_gs.cli import main

    config = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out),
                 "--multistarts", "1", "--seed", "0"]) == 0
    lines = (out / "trace.ndjson").read_text().strip().splitlines()
    recs = [json.loads(line) for line in lines]
    assert len(recs) >= 2
    assert all(set(rec) == {"iter", "energy", "residual", "t_star", "step", "trials", "beta",
                            "accept", "t_s", "shift"} for rec in recs)
    # the same start solved directly: configs/default.ini is the ctx_solver problem
    r = solve(ctx_solver, random_initial(ctx_solver, np.random.default_rng([0, 0])),
              SolverConfig(seed=0))
    assert [rec["iter"] for rec in recs] == list(range(len(r.energy_trace)))
    assert [rec["energy"] for rec in recs] == r.energy_trace.tolist()
    assert [rec["residual"] for rec in recs] == r.residual_trace.tolist()
    assert [rec["t_star"] for rec in recs] == r.t_star_trace.tolist()
    assert [rec["step"] for rec in recs] == r.step_trace.tolist()
    assert [rec["trials"] for rec in recs] == r.trials_trace.tolist()
    assert [rec["beta"] for rec in recs] == r.beta_trace.tolist()
    assert [rec["accept"] for rec in recs] == r.accept_trace
    # the start takes no step; every later iterate comes from an accepted trial
    assert recs[0]["step"] == 0.0 and recs[0]["trials"] == 0
    assert recs[0]["beta"] == 0.0 and recs[0]["accept"] is None
    assert all(rec["step"] > 0.0 and rec["trials"] >= 1 for rec in recs[1:])
    assert all(rec["beta"] >= 0.0 and rec["accept"] in ("armijo", "derivative")
               for rec in recs[1:])
    # wall time since the solve started, one reading per iterate
    times = [rec["t_s"] for rec in recs]
    assert times[0] >= 0.0 and all(b >= a for a, b in zip(times, times[1:]))
    assert len(r.time_trace) == len(r.energy_trace)
    shifts = {it: z.tolist() for it, z in zip(r.shift_iters, r.shifts_applied)}
    assert [rec["shift"] for rec in recs] == [shifts.get(i) for i in range(len(recs))]


def test_escape_diagnostic_on_converged_state(converged):
    rep = escape_diagnostic(converged)
    assert not rep.escaping
    assert rep.near_origin_mass > 0.9


def test_escape_diagnostic_synthetic_traces(ctx_solver):
    g = ctx_solver.grid
    u = gaussian_field(g, [0.0], 1.0)
    static = np.zeros((200, 1))
    r = SolverResult(u, np.zeros(200), np.ones(200), np.zeros(200), np.zeros(200, dtype=int),
                     np.zeros(200), [None] * 200, np.zeros(200), np.zeros(200), np.zeros(200),
                     static, [], [], "converged", 199, 0.0)
    assert not escape_diagnostic(r).escaping
    outward = np.linspace(0.0, 6.0, 200).reshape(-1, 1)
    r2 = SolverResult(u, np.zeros(200), np.ones(200), np.zeros(200), np.zeros(200, dtype=int),
                      np.zeros(200), [None] * 200, np.zeros(200), np.zeros(200), np.zeros(200),
                      outward, [], [], "max_iters", 199, 0.0)
    assert escape_diagnostic(r2).escaping
    assert escape_diagnostic(r2).longest_outward_run > 50


def test_escaping_flagged_for_positive_bump():
    # with a repelling localized part, a centered start drifts away or
    # converges off the bump
    from choquard_gs.problem import Descriptor, PotentialSpec

    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}),
                        Descriptor("inverse-power", {"amplitude": 0.3, "width": 2.0}),
                        "positive", Descriptor("zero"))
    ctx = build_context(make_params(L=8.0, n=128), pot)
    init = gaussian_field(ctx.grid, [0.4], 2.0)
    r = solve(ctx, init, SolverConfig(max_iters=600))
    rep = escape_diagnostic(r)
    com_final = float(np.abs(r.com_trace[-1][0]))
    assert rep.escaping or com_final > ctx.grid.L / 2


def test_iterate_energies_dominated_by_coercivity_form(ctx_solver, converged):
    # on-manifold iterates keep energy at least the coercive quadratic floor
    qe = ctx_solver.params.q
    floor = (0.5 - 1.0 / qe) * converged.qnorm_trace**2
    assert np.all(converged.energy_trace >= floor - 1e-10)


def test_large_box_tail_mass():
    from choquard_gs.grid import min_image
    from conftest import const_potential, make_params
    from choquard_gs.energy import build_context

    ctx = build_context(make_params(L=32.0, n=512), const_potential())
    r = solve(ctx, gaussian_field(ctx.grid, [0.0], 2.0), SolverConfig())
    assert r.status == "converged"
    g = ctx.grid
    d = np.abs(min_image(g, g.axis_coords()))
    w = r.u_final.values**2
    tail = float(np.sum(w[d >= g.L / 2]) / np.sum(w))
    assert tail < 1e-8


@pytest.mark.parametrize("N,alpha,qe,L,n", [(2, 1.0, 3.0, 4.0, 32), (3, 1.5, 2.5, 2.0, 16)])
def test_solve_in_higher_dimensions(N, alpha, qe, L, n):
    from choquard_gs.problem import Descriptor, PotentialSpec

    params = make_params(N=N, alpha=alpha, q=qe, L=L, n=n)
    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}),
                        Descriptor("zero"), "zero",
                        Descriptor("cosine", {"amplitude": 0.3}))
    ctx = build_context(params, pot)
    init = gaussian_field(ctx.grid, 0.5 * np.ones(N), 1.0)
    r = solve(ctx, init, SolverConfig())
    assert r.status == "converged"
    assert r.energy_trace[-1] > 0
    q, d, g = qdg(ctx, r.u_final)
    assert abs(q - d + g) <= 1e-10 * q


def test_transforms_per_iteration(monkeypatch):
    # the loop caches Bu and I_alpha * |u|^p: a direction costs one forward and
    # one inverse transform, a trial the Riesz pair, a recentering a fresh four
    from choquard_gs.problem import Descriptor, PotentialSpec

    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}), Descriptor("zero"), "zero",
                        Descriptor("zero"))
    ctx = build_context(make_params(N=2, alpha=1.0, L=4.0, n=32), pot)
    calls.clear()
    r = solve(ctx, gaussian_field(ctx.grid, [0.0, 0.0], 1.0), SolverConfig())
    assert r.status == "converged"
    assert r.iterations >= 10
    assert set(calls) == {"rfftn", "irfftn"}
    assert sum(calls.values()) <= 5 * r.iterations


def test_transforms_per_iteration_1d(monkeypatch):
    # in 1-D the grid calls rfft/irfft directly, within the same budget
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    ctx = config_context("gamma_sweep.ini")
    assert ctx.has_gamma
    calls.clear()
    r = solve(ctx, gaussian_field(ctx.grid, [0.0], 2.0), SolverConfig())
    assert r.status == "converged"
    assert r.iterations >= 10
    assert set(calls) == {"rfft", "irfft"}
    assert sum(calls.values()) <= 5 * r.iterations


def test_cached_terms_do_not_drift():
    # 310 iterations with a checkpoint every 25: the last 10 iterates come
    # from the recurrences for Q and Bu alone
    ctx = config_context("gamma_sweep.ini")
    assert ctx.has_gamma
    r = solve(ctx, gaussian_field(ctx.grid, [0.0], 2.0),
              SolverConfig(grad_tol=1e-30, max_iters=310, recenter_every=25))
    assert r.iterations == 310
    fresh = energy_value(ctx, r.u_final)
    assert r.energy_trace[-1] == pytest.approx(fresh, rel=1e-12)
    q, _, _ = qdg(ctx, r.u_final)
    assert r.qnorm_trace[-1] ** 2 == pytest.approx(q, rel=1e-12)


@pytest.mark.parametrize("max_iters", [5, 15])
def test_cached_terms_exact_between_checkpoints(max_iters):
    # mid-descent, before the first recentering checkpoint rebuilds the cache,
    # the recorded energy, norm and residual come from the cached terms alone;
    # verify.ini has a non-constant V and a non-zero Gamma, so every term counts
    from choquard_gs.nehari import project_to_nehari

    ctx = config_context("verify.ini")
    init = gaussian_field(ctx.grid, [0.0], 2.0)
    r = solve(ctx, init, SolverConfig(max_iters=max_iters, recenter_every=25))
    assert r.iterations == max_iters
    start = project_to_nehari(ctx, init)[1]
    assert r.residual_trace[0] == pytest.approx(np.sqrt(l2_norm2(grad_energy(ctx, start))),
                                                rel=1e-12)
    assert r.energy_trace[-1] == pytest.approx(energy_value(ctx, r.u_final), rel=1e-12)
    q, _, _ = qdg(ctx, r.u_final)
    assert r.qnorm_trace[-1] ** 2 == pytest.approx(q, rel=1e-12)
    fresh_residual = np.sqrt(l2_norm2(grad_energy(ctx, r.u_final)))
    assert r.residual_trace[-1] == pytest.approx(fresh_residual, rel=1e-9)


def test_overflowing_trial_backtracks():
    ctx = config_context("default.ini")
    init = gaussian_field(ctx.grid, 0, 2)
    r = solve(ctx, init, SolverConfig(step_init=1e300, step_max=1e300))
    # every trial overflows, so the line search accepts none
    assert r.status == "stalled"
    assert np.all(np.isfinite(r.u_final.values))
    assert np.all(np.isfinite(r.energy_trace))


def test_overflowing_start_fails_projection():
    ctx = config_context("default.ini")
    init = gaussian_field(ctx.grid, 0, 2)
    r = solve(ctx, Field(ctx.grid, 1e200 * init.values))
    assert r.status == "projection_failed"
    assert r.iterations == 0


def test_line_search_without_accepted_trial_is_stalled():
    ctx = config_context("default.ini")
    r = solve(ctx, gaussian_field(ctx.grid, 0, 2),
              SolverConfig(step_init=50.0, step_max=50.0, max_backtracks=1))
    assert r.status == "stalled"
    assert r.iterations == 0
    assert len(r.energy_trace) == 1


def test_recentering_every_iteration_into_well_converges():
    # an off-manifold iterate after the shift into the well used to leave the
    # next line search without an acceptable trial
    ctx = _vl_context(-0.5, 1.0)
    r = solve(ctx, gaussian_field(ctx.grid, [6.0], 2.0), SolverConfig(recenter_every=1))
    assert r.status == "converged"
    assert r.shift_iters == [1]


def test_random_starts_converge_with_localized_well():
    ctx = _vl_context(-0.3, 2.0)
    runs = [solve(ctx, random_initial(ctx, np.random.default_rng([3, i])), SolverConfig())
            for i in range(3)]
    assert [r.status for r in runs] == ["converged"] * 3
    levels = [r.energy_trace[-1] for r in runs]
    assert max(levels) - min(levels) <= 1e-10 * min(levels)


def test_com_trace_matches_direct_formula():
    # the per-iterate formula from before the coordinates were built once per solve
    from choquard_gs.grid import min_image

    def direct(g, u):
        w = u**2
        peak = np.unravel_index(int(np.argmax(np.abs(u))), g.shape)
        xs = g.axis_coords()
        com = np.zeros(g.N)
        for axis in range(g.N):
            d = min_image(g, xs - xs[peak[axis]])
            marg = np.sum(w, axis=tuple(a for a in range(g.N) if a != axis))
            com[axis] = xs[peak[axis]] + float(np.sum(d * marg) / np.sum(w))
        return min_image(g, com)

    for N, alpha, qe, L, n in ((1, 0.5, 3.0, 16.0, 128), (2, 1.0, 3.0, 4.0, 16),
                               (3, 1.5, 2.5, 2.0, 8)):
        ctx = build_context(make_params(N=N, alpha=alpha, q=qe, L=L, n=n), const_potential())
        # a bump across the box edge exercises the wrap of the offsets
        init = gaussian_field(ctx.grid, np.full(N, L - ctx.grid.h), 0.3 * L)
        for max_iters in (1, 3, 8):
            r = solve(ctx, init, SolverConfig(max_iters=max_iters, recenter_every=0))
            assert np.allclose(r.com_trace[-1], direct(ctx.grid, r.u_final.values),
                               rtol=0, atol=1e-12)


def _level_difference_ratios(N, alpha, L, ns):
    levels = []
    for n in ns:
        ctx = build_context(make_params(N=N, alpha=alpha, L=L, n=n), const_potential())
        r = solve(ctx, gaussian_field(ctx.grid, np.zeros(N), 1.0), SolverConfig())
        assert r.status == "converged"
        levels.append(float(r.energy_trace[-1]))
    d = np.diff(levels)
    return d[:-1] / d[1:]


def test_ground_level_converges_at_designed_order_1d():
    # configs/default.ini's problem: each halving of h shrinks the level
    # change by 2^(4+alpha), the order of the zeta-corrected Riesz weights
    (ratio,) = _level_difference_ratios(1, 0.5, 16.0, (128, 256, 512))
    assert ratio == pytest.approx(2.0**4.5, rel=0.1)


def test_ground_level_converges_at_designed_order_2d():
    # still pre-asymptotic at these n (76.6, then 46.5 at n=128); a plain
    # origin weight gives about 2^alpha = 2
    (ratio,) = _level_difference_ratios(2, 1.0, 4.0, (16, 32, 64))
    assert ratio >= 2.0**3.0


def test_conjugate_gradient_halves_gamma_sweep_iterations():
    # the seed-5 multistart on gamma_sweep.ini took 2517 iterations in all
    # under preconditioned steepest descent: CG with P = (A - m + min V)^-1
    # takes at most a third of that; the level is that of the zeta-corrected
    # Riesz weights
    ctx = config_context("gamma_sweep.ini")
    _, runs = multistart(ctx, 16, SolverConfig(seed=5))
    assert [r.status for r in runs] == ["converged"] * 16
    assert sum(r.iterations for r in runs) <= 839
    for r in runs:
        assert r.energy_trace[-1] == pytest.approx(0.26825264473330296, rel=1e-10)


def test_solve_2d_multistart_iterations():
    # the N=2, n=128, Gamma=0 problem of the solve-2d benchmark: 469 iterations
    # with the preconditioner (A + min V)^-1, which damps the lowest frequencies
    # twice as much as (A - m + min V)^-1 at V = m = 1
    ctx = build_context(make_params(N=2, alpha=1.0, L=8.0, n=128), const_potential())
    _, runs = multistart(ctx, 16, SolverConfig(seed=9))
    assert [r.status for r in runs] == ["converged"] * 16
    assert sum(r.iterations for r in runs) <= 400
    for r in runs:
        assert r.energy_trace[-1] == pytest.approx(0.3624162245614877, rel=1e-10)


def test_restart_steps_are_preconditioned_gradient():
    # beta is reset at the start and after an accepted shift, so those steps
    # are u -> t*(u - tau*P grad) with the recorded tau; other steps are not
    from choquard_gs.grid import apply_multiplier, l2_inner
    from choquard_gs.nehari import project_to_nehari

    def plain_step(ctx, u, tau):
        # P is the inverse of the sqrt(-Laplacian + m^2) - m symbol plus min V
        symbol = 1.0 / (ctx.sqrt_op.multiplier - ctx.params.m + ctx.v_min)
        cand = Field(ctx.grid, u.values - tau * apply_multiplier(symbol, grad_energy(ctx, u).values))
        return project_to_nehari(ctx, cand)[1]

    def close(a, b, rtol=1e-10):
        return np.max(np.abs(a.values - b.values)) <= rtol * np.max(np.abs(b.values))

    ctx = _vl_context(-0.5, 1.0)
    init = gaussian_field(ctx.grid, [6.0], 2.0)
    start = project_to_nehari(ctx, init)[1]
    one = solve(ctx, init, SolverConfig(max_iters=1, recenter_every=1))
    two = solve(ctx, init, SolverConfig(max_iters=2, recenter_every=1))
    assert one.shift_iters == two.shift_iters == [1]
    assert one.beta_trace.tolist() == [0.0, 0.0] and two.beta_trace[2] == 0.0
    z = one.shifts_applied[0]
    after_start = plain_step(ctx, start, one.step_trace[1])
    assert close(one.u_final, project_to_nehari(ctx, shift(after_start, -z))[1])
    # the checkpoint after step 2 finds the peak home and only re-projects
    assert close(two.u_final, plain_step(ctx, one.u_final, two.step_trace[2]))

    # away from resets some step carries the previous direction (beta > 0)
    ctx = config_context("verify.ini")
    init = gaussian_field(ctx.grid, [0.0], 2.0)
    runs = [solve(ctx, init, SolverConfig(max_iters=k)) for k in range(1, 13)]
    assert close(runs[0].u_final, plain_step(ctx, project_to_nehari(ctx, init)[1],
                                             runs[0].step_trace[1]))
    assert any(not close(b.u_final, plain_step(ctx, a.u_final, b.step_trace[-1]), rtol=1e-8)
               for a, b in zip(runs, runs[1:]))

    # every accepted step meets Armijo or, with the energy within round-off, the
    # approximate-Wolfe bound phi'(tau) <= (1 - 2 delta) slope, both recomputed
    # from grad_energy: each iterate is u1 = t*(u0 - tau*d), which gives d, the
    # slope <grad E(u0), d> and phi'(tau) = -t <grad E(u1), d>
    cfg = SolverConfig(recenter_every=0)
    delta = cfg.sufficient_decrease
    init = random_initial(ctx, np.random.default_rng([0, 0]))
    r = solve(ctx, init, cfg)
    assert r.status == "converged"
    assert "derivative" in r.accept_trace
    iterates = [project_to_nehari(ctx, init)[1]]
    iterates += [solve(ctx, init, SolverConfig(max_iters=k, recenter_every=0)).u_final
                 for k in range(1, r.iterations + 1)]
    d_prev = None
    for k, (u0, u1) in enumerate(zip(iterates, iterates[1:]), start=1):
        t, tau = r.t_star_trace[k], r.step_trace[k]
        d = Field(ctx.grid, (u0.values - u1.values / t) / tau)
        slope = l2_inner(grad_energy(ctx, u0), d)
        dphi = -t * l2_inner(grad_energy(ctx, u1), d)
        e0, e1 = energy_value(ctx, u0), energy_value(ctx, u1)
        armijo = e1 <= e0 - delta * tau * slope
        derivative = (e1 <= e0 + 1e-13 * (1.0 + abs(e0))
                      and dphi <= (1.0 - 2.0 * delta) * slope + 1e-8 * abs(slope))
        assert armijo or derivative, k
        assert r.accept_trace[k] == "armijo" or derivative, k
        # the recorded beta rebuilds the direction while d is well resolved
        if k <= 10:
            pg = apply_multiplier(1.0 / (ctx.sqrt_op.multiplier - ctx.params.m + ctx.v_min),
                                  grad_energy(ctx, u0).values)
            expect = pg if d_prev is None else pg + r.beta_trace[k] * r.t_star_trace[k - 1] * d_prev
            assert close(d, Field(ctx.grid, expect), rtol=1e-6), k
        d_prev = d.values

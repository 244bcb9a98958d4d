import re
from types import SimpleNamespace

import numpy as np
import pytest

from choquard_gs.energy import build_context, energy_value, grad_energy, qdg
from choquard_gs.grid import Field, Grid, gaussian_field, l2_norm2, shift
import choquard_gs.solver as solver_module
from choquard_gs.solver import (
    MEMORY,
    MINIMA_RTOL,
    RECENTER_EVERY,
    SUFFICIENT_DECREASE,
    SolveFailure,
    SolverConfig,
    best_converged,
    enough_starts,
    kept_minima,
    multistart,
    random_initial,
    solve,
)
from conftest import column, config_context, const_potential, make_params, moves


@pytest.fixture(scope="module")
def converged(ctx_solver):
    init = gaussian_field(ctx_solver.grid, [1.0], 2.0)
    return solve(ctx_solver, init, SolverConfig())


def test_solve_converges_on_default_problem(converged):
    r = converged
    assert r.status == "converged"
    assert r.iterations <= 2000
    assert r.history[-1]["residual"] <= r.threshold
    assert r.threshold == pytest.approx(1e-8 * r.history[0]["residual"])
    assert r.energy_trace[-1] > 0


def test_energy_trace_monotone(converged):
    ctx = config_context("verify.ini")
    with_gamma = solve(ctx, random_initial(ctx, np.random.default_rng([0, 0])), SolverConfig())
    for r in (converged, with_gamma):
        assert r.status == "converged"
        e = r.energy_trace
        assert np.all(np.diff(e) <= 1e-12 * (1.0 + np.abs(e[:-1])))


def test_iterates_stay_on_manifold(ctx_solver, converged):
    q, d, g = qdg(ctx_solver, converged.u_final.values)
    assert abs(q - d + g) <= 1e-10 * q


def test_qnorm_bounded_by_coercivity(ctx_solver, converged):
    qe = ctx_solver.params.q
    bound = np.sqrt(converged.energy_trace[0] / (0.5 - 1.0 / qe)) + 1.0
    assert np.all(column(converged, "qnorm") <= bound)


def test_final_state_even_about_center(converged):
    # node-centered symmetric start keeps the converged bump reflection
    # symmetric about a node up to round-off accumulation
    u = converged.u_final.values
    n = len(u)
    best = min(np.sqrt(np.sum((u - np.roll(u[::-1], k)) ** 2)) for k in range(n))
    assert best <= 1e-8 * np.sqrt(np.sum(u * u))


def test_recentering_moves_peak_to_origin(ctx_solver, converged):
    # the start at x = 1 converges before the first checkpoint; the roll at
    # exit, one lattice vector of 8 cells, still brings the peak home and
    # leaves the recorded energy exact
    r = converged
    assert r.status == "converged"
    assert r.iterations < RECENTER_EVERY
    g = r.u_final.grid
    peak = np.argmax(np.abs(r.u_final.values))
    assert abs(g.axis_coords[peak]) <= g.h
    assert moves(r) == {r.iterations: [-8.0]}
    assert r.energy_trace[-1] == pytest.approx(energy_value(ctx_solver, r.u_final), rel=1e-12)


def _vl_context(amplitude, width):
    """The default N=1, n=128 problem with an inverse-power V_l at the origin."""
    from choquard_gs.problem import Descriptor, PotentialSpec

    vl = Descriptor("inverse-power", {"amplitude": amplitude, "width": width, "power": 2.0})
    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}), vl,
                        "negative" if amplitude < 0 else "positive", Descriptor("zero"))
    return build_context(make_params(), pot)


@pytest.mark.parametrize("amplitude, home", [(-0.5, True), (0.5, False)])
def test_recentering_guarded_by_localized_potential(amplitude, home, monkeypatch):
    # a well at the origin pulls the off-center bump home at the first
    # checkpoint, by the lattice roll of 6 units (24 cells); a barrier there
    # would raise the energy, so the roll is refused and the move goes the
    # other way, down the barrier's slope; either move lowers the energy
    ctx = _vl_context(amplitude, 1.0)
    g = ctx.grid
    init = gaussian_field(g, [6.0], 2.0)
    still = solve(ctx, init, SolverConfig(max_iters=1))    # no checkpoint, and V_l: no exit roll
    assert moves(still) == {}
    monkeypatch.setattr(solver_module, "RECENTER_EVERY", 1)
    r = solve(ctx, init, SolverConfig(max_iters=1))
    ((it, a),) = moves(r).items()
    assert it == 1
    x_peak = g.axis_coords[np.argmax(np.abs(r.u_final.values))]
    if home:
        assert a == [-24.0] and x_peak == 0.0
    else:
        assert a[0] > 0.0 and x_peak > 6.0
    assert r.energy_trace[-1] < still.energy_trace[-1]
    assert r.energy_trace[-1] == pytest.approx(energy_value(ctx, r.u_final), rel=1e-12)
    # the move's trial is evaluated fresh on the manifold
    q, d, gam = qdg(ctx, r.u_final.values)
    assert abs(q - d + gam) <= 1e-10 * q


@pytest.mark.parametrize("name", ["default.ini", "gamma_sweep.ini", "verify.ini"])
def test_restart_from_shifted_converged_state(name):
    # a lattice translate of a converged state is already optimal, and its
    # residual is near round-off, so 1e-8 of it lies below what any iterate
    # can reach: only the threshold's round-off floor stops the restart, which
    # past round-off would wander, on two of these problems to a state 0.8 %
    # lower in energy, until max_iters
    ctx = config_context(name)
    converged = solve(ctx, gaussian_field(ctx.grid, [1.0], 2.0), SolverConfig())
    assert converged.status == "converged"
    r = solve(ctx, shift(converged.u_final, [3.0]), SolverConfig())
    assert r.status == "converged"
    assert r.iterations <= 8
    assert r.energy_trace[-1] == pytest.approx(converged.energy_trace[-1], rel=1e-10)


def test_zero_init_fails_projection(ctx_solver):
    r = solve(ctx_solver, Field(ctx_solver.grid, np.zeros(ctx_solver.grid.shape)))
    assert r.status == "projection_failed"
    assert r.iterations == 0
    assert len(r.energy_trace) == 0


def test_solve_shift_equivariant(ctx_solver):
    # trajectories of a shifted start track the shifted trajectories: the two
    # runs differ only at round-off, which neither the acceptance tests nor the
    # line search can see, so they take the same steps throughout; both
    # converge before the first checkpoint, and the roll at exit brings the
    # shifted one home, by the 32 cells of its shift
    cfg = SolverConfig(max_iters=60)
    init = gaussian_field(ctx_solver.grid, [0.0], 1.5)
    a = solve(ctx_solver, init, cfg)
    b = solve(ctx_solver, shift(init, [4.0]), cfg)
    assert a.status == b.status == "converged" and a.iterations == b.iterations == 12
    assert moves(a) == {} and moves(b) == {12: [-32.0]}
    assert np.allclose(a.energy_trace, b.energy_trace, rtol=1e-12, atol=1e-14)
    assert np.allclose(column(a, "residual"), column(b, "residual"), rtol=0, atol=a.threshold)
    assert np.array_equal(column(a, "step"), column(b, "step"))
    diff = np.max(np.abs(b.u_final.values - a.u_final.values))
    assert diff <= 1e-12 * np.max(np.abs(a.u_final.values))


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


def test_solver_config_rejects_bad_fields():
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SolverConfig(seed=-1)


def test_multistart_failure_path(ctx_solver):
    with pytest.raises(SolveFailure):
        multistart(ctx_solver, 2, SolverConfig(max_iters=1, seed=0))
    with pytest.raises(ValueError):
        multistart(ctx_solver, 0)


def _stub_starts(monkeypatch, outcomes):
    """solve returns the next (status, level) of outcomes; the number of calls."""
    calls = []

    def fake_solve(ctx, init, cfg, known=()):
        status, level = outcomes[len(calls)]
        calls.append(init)
        return SimpleNamespace(status=status, energy_trace=np.array([level]))

    monkeypatch.setattr(solver_module, "random_initial", lambda ctx, rng: rng)
    monkeypatch.setattr(solver_module, "solve", fake_solve)
    return calls


def test_multistart_stops_at_eight_on_one_level(monkeypatch):
    # w = 1: the estimate 1*(j-1)/(j-3) is 1.5 at j = 7, below it at j = 8
    calls = _stub_starts(monkeypatch, [("converged", 0.5 * (1.0 + 1e-12 * i)) for i in range(16)])
    best, runs = multistart(None, 16)
    assert len(runs) == len(calls) == 8
    assert best is runs[0]


def test_multistart_runs_the_cap_on_two_levels(monkeypatch):
    # w = 2 holds the rule off until j = 17
    levels = [0.5, 0.5 * (1.0 + 1e-9)] * 8
    calls = _stub_starts(monkeypatch, [("converged", e) for e in levels])
    best, runs = multistart(None, 16)
    assert len(runs) == len(calls) == 16
    assert best.energy_trace[-1] == 0.5


def test_multistart_runs_every_start_when_none_converges(monkeypatch):
    calls = _stub_starts(monkeypatch, [("max_iters", 0.5)] * 12)
    with pytest.raises(SolveFailure, match="none of 12 starts"):
        multistart(None, 12)
    assert len(calls) == 12


@pytest.mark.parametrize("k", [1, 4, 7])
def test_multistart_below_eight_runs_every_start(monkeypatch, k):
    calls = _stub_starts(monkeypatch, [("converged", 0.5)] * k)
    _, runs = multistart(None, k)
    assert len(runs) == len(calls) == k


def test_multistart_counts_starts_that_did_not_converge(monkeypatch):
    # two failed starts still count: the one level stops the run at j = 8
    outcomes = [("stalled", 0.7), ("converged", 0.5), ("max_iters", 0.6)] + [("converged", 0.5)] * 13
    calls = _stub_starts(monkeypatch, outcomes)
    best, runs = multistart(None, 16)
    assert len(runs) == len(calls) == 8
    assert best is runs[1]
    # counting only the converged starts would run two more
    assert not enough_starts(runs[:7]) and enough_starts(runs)


def test_best_converged_takes_the_first_start_within_minima_rtol():
    def runs(*outcomes):
        return [SimpleNamespace(status=st, energy_trace=np.array([e])) for st, e in outcomes]

    # levels 1e-15 apart are one minimum: the first converged start wins, not the lowest bits
    tied = runs(("stalled", 0.25), ("converged", 0.5 * (1.0 + 3e-15)), ("converged", 0.5),
                ("converged", 0.5 * (1.0 + 1e-15)))
    assert best_converged(tied) is tied[1]
    # a level more than MINIMA_RTOL above the lowest is another minimum
    apart = runs(("converged", 0.5 * (1.0 + 3.0 * MINIMA_RTOL)), ("converged", 0.5 * (1.0 + 1e-15)),
                 ("converged", 0.5))
    assert best_converged(apart) is apart[1]
    assert kept_minima(apart) == apart[:2] and kept_minima(tied) == [tied[1]]


def test_solve_refuses_a_start_on_another_grid(ctx_solver):
    # another n used to fail inside numpy's broadcasting, another L to solve
    # the start's values on the problem's box and report converged
    g = ctx_solver.grid
    for other in (Grid(g.N, g.L, 2 * g.n), Grid(g.N, 2.0 * g.L, g.n)):
        with pytest.raises(ValueError, match=rf"{re.escape(str(other))}.*{re.escape(str(g))}"):
            solve(ctx_solver, gaussian_field(other, [0.0], 2.0))


def _rows(result):
    return [{k: v for k, v in row.items() if k != "t_s"} for row in result.history]


def test_later_starts_join_the_first_minimum_on_its_lattice_copy():
    # gamma_sweep.ini, seed 1: every later start moves onto a lattice copy of
    # start 0's state and stops there by its own residual test
    ctx = config_context("gamma_sweep.ini")
    best, runs = multistart(ctx, 16, SolverConfig(seed=1))
    assert len(runs) == 8 and best is runs[0]
    assert all(row["accept"] != "join" for row in runs[0].history)
    # start 0's peak sits at x = 0.5, a tie of the roll home, which ends a copy
    # at x = 0.5 or at x = -0.5: u_final is one of these, bit for bit, up to sign
    u0, cpu = runs[0].u_final.values, ctx.grid.cells_per_unit()
    copies = {(sign * np.roll(u0, k)).tobytes() for k in (0, -cpu) for sign in (1.0, -1.0)}
    for r in runs[1:]:
        last = r.history[-1]
        assert r.status == "converged" and last["accept"] == "join"
        assert last["residual"] <= r.threshold
        assert (last["step"], last["trials"], last["pairs"]) == (0.0, 0, 0)
        assert last["energy"] == runs[0].history[-1]["energy"]
        assert r.u_final.values.tobytes() in copies
        # up to the join the start ran as it runs alone
        alone = solve(ctx, random_initial(ctx, np.random.default_rng([1, runs.index(r)])),
                      SolverConfig(seed=1))
        assert _rows(r)[:-1] == _rows(alone)[:len(r.history) - 1]
        assert alone.iterations > r.iterations


def test_no_start_joins_a_higher_minimum(monkeypatch):
    # two levels: start 0, an exactly even bump at a peak of the cosine Gamma,
    # converges at 0.2705 (a saddle, kept as a minimum); the random starts reach
    # the ground level 0.26825 without ever joining the higher one
    ctx = config_context("gamma_sweep.ini")
    seeded = solver_module.random_initial
    even = gaussian_field(ctx.grid, [0.0], 2.0)
    monkeypatch.setattr(solver_module, "random_initial",
                        lambda c, rng: even if rng.bit_generator.seed_seq.entropy[1] == 0
                        else seeded(c, rng))
    _, runs = multistart(ctx, 12, SolverConfig(seed=1))
    assert len(runs) == 12 and all(r.status == "converged" for r in runs)
    high, low = runs[0].energy_trace[-1], runs[1].energy_trace[-1]
    assert high > low * (1.0 + 1e-3)
    assert kept_minima(runs) == runs[:2]
    for i, r in enumerate(runs[1:], 1):
        assert r.energy_trace[-1] == pytest.approx(low, rel=MINIMA_RTOL)
        joins = [row for row in r.history if row["accept"] == "join"]
        assert [row["energy"] for row in joins] == ([] if i == 1 else [low])
        alone = solve(ctx, seeded(ctx, np.random.default_rng([1, i])), SolverConfig(seed=1))
        n = len(r.history) - len(joins)
        assert _rows(r)[:n] == _rows(alone)[:n]


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


def test_trace_file(ctx_solver, tmp_path, monkeypatch):
    """The solve driver writes trace.ndjson from the winning run's own records."""
    import json
    from pathlib import Path

    from choquard_gs.cli import main
    from choquard_gs.experiments import drivers

    winners = []

    def recorded(*args):
        best, runs = multistart(*args)
        winners.append(best)
        return best, runs

    monkeypatch.setattr(drivers, "multistart", recorded)
    config = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out),
                 "--multistarts", "1", "--seed", "0"]) == 0
    lines = (out / "trace.ndjson").read_text().strip().splitlines()
    recs = [json.loads(line) for line in lines]
    assert len(recs) >= 2
    assert all(set(rec) == {"iter", "energy", "residual", "t_star", "step", "trials", "pairs",
                            "accept", "t_s", "shift", "qnorm"} for rec in recs)
    # each line is the winning run's record of its iterate, written as it is,
    # and metrics.csv holds three of its keys
    (best,) = winners
    assert recs == [json.loads(json.dumps(row)) for row in best.history]
    # the same start solved directly, configs/default.ini being the ctx_solver
    # problem, gives the same rows but for the wall times
    r = solve(ctx_solver, random_initial(ctx_solver, np.random.default_rng([0, 0])),
              SolverConfig(seed=0))
    assert [{**row, "t_s": 0.0} for row in r.history] == [{**rec, "t_s": 0.0} for rec in recs]
    csv = (out / "metrics.csv").read_text().splitlines()
    assert csv == ["iter,energy,residual"] + [f"{r['iter']},{r['energy']!r},{r['residual']!r}"
                                              for r in best.history]
    # the start takes no step; every later iterate comes from an accepted trial
    assert recs[0]["step"] == 0.0 and recs[0]["trials"] == 0
    assert recs[0]["pairs"] == 0 and recs[0]["accept"] is None
    assert all(rec["step"] > 0.0 and rec["trials"] >= 1 for rec in recs[1:])
    # the direction of step i rests on at most MEMORY of the i - 1 earlier steps
    assert all(0 <= rec["pairs"] <= min(MEMORY, i - 1)
               and rec["accept"] in ("armijo", "derivative")
               for i, rec in enumerate(recs[1:], start=1))
    # wall time since the solve started, one reading per iterate
    times = [rec["t_s"] for rec in recs]
    assert times[0] >= 0.0 and all(b >= a for a, b in zip(times, times[1:]))


def test_history_keys_and_views(monkeypatch, converged):
    # one record per iterate, its keys in the documented order; energy_trace
    # and shifts_applied are columns of it, the moves' and the exit roll's
    keys = ["iter", "energy", "residual", "t_star", "step", "trials", "pairs", "accept",
            "t_s", "shift", "qnorm"]
    monkeypatch.setattr(solver_module, "RECENTER_EVERY", 1)
    ctx = _vl_context(-0.5, 1.0)
    moved = solve(ctx, gaussian_field(ctx.grid, [6.0], 2.0), SolverConfig(max_iters=3))
    for r in (converged, moved):
        assert [list(row) for row in r.history] == [keys] * (r.iterations + 1)
        assert [row["iter"] for row in r.history] == list(range(r.iterations + 1))
        assert r.energy_trace.tolist() == [row["energy"] for row in r.history]
        assert [a.tolist() for a in r.shifts_applied] == [row["shift"] for row in r.history
                                                          if row["shift"] is not None]
    assert len(converged.shifts_applied) == 1 and len(moved.shifts_applied) == 3


def test_iterate_energies_dominated_by_coercivity_form(ctx_solver, converged):
    # on-manifold iterates keep energy at least the coercive quadratic floor
    qe = ctx_solver.params.q
    floor = (0.5 - 1.0 / qe) * column(converged, "qnorm")**2
    assert np.all(converged.energy_trace >= floor - 1e-10)


def test_large_box_tail_mass():
    from choquard_gs.grid import min_image
    from conftest import const_potential, make_params
    from choquard_gs.energy import build_context

    ctx = build_context(make_params(L=32.0, n=512), const_potential())
    r = solve(ctx, gaussian_field(ctx.grid, [0.0], 2.0), SolverConfig())
    assert r.status == "converged"
    g = ctx.grid
    d = np.abs(min_image(g, g.axis_coords))
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
    q, d, g = qdg(ctx, r.u_final.values)
    assert abs(q - d + g) <= 1e-10 * q


def test_transforms_per_iteration(monkeypatch):
    # the loop caches Bu and I_alpha * |u|^p: a direction costs one forward and
    # one inverse transform, a trial the Riesz pair, a recentering a fresh four;
    # L-BFGS converges in 13 iterations and 56 transforms (CG: 18 and 76). A
    # transform is one rfft or irfft with N - 1 = 1 fft or ifft stage beside it
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
    assert set(calls) == {"rfft", "fft", "ifft", "irfft"}
    assert calls["fft"] == calls["rfft"] and calls["ifft"] == calls["irfft"]
    transforms = calls["rfft"] + calls["irfft"]
    assert transforms <= 5 * r.iterations
    assert transforms <= 64


def test_transforms_per_iteration_1d(monkeypatch):
    # in 1-D the grid calls rfft/irfft directly, within the same budget;
    # L-BFGS converges in 14 iterations and 60 transforms (CG: 22 and 94)
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
    assert sum(calls.values()) <= 70


def test_cached_terms_do_not_drift(monkeypatch):
    # 310 iterations with a checkpoint every 25 on vl_sign.ini's repelling V_l:
    # only a move rebuilds the cache, and the last one comes early, so the
    # iterates after it come from the recurrences for Q and Bu alone. The
    # escape takes about 130 iterations, and the rest run at round-off, where
    # a stored pair of unresolved y would feed the cache's round-off back into
    # Bd until the recorded energy is wrong by O(1); with the tolerance and
    # its round-off floor off, the run goes on at round-off to the end
    monkeypatch.setattr(solver_module, "GRAD_TOL", 0.0)
    monkeypatch.setattr(solver_module, "ROUND_OFF", 0.0)
    ctx = config_context("vl_sign.ini")
    assert ctx.has_vl
    r = solve(ctx, random_initial(ctx, np.random.default_rng([1, 1])),
              SolverConfig(max_iters=310))
    assert r.iterations == 310
    assert moves(r) and max(moves(r)) <= 100
    fresh = energy_value(ctx, r.u_final)
    assert r.energy_trace[-1] == pytest.approx(fresh, rel=1e-12)
    q, _, _ = qdg(ctx, r.u_final.values)
    assert r.history[-1]["qnorm"] ** 2 == pytest.approx(q, rel=1e-12)


@pytest.mark.parametrize("max_iters", [5, 10])
def test_cached_terms_exact_between_checkpoints(max_iters):
    # mid-descent, before the first recentering checkpoint rebuilds the cache,
    # the recorded energy, norm and residual come from the cached terms alone;
    # verify.ini has a non-constant V and a non-zero Gamma, so every term counts
    from oracles import project_to_nehari

    ctx = config_context("verify.ini")
    init = gaussian_field(ctx.grid, [0.0], 2.0)
    r = solve(ctx, init, SolverConfig(max_iters=max_iters))
    assert r.iterations == max_iters
    start = project_to_nehari(ctx, init)[1]
    assert r.history[0]["residual"] == pytest.approx(np.sqrt(l2_norm2(grad_energy(ctx, start))),
                                                     rel=1e-12)
    assert r.energy_trace[-1] == pytest.approx(energy_value(ctx, r.u_final), rel=1e-12)
    q, _, _ = qdg(ctx, r.u_final.values)
    assert r.history[-1]["qnorm"] ** 2 == pytest.approx(q, rel=1e-12)
    fresh_residual = np.sqrt(l2_norm2(grad_energy(ctx, r.u_final)))
    assert r.history[-1]["residual"] == pytest.approx(fresh_residual, rel=1e-9)


def test_overflowing_trial_backtracks(monkeypatch):
    monkeypatch.setattr(solver_module, "STEP_INIT", 1e300)
    ctx = config_context("default.ini")
    init = gaussian_field(ctx.grid, 0, 2)
    r = solve(ctx, init, SolverConfig())
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


def test_line_search_without_accepted_trial_is_stalled(monkeypatch):
    monkeypatch.setattr(solver_module, "STEP_INIT", 50.0)
    monkeypatch.setattr(solver_module, "MAX_BACKTRACKS", 1)
    ctx = config_context("default.ini")
    r = solve(ctx, gaussian_field(ctx.grid, 0, 2), SolverConfig())
    assert r.status == "stalled"
    assert r.iterations == 0
    assert len(r.energy_trace) == 1


def test_recentering_every_iteration_into_well_converges(monkeypatch):
    # an off-manifold iterate after the shift into the well used to leave the
    # next line search without an acceptable trial; the first move is the roll
    # home and every later one a sub-cell correction
    monkeypatch.setattr(solver_module, "RECENTER_EVERY", 1)
    ctx = _vl_context(-0.5, 1.0)
    r = solve(ctx, gaussian_field(ctx.grid, [6.0], 2.0), SolverConfig())
    assert r.status == "converged"
    shifts = list(moves(r).items())
    assert shifts[0] == (1, [-24.0])
    assert all(abs(a[0]) < 1.0 for _, a in shifts[1:])
    assert np.argmax(np.abs(r.u_final.values)) == ctx.grid.n // 2


def test_random_starts_converge_with_localized_well():
    ctx = _vl_context(-0.3, 2.0)
    runs = [solve(ctx, random_initial(ctx, np.random.default_rng([3, i])), SolverConfig())
            for i in range(3)]
    assert [r.status for r in runs] == ["converged"] * 3
    levels = [r.energy_trace[-1] for r in runs]
    assert max(levels) - min(levels) <= 1e-10 * min(levels)


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


def test_lbfgs_gamma_sweep_iterations():
    # the seed-5 multistart on gamma_sweep.ini took 2517 iterations in all
    # under preconditioned steepest descent and 766 under Polak-Ribiere+ CG
    # with the same P = (A - m + min V)^-1; L-BFGS with H0 = P takes 422. The
    # level is that of the zeta-corrected Riesz weights
    ctx = config_context("gamma_sweep.ini")
    runs = _seeded_starts(ctx, 5, 16)
    assert [r.status for r in runs] == ["converged"] * 16
    assert sum(r.iterations for r in runs) <= 500
    for r in runs:
        assert r.energy_trace[-1] == pytest.approx(0.26825264473330296, rel=1e-10)


def test_solve_2d_multistart_iterations(solve_2d_starts):
    # the N=2, n=128, Gamma=0 problem of the solve-2d benchmark: 469 iterations
    # under CG with the preconditioner (A + min V)^-1, which damps the lowest
    # frequencies twice as much as (A - m + min V)^-1 at V = m = 1; 365 under
    # CG and 227 under L-BFGS with the latter
    _, runs = solve_2d_starts
    assert [r.status for r in runs] == ["converged"] * 16
    assert sum(r.iterations for r in runs) <= 260
    for r in runs:
        assert r.energy_trace[-1] == pytest.approx(0.3624162245614877, rel=1e-10)


def test_multistart_on_solve_2d_runs_the_first_eight_starts(solve_2d_starts):
    # one level among the starts: the stopping rule holds at the eighth, and
    # the runs are those of the direct solves, bit for bit
    ctx, starts = solve_2d_starts
    best, runs = multistart(ctx, 16, SolverConfig(seed=9))
    assert len(runs) == 8
    for r, direct in zip(runs, starts):
        assert (r.status, r.iterations) == (direct.status, direct.iterations)
        assert np.array_equal(r.u_final.values, direct.u_final.values)
        for key in ("energy", "t_star", "step", "residual"):
            assert np.array_equal(column(r, key), column(direct, key))
    # the eight levels agree within MINIMA_RTOL, so the first start wins
    assert best is runs[0]
    assert best.energy_trace[-1] == pytest.approx(min(r.energy_trace[-1] for r in starts),
                                                  rel=1e-10)


def _seeded_starts(ctx, seed, k):
    """The first k starts of a multistart batch with this seed, every one run."""
    cfg = SolverConfig(seed=seed)
    return [solve(ctx, random_initial(ctx, np.random.default_rng([seed, i])), cfg)
            for i in range(k)]


@pytest.fixture(scope="module")
def solve_2d_starts():
    """The context of the solve-2d benchmark problem and its 16 seed-9 starts."""
    ctx = build_context(make_params(N=2, alpha=1.0, L=8.0, n=128), const_potential())
    return ctx, _seeded_starts(ctx, 9, 16)


def _full_fft_precondition(ctx, values):
    """P g from the full complex spectrum, with the symbol of
    sqrt(-Laplacian + m^2) - m + min V built from the wavenumbers (1-D)."""
    k = 2.0 * np.pi * np.fft.fftfreq(ctx.grid.n, d=ctx.grid.h)
    m = ctx.params.m
    symbol = 1.0 / (np.sqrt(k * k + m * m) - m + ctx.v_min)
    return np.fft.ifft(np.fft.fft(values) * symbol).real


def test_restart_steps_are_preconditioned_gradient(monkeypatch):
    # the memory is empty at the start and after a translation move, so those
    # steps are u -> t*(u - tau*P grad) with the recorded tau; other steps are not
    from choquard_gs.grid import l2_inner
    from oracles import project_to_nehari

    def plain_step(ctx, u, tau):
        pg = _full_fft_precondition(ctx, grad_energy(ctx, u).values)
        cand = Field(ctx.grid, u.values - tau * pg)
        return project_to_nehari(ctx, cand)[1]

    def close(a, b, rtol=1e-10):
        return np.max(np.abs(a.values - b.values)) <= rtol * np.max(np.abs(b.values))

    def translated(u, a):
        # u(x - a h) from the full complex spectrum; its real part keeps the
        # Nyquist mode times cos(pi a)
        theta = 2.0 * np.pi * np.fft.fftfreq(u.grid.n)
        return Field(u.grid, np.fft.ifft(np.fft.fft(u.values) * np.exp(-1j * theta * a)).real)

    ctx = _vl_context(-0.5, 1.0)
    init = gaussian_field(ctx.grid, [6.0], 2.0)
    start = project_to_nehari(ctx, init)[1]
    with monkeypatch.context() as m:
        m.setattr(solver_module, "RECENTER_EVERY", 1)    # a checkpoint at every iterate
        one = solve(ctx, init, SolverConfig(max_iters=1))
        two = solve(ctx, init, SolverConfig(max_iters=2))
    assert list(moves(one)) == [1] and list(moves(two)) == [1, 2]
    assert column(one, "pairs").tolist() == [0, 0] and two.history[2]["pairs"] == 0
    # the move after step 1 is the lattice roll into the well, 24 cells
    (a1,) = one.shifts_applied
    assert a1.tolist() == [-24.0]
    after_start = plain_step(ctx, start, one.history[1]["step"])
    assert close(one.u_final, project_to_nehari(ctx, shift(after_start, a1 * ctx.grid.h))[1])
    # the move after step 2 finds the peak home and translates by a part of a cell
    a2 = two.shifts_applied[1][0]
    assert 0.0 < abs(a2) < 1.0
    after_one = plain_step(ctx, one.u_final, two.history[2]["step"])
    assert close(two.u_final, project_to_nehari(ctx, translated(after_one, a2))[1])

    # away from resets some step uses the stored curvature pairs
    ctx = config_context("verify.ini")
    init = gaussian_field(ctx.grid, [0.0], 2.0)
    runs = [solve(ctx, init, SolverConfig(max_iters=k)) for k in range(1, 13)]
    assert close(runs[0].u_final, plain_step(ctx, project_to_nehari(ctx, init)[1],
                                             runs[0].history[1]["step"]))
    assert any(not close(b.u_final, plain_step(ctx, a.u_final, b.history[-1]["step"]), rtol=1e-8)
               for a, b in zip(runs, runs[1:]))

    # every accepted step meets Armijo or, with the energy within round-off, the
    # approximate-Wolfe bound phi'(tau) <= (1 - 2 delta) slope, both recomputed
    # from grad_energy: each iterate is u1 = t*(u0 - tau*d), which gives d, the
    # slope <grad E(u0), d> and phi'(tau) = -t <grad E(u1), d>. Each truncated
    # run ends with the roll home at exit, which is undone first; no checkpoint
    # on the way moves the bump
    def unrolled(run):
        assert set(moves(run)) <= {run.iterations}
        u = run.u_final.values
        for a in run.shifts_applied:
            u = np.roll(u, -a.astype(int), axis=tuple(range(ctx.grid.N)))
        return Field(ctx.grid, u)

    delta = SUFFICIENT_DECREASE
    init = random_initial(ctx, np.random.default_rng([0, 0]))
    r = solve(ctx, init, SolverConfig())
    assert r.status == "converged"
    assert "derivative" in column(r, "accept")
    iterates = [project_to_nehari(ctx, init)[1]]
    iterates += [unrolled(solve(ctx, init, SolverConfig(max_iters=k)))
                 for k in range(1, r.iterations + 1)]
    grads = [grad_energy(ctx, u) for u in iterates]
    pairs = []    # (s, y) of the accepted steps with <s, y> > 0, oldest first
    for k, (u0, u1) in enumerate(zip(iterates, iterates[1:]), start=1):
        t, tau = r.history[k]["t_star"], r.history[k]["step"]
        d = Field(ctx.grid, (u0.values - u1.values / t) / tau)
        slope = l2_inner(grads[k - 1], d)
        dphi = -t * l2_inner(grads[k], d)
        e0, e1 = energy_value(ctx, u0), energy_value(ctx, u1)
        armijo = e1 <= e0 - delta * tau * slope
        derivative = (e1 <= e0 + 1e-13 * (1.0 + abs(e0))
                      and dphi <= (1.0 - 2.0 * delta) * slope + 1e-8 * abs(slope))
        assert armijo or derivative, k
        assert r.history[k]["accept"] == "armijo" or derivative, k
        # the recorded pair count and the two-loop recursion over the last
        # MEMORY pairs, with H0 = P, rebuild the direction while d is well resolved
        if k <= 10:
            assert r.history[k]["pairs"] == min(len(pairs), MEMORY), k
            q, alphas = grads[k - 1].values.copy(), []
            for s_i, y_i in reversed(pairs[-MEMORY:]):
                alphas.append(l2_inner(s_i, Field(ctx.grid, q)) / l2_inner(s_i, y_i))
                q -= alphas[-1] * y_i.values
            expect = _full_fft_precondition(ctx, q)
            for (s_i, y_i), a in zip(pairs[-MEMORY:], reversed(alphas)):
                beta = l2_inner(y_i, Field(ctx.grid, expect)) / l2_inner(s_i, y_i)
                expect += (a - beta) * s_i.values
            assert close(d, Field(ctx.grid, expect), rtol=1e-6), k
        s_k = Field(ctx.grid, u1.values - u0.values)
        y_k = Field(ctx.grid, grads[k].values - grads[k - 1].values)
        if l2_inner(s_k, y_k) > 0.0:
            pairs.append((s_k, y_k))


def test_quasi_newton_matches_dense_bfgs_oracle(rng):
    # on a 16-point grid H0 = P is a matrix, and each stored pair applies the
    # inverse BFGS update in the L^2 inner product <a, b> = cv a.b:
    # H <- (I - rho cv s y^T) H (I - rho cv y s^T) + rho cv s s^T, rho = 1/<s, y>,
    # oldest pair first
    from choquard_gs.energy import b_values
    from choquard_gs.problem import Descriptor, PotentialSpec
    from choquard_gs.solver import _quasi_newton

    pot = PotentialSpec(Descriptor("cosine", {"offset": 1.0, "amplitude": 0.25}),
                        Descriptor("zero"), "zero", Descriptor("zero"))
    ctx = build_context(make_params(L=4.0, n=16), pot)
    g, cv = ctx.grid, ctx.grid.cell_volume
    assert (g.N, g.L, g.n) == (1, 4.0, 16) and np.ptp(ctx.Vp.values) > 0
    h = _full_fft_precondition(ctx, np.eye(g.n))    # columns P e_j
    assert np.allclose(h, h.T, rtol=0, atol=1e-15)
    pairs = []
    for _ in range(MEMORY):
        s = rng.standard_normal(g.n)
        y = b_values(ctx, s) + 0.3 * rng.standard_normal(g.n)
        sy = cv * float(s @ y)
        assert sy > 0.0
        pairs.append((s, y, b_values(ctx, s), 1.0 / sy))
    for s, y, _, rho in pairs:
        left = np.eye(g.n) - rho * cv * np.outer(s, y)
        h = left @ h @ left.T + rho * cv * np.outer(s, s)
    grad = rng.standard_normal(g.n)
    d, bd, slope, n_pairs = _quasi_newton(ctx, grad, pairs)
    expect = h @ grad
    assert n_pairs == MEMORY
    assert np.max(np.abs(d - expect)) <= 1e-12 * np.max(np.abs(expect))
    fresh = b_values(ctx, d)
    assert np.max(np.abs(bd - fresh)) <= 1e-12 * np.max(np.abs(fresh))
    assert slope == pytest.approx(cv * float(grad @ d), rel=1e-12) and slope > 0.0

    # a pair of negative curvature, which solve never stores, turns the
    # direction uphill: the memory is cleared and d is the plain Pg
    s = rng.standard_normal(g.n)
    pairs = [(s, -s, b_values(ctx, s), -1.0 / (cv * float(s @ s)))]
    d, bd, slope, n_pairs = _quasi_newton(ctx, s, pairs)
    assert n_pairs == 0 and not pairs
    pg = _full_fft_precondition(ctx, s)
    assert np.max(np.abs(d - pg)) <= 1e-12 * np.max(np.abs(pg))
    assert slope == pytest.approx(cv * float(s @ pg), rel=1e-12) and slope > 0.0


@pytest.mark.parametrize("name, reset", [("gamma_sweep.ini", False), ("verify.ini", False),
                                         ("gamma_sweep.ini", True)])
def test_quasi_newton_leaves_grad_and_pairs_as_they_are(name, reset, rng):
    # q = g - alpha*y starts a new array, never a write into g: with a full
    # memory under constant V (gamma_sweep.ini) and under verify.ini's cosine V,
    # whose B(Pq) adds (V - min V) Pq, and after the negative-curvature reset,
    # which reads g again for the plain Pg
    from choquard_gs.energy import b_values
    from choquard_gs.grid import random_smooth_fields
    from choquard_gs.solver import _quasi_newton

    ctx = config_context(name)
    cv = ctx.grid.cell_volume
    assert (ctx._pg_shift is None) == (name == "gamma_sweep.ini")
    grad, *ss = random_smooth_fields(ctx.grid, rng, MEMORY + 1)
    pairs = []
    if reset:
        pairs.append((grad, -grad, b_values(ctx, grad), -1.0 / (cv * float(np.vdot(grad, grad)))))
    else:
        for s, e in zip(ss, random_smooth_fields(ctx.grid, rng, MEMORY)):
            y = b_values(ctx, s) + 0.3 * e
            pairs.append((s, y, b_values(ctx, s), 1.0 / (cv * float(np.vdot(s, y)))))
    before = grad.copy(), [tuple(a.copy() for a in pair[:3]) for pair in pairs]
    stored = list(pairs)
    d, bd, slope, n_pairs = _quasi_newton(ctx, grad, pairs)
    assert n_pairs == (0 if reset else MEMORY) and slope > 0.0
    assert grad.tobytes() == before[0].tobytes()
    for pair, kept in zip(stored, before[1]):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(pair, kept))


def test_solve_leaves_its_start_as_it_is(rng):
    # the solver scales, shifts and differences its own arrays in place, never
    # the caller's; 30 iterations on vl_sign.ini pass one translation checkpoint
    ctx = config_context("vl_sign.ini")
    init = random_initial(ctx, rng)
    kept = init.values.copy()
    result = solve(ctx, init, SolverConfig(max_iters=30))
    assert result.iterations > RECENTER_EVERY
    assert init.values.tobytes() == kept.tobytes()


def test_every_direction_is_a_descent_direction(monkeypatch):
    # <g, d> > 0 on every step, recomputed from the returned d, on the
    # gamma_sweep.ini multistart and on vl_sign.ini's escapes with their moves
    quasi_newton = solver_module._quasi_newton
    slopes = []

    def checked(ctx, grad, pairs):
        d, bd, slope, n_pairs = quasi_newton(ctx, grad, pairs)
        slopes.append(ctx.grid.cell_volume * float(np.vdot(grad, d)))
        assert slope == pytest.approx(slopes[-1], rel=1e-12)
        return d, bd, slope, n_pairs

    monkeypatch.setattr(solver_module, "_quasi_newton", checked)
    runs = _seeded_starts(config_context("gamma_sweep.ini"), 5, 16)
    ctx = config_context("vl_sign.ini")
    runs += [solve(ctx, random_initial(ctx, np.random.default_rng([0, i])), SolverConfig())
             for i in range(4)]
    assert len(slopes) == sum(r.iterations for r in runs) > 0
    assert min(slopes) > 0.0
    assert max(row["pairs"] for r in runs for row in r.history) == MEMORY


def test_off_node_starts_converge_at_node_level():
    # translation is the soft mode: without the move both seed-3 starts crawled
    # towards the node under CG and ended max_iters 5e-9 and 1e-8 above the
    # level of the bump centred on a node
    ctx = build_context(make_params(N=2, alpha=1.0, L=4.0, n=32), const_potential())
    node = solve(ctx, gaussian_field(ctx.grid, [0.0, 0.0], 1.0), SolverConfig())
    assert node.status == "converged"
    _, runs = multistart(ctx, 2, SolverConfig(seed=3, max_iters=3000))
    assert [r.status for r in runs] == ["converged"] * 2
    for r in runs:
        assert r.energy_trace[-1] == pytest.approx(node.energy_trace[-1], rel=1e-11)


def test_escape_regime_random_starts_iterations():
    # vl_sign.ini's repelling V_l: the bump escapes by translation, which took
    # 20923 iterations over these 16 starts without the translation move and
    # 2879 with it under CG; L-BFGS takes 1786
    ctx = config_context("vl_sign.ini")
    runs = [solve(ctx, random_initial(ctx, np.random.default_rng([seed, i])),
                  SolverConfig(seed=seed)) for seed in range(4) for i in range(4)]
    assert [r.status for r in runs] == ["converged"] * 16
    assert sum(r.iterations for r in runs) <= 2200
    levels = [r.energy_trace[-1] for r in runs]
    assert max(levels) - min(levels) <= 1e-12 * min(levels)


def test_translation_gradient_matches_finite_differences():
    # the move's descent direction: grad_a E = -<grad E, d_i u>, per cell, is the
    # derivative of the energy along S_a; verify.ini's V and Gamma make it non-zero
    from choquard_gs.grid import Translations, dft

    ctx = config_context("verify.ini")
    g = ctx.grid
    tr = Translations(g)
    u = gaussian_field(g, np.full(g.N, 0.3), 0.5).values
    grad_a = -g.cell_volume * tr.slope(dft(u), dft(grad_energy(ctx, Field(g, u)).values))
    assert np.all(np.abs(grad_a) > 1e-3)
    eps = 1e-4
    for axis, e_i in enumerate(np.eye(g.N)):
        e_plus, e_minus = (energy_value(ctx, Field(g, tr.shifted(dft(u), s * eps * e_i)[0]))
                           for s in (1.0, -1.0))
        assert (e_plus - e_minus) / (2.0 * eps) == pytest.approx(grad_a[axis], rel=1e-6)


def test_translation_move_ignores_round_off_gains():
    # at a converged state a move can lower the energy only by round-off, and
    # such a move would throw away the curvature memory for nothing: a move
    # counts only when it gains more than the line search's margin
    # 1e-14 * (1 + |E|); without that margin three of these eight states
    # moved, by gains of 1.2e-16, 2.4e-16 and 4.8e-16 relative
    from choquard_gs.grid import Translations
    from choquard_gs.solver import _translation_move

    ctx = config_context("verify.ini")
    tr = Translations(ctx.grid)
    for i in range(8):
        r = solve(ctx, random_initial(ctx, np.random.default_rng([5, i])), SolverConfig())
        assert r.status == "converged"
        e = energy_value(ctx, r.u_final)
        move = _translation_move(ctx, tr, r.u_final.values,
                                 grad_energy(ctx, r.u_final).values, e)
        assert move is None or move[1][-1] < e - 1e-14 * (1.0 + abs(e)), i

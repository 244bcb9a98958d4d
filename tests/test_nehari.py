from pathlib import Path

import numpy as np
import pytest

from choquard_gs.energy import (
    D_BOUND_SAMPLES,
    energy_value,
    fiber_residual_from_qdg,
    qdg,
)
from choquard_gs.grid import (
    Field,
    gaussian_field,
    random_smooth_field,
    random_smooth_fields,
    shift,
)
from conftest import config_context, count_calls
from oracles import ground_level, j_conditions_per_field, project_to_nehari
from choquard_gs.nehari import (
    NehariProjectionError,
    check_J_conditions,
    fiber_scan,
    fiber_scan_csv,
    nehari_t_from_qdg,
)


def test_closed_form_projection_without_gamma(ctx_const, rng):
    u = random_smooth_field(ctx_const.grid, rng)
    q, d, g = qdg(ctx_const, u.values)
    assert g == 0.0
    p = ctx_const.params.p
    t_star, _ = project_to_nehari(ctx_const, u)
    assert t_star == pytest.approx((q / d) ** (1.0 / (2 * p - 2)), rel=1e-10)


def test_projection_residual_small(ctx_gamma, rng):
    for _ in range(10):
        u = random_smooth_field(ctx_gamma.grid, rng)
        t_star, u_star = project_to_nehari(ctx_gamma, u)
        q, d, g = qdg(ctx_gamma, u_star.values)
        resid = fiber_residual_from_qdg(ctx_gamma, q, d, g)
        assert abs(resid) <= 1e-10 * q


def test_projection_of_manifold_point_is_identity(ctx_gamma, rng):
    u = random_smooth_field(ctx_gamma.grid, rng)
    _, u_star = project_to_nehari(ctx_gamma, u)
    t_again, _ = project_to_nehari(ctx_gamma, u_star)
    assert abs(t_again - 1.0) <= 1e-8


def test_projection_scaling_rule(ctx_gamma, rng):
    u = random_smooth_field(ctx_gamma.grid, rng)
    t1, _ = project_to_nehari(ctx_gamma, u)
    t3, _ = project_to_nehari(ctx_gamma, Field(ctx_gamma.grid, 3.0 * u.values))
    assert t3 == pytest.approx(t1 / 3.0, rel=1e-9)


def test_projection_commutes_with_shift(ctx_gamma, rng):
    u = random_smooth_field(ctx_gamma.grid, rng)
    z = [2.0]
    _, a = project_to_nehari(ctx_gamma, shift(u, z))
    _, b = project_to_nehari(ctx_gamma, u)
    b = shift(b, z)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(b.values))


def test_projection_rejects_zero(ctx_const):
    with pytest.raises(NehariProjectionError):
        project_to_nehari(ctx_const, Field(ctx_const.grid, np.zeros(ctx_const.grid.shape)))


def test_scalar_solver_rejects_degenerate():
    with pytest.raises(NehariProjectionError):
        nehari_t_from_qdg(1.0, 0.0, 0.5, 2.0, 3.0)
    with pytest.raises(NehariProjectionError):
        nehari_t_from_qdg(0.0, 1.0, 0.0, 2.0, 3.0)


def test_scalar_solver_rejects_non_finite_triple():
    # an overflowed evaluation must not come back as an infinite scaling
    for triple in [(np.inf, 1.0, 0.0), (1.0, np.inf, 0.5), (1.0, 1.0, np.inf), (np.nan, 1.0, 0.0)]:
        with pytest.raises(NehariProjectionError, match="non-finite"):
            nehari_t_from_qdg(*triple, 2.0, 3.0)


@pytest.mark.parametrize("triple", [(1.0, 1e-300, 0.5), (1.0, 1e-320, 0.0), (1e-300, 1e300, 0.0)])
def test_scaling_out_of_float_range_is_a_projection_error(ctx_const, triple):
    # t^(2p-2) overflows while the bracket grows, q/d overflows to an infinite
    # closed form, or underflows to t = 0: none escapes as OverflowError or as
    # a scaling that is not positive and finite
    with pytest.raises(NehariProjectionError):
        nehari_t_from_qdg(*triple, 2.0, 3.0)
    with pytest.raises(NehariProjectionError):
        fiber_scan(ctx_const, tuple([x] for x in triple), 2.0, 5)


def test_scalar_solver_against_bisection_oracle(rng):
    # frozen oracle: plain bisection on the fiber stationarity scalar
    p, qe = 2.0, 3.0
    for _ in range(50):
        q = float(rng.uniform(0.1, 10.0))
        d = float(rng.uniform(0.1, 10.0))
        g = float(rng.uniform(0.0, 10.0))

        def resid(t):
            return q - t ** (2 * p - 2) * d + t ** (qe - 2) * g

        lo, hi = 1e-9, 1.0
        while resid(hi) > 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if resid(mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert nehari_t_from_qdg(q, d, g, p, qe) == pytest.approx(oracle, rel=1e-9)


def test_fiber_scan_reference_maximum(ctx_const, rng):
    # p = 2, Gamma = 0: max of E(t u) equals Q^2/(4 D)
    u = random_smooth_field(ctx_const.grid, rng)
    q, d, _ = qdg(ctx_const, u.values)
    t_star, _ = project_to_nehari(ctx_const, u)
    scan = fiber_scan(ctx_const, qdg(ctx_const, u.values[None]), 4.0, 41)
    assert np.max(scan.e_values) <= q * q / (4 * d) + 1e-12
    peak = energy_value(ctx_const, Field(ctx_const.grid, t_star * u.values))
    assert peak == pytest.approx(q * q / (4 * d), rel=1e-11)


def test_fiber_scan_sign_pattern(ctx_gamma, rng):
    for _ in range(10):
        u = random_smooth_field(ctx_gamma.grid, rng)
        _, u_star = project_to_nehari(ctx_gamma, u)
        scan = fiber_scan(ctx_gamma, qdg(ctx_gamma, u.values[None]), 8.0, 33)
        assert scan.slope_sign_ok.tolist() == [True]
        assert scan.max_bracket_contains_t_star().tolist() == [True]
        peak = energy_value(ctx_gamma, u_star)
        assert np.all(scan.e_values <= peak * (1 + 1e-12))


def test_fiber_scan_rejects_nonpositive_grid(ctx_const, rng):
    u = random_smooth_field(ctx_const.grid, rng)
    for spread in (-1.0, 1.0):    # negative scalings, an empty bracket
        with pytest.raises(ValueError):
            fiber_scan(ctx_const, qdg(ctx_const, u.values[None]), spread, 3)


def test_fiber_scan_csv_format(ctx_gamma, rng):
    u = random_smooth_field(ctx_gamma.grid, rng)
    scan = fiber_scan(ctx_gamma, qdg(ctx_gamma, u.values[None]), 2.0, 3)
    text = fiber_scan_csv(scan)
    lines = text.strip().splitlines()
    assert lines[0] == "t,energy,residual"
    assert len(lines) == 4
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_ground_level_single_candidate(ctx_const):
    u = gaussian_field(ctx_const.grid, [0.0], 2.0)
    c, argmin = ground_level(ctx_const, [u])
    _, u_star = project_to_nehari(ctx_const, u)
    assert c == pytest.approx(energy_value(ctx_const, u_star), rel=1e-12)
    assert np.array_equal(argmin.values, u_star.values)


def test_ground_level_shift_closed_candidates(ctx_const):
    u = gaussian_field(ctx_const.grid, [0.0], 2.0)
    c1, _ = ground_level(ctx_const, [u])
    c2, _ = ground_level(ctx_const, [u, shift(u, [4.0]), shift(u, [-6.0])])
    assert c2 == pytest.approx(c1, rel=1e-12)


def test_ground_level_positive_randomized(ctx_gamma, rng):
    for _ in range(10):
        cands = [random_smooth_field(ctx_gamma.grid, rng) for _ in range(3)]
        c, _ = ground_level(ctx_gamma, cands)
        assert c > 0


def test_ground_level_empty_and_degenerate(ctx_const):
    with pytest.raises(ValueError):
        ground_level(ctx_const, [])
    zero = Field(ctx_const.grid, np.zeros(ctx_const.grid.shape))
    with pytest.raises(NehariProjectionError):
        ground_level(ctx_const, [zero])


def test_j_conditions_on_random_fields(ctx_gamma, rng):
    rep = check_J_conditions(ctx_gamma, random_smooth_fields(ctx_gamma.grid, rng, 50))
    assert rep.j1_ok and rep.j2_ok and rep.j3_ok and rep.j4_ok
    assert rep.j3_violations == 0
    assert rep.radius > 0
    assert rep.j1_min_ratio >= 1.0 - 1e-9


def test_j_conditions_evaluate_each_field_once(ctx_gamma, rng, monkeypatch):
    # one (Q, D, G) evaluation on the samples' stack, one on the D bound's
    # fields, and no per-field one
    fields = random_smooth_fields(ctx_gamma.grid, rng, 5)
    stacked = count_calls(monkeypatch, qdg)
    assert check_J_conditions(ctx_gamma, fields).j3_ok
    assert [vals.ndim for _, vals in stacked] == [2, 2]
    assert sorted(len(vals) for _, vals in stacked) == [len(fields), D_BOUND_SAMPLES]
    samples, = [vals for _, vals in stacked if len(vals) == len(fields)]
    assert samples.tobytes() == fields.tobytes()


def test_j_conditions_take_only_a_stack(ctx_gamma, rng):
    # a field, a list of fields, the wrong trailing shape or an empty stack is
    # no stack: the error names the shape a stack must have, before any evaluation
    stack = random_smooth_fields(ctx_gamma.grid, rng, 5)
    one = check_J_conditions(ctx_gamma, stack[:1])
    assert one.j1_ok and one.j2_ok and one.j3_ok and one.j4_ok
    field = Field(ctx_gamma.grid, stack[0])
    for bad in (field, [field], list(stack), stack[0], stack[:, :-2], stack[None]):
        with pytest.raises(ValueError, match=r"\(k, \*\(128,\)\)"):
            check_J_conditions(ctx_gamma, bad)
    with pytest.raises(ValueError, match=r"non-empty \(k, \*\(128,\)\) .* shape \(0, 128\)"):
        check_J_conditions(ctx_gamma, stack[:0])
    with pytest.raises(ValueError, match="nonzero"):
        check_J_conditions(ctx_gamma, np.stack([stack[0], 0.0 * stack[1]]))


def test_fiber_scan_driver_evaluates_its_field_once(tmp_path, monkeypatch):
    from choquard_gs.experiments import drivers
    from choquard_gs.experiments.config import ExperimentConfig

    config = Path(__file__).resolve().parents[1] / "configs" / "smoke.ini"
    calls = count_calls(monkeypatch, qdg)
    ecfg = ExperimentConfig("fiber-scan", str(config), out_dir=str(tmp_path),
                            tolerance_scale=10.0)
    assert drivers.run(ecfg) == 0
    # one evaluation, on a stack of one
    assert [(len(vals), vals.ndim) for _, vals in calls] == [(1, 2)]
    rows = (tmp_path / "fiber_scan.csv").read_text().splitlines()
    assert len(rows) == 42


def test_fiber_scan_csv_holds_the_scan_numbers(tmp_path, monkeypatch):
    from choquard_gs.experiments import drivers
    from choquard_gs.experiments.config import ExperimentConfig

    config = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
    calls = count_calls(monkeypatch, fiber_scan_csv)
    assert drivers.run(ExperimentConfig("fiber-scan", str(config), out_dir=str(tmp_path))) == 0
    (scan,), = calls
    rows = (tmp_path / "fiber_scan.csv").read_text().splitlines()[1:]
    cells = np.array([[float(c) for c in row.split(",")] for row in rows])
    want = np.column_stack([scan.t_values[0], scan.e_values[0], scan.residuals[0]])
    assert cells.shape == want.shape == (41, 3)
    assert cells.tobytes() == want.tobytes()


def test_fiber_scan_csv_needs_only_the_scan(ctx_gamma, rng):
    # the residual row is the fiber residual evaluated on the scan's t row
    u = random_smooth_field(ctx_gamma.grid, rng)
    q, d, g = qdg(ctx_gamma, u.values[None])
    scan = fiber_scan(ctx_gamma, (q, d, g), 2.0, 3)
    want = fiber_residual_from_qdg(ctx_gamma, q[0], d[0], g[0], scan.t_values[0])
    assert scan.residuals[0].tobytes() == want.tobytes()


def test_j2_growth_is_monotone(ctx_gamma, rng):
    # the nonlinear part over t^q grows across each sampled decade
    p, qe = ctx_gamma.params.p, ctx_gamma.params.q
    for _ in range(10):
        u = random_smooth_field(ctx_gamma.grid, rng)
        _, d, g = qdg(ctx_gamma, u.values)
        vals = [t ** (2 * p - qe) * d / (2 * p) - g / qe for t in (10, 100, 1000)]
        assert vals[2] > vals[1] > vals[0]


def test_j_conditions_reject_zero_sample(ctx_gamma):
    with pytest.raises(ValueError):
        check_J_conditions(ctx_gamma, np.zeros((1,) + ctx_gamma.grid.shape))


def test_projection_unique_slope_sign_change(ctx_gamma, rng):
    # discrete fiber slope changes sign exactly once on refinements of the grid
    u = random_smooth_field(ctx_gamma.grid, rng)
    for n_pts in (17, 65, 257):
        scan = fiber_scan(ctx_gamma, qdg(ctx_gamma, u.values[None]), 5.0, n_pts)
        d = np.diff(scan.e_values[0])
        signs = np.sign(d[d != 0])
        flips = np.sum(signs[1:] != signs[:-1])
        assert flips == 1


CONFIG_NAMES = ["default.ini", "gamma_sweep.ini", "smoke.ini", "verify.ini", "vl_sign.ini"]


@pytest.fixture(scope="module", params=CONFIG_NAMES)
def config_ctx(request):
    return config_context(request.param)


def test_stacked_fiber_scan_rows_are_single_scans(config_ctx):
    # row i of a k-stack scan is the scan of a stack of one, bit for bit
    fields = random_smooth_fields(config_ctx.grid, np.random.default_rng(7), 50)
    q, d, g = qdg(config_ctx, fields)
    scan = fiber_scan(config_ctx, (q, d, g), 8.0, 33)
    assert scan.t_values.shape == scan.e_values.shape == scan.residuals.shape == (50, 33)
    brackets = scan.max_bracket_contains_t_star()
    for i in range(50):
        one = fiber_scan(config_ctx, (q[i:i + 1], d[i:i + 1], g[i:i + 1]), 8.0, 33)
        for name in ("t_values", "e_values", "residuals", "t_star", "residual_at_t_star",
                     "slope_sign_ok"):
            assert getattr(one, name).tobytes() == getattr(scan, name)[i:i + 1].tobytes(), name
        assert one.max_bracket_contains_t_star().tolist() == [brackets[i]]


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_j_conditions_match_the_per_field_oracle(config_ctx, seed):
    fields = random_smooth_fields(config_ctx.grid, np.random.default_rng(seed), 50)
    got = check_J_conditions(config_ctx, fields)
    want = j_conditions_per_field(config_ctx, fields)
    for name in ("radius", "j1_ok", "j2_ok", "j3_ok", "j3_violations", "j4_ok"):
        assert getattr(got, name) == getattr(want, name), name
    # array ** and float ** differ in the last bit; the margin, a difference,
    # moves by up to 1.004e-15 relative (gamma_sweep.ini, seed 3, where the
    # stacked value is the one within 1.3e-16 of the exact rational margin)
    assert got.j1_min_ratio == pytest.approx(want.j1_min_ratio, rel=1e-15, abs=0.0)
    assert got.j4_min_margin == pytest.approx(want.j4_min_margin, rel=2e-15, abs=0.0)


def test_j_conditions_scan_every_fiber_at_once(ctx_gamma, rng, monkeypatch):
    # one stacked scan for the k samples, and one root solve per sample
    fields = random_smooth_fields(ctx_gamma.grid, rng, 9)
    scans = count_calls(monkeypatch, fiber_scan)
    roots = count_calls(monkeypatch, nehari_t_from_qdg)
    assert check_J_conditions(ctx_gamma, fields).j3_ok
    (_, triples, spread, num), = scans
    assert [len(x) for x in triples] == [9, 9, 9] and (spread, num) == (8.0, 33)
    assert len(roots) == 9


def test_fiber_scan_takes_only_stacks(ctx_gamma, rng):
    # scalar triples or rows of unequal length are no stack of triples
    q, d, g = qdg(ctx_gamma, random_smooth_fields(ctx_gamma.grid, rng, 2))
    for bad in ((q[0], d[0], g[0]), (q, d, g[:1]), (q[None], d[None], g[None])):
        with pytest.raises(ValueError, match="three arrays of k values"):
            fiber_scan(ctx_gamma, bad, 2.0, 3)


def test_fiber_scan_csv_takes_one_ray(ctx_gamma, rng):
    triples = qdg(ctx_gamma, random_smooth_fields(ctx_gamma.grid, rng, 2))
    scan = fiber_scan(ctx_gamma, triples, 2.0, 3)
    with pytest.raises(ValueError, match=r"one ray, got t_values of shape \(2, 3\)"):
        fiber_scan_csv(scan)

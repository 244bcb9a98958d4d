import numpy as np
import pytest

from choquard_gs.energy import (
    D_BOUND_SAFETY,
    D_BOUND_SAMPLES,
    D_BOUND_SEED,
    EnergyContext,
    b_values,
    brezis_lieb_check,
    build_context,
    direction_and_b,
    energy_from_qdg,
    energy_report,
    energy_value,
    estimate_d_bound,
    fiber_residual_from_qdg,
    gamma_values,
    grad_energy,
    grad_values,
    nonlocal_terms,
    qdg,
)
from choquard_gs.grid import (
    Field,
    gaussian_field,
    l2_inner,
    l2_norm2,
    random_smooth_field,
    random_smooth_fields,
    shift,
)
from choquard_gs.problem import ConfigError
from conftest import config_context, const_potential, count_calls, gamma_potential, make_params
from oracles import (
    brezis_lieb_per_field,
    directional_derivative_fd,
    nonlinear_terms_plain,
    qdg_per_field,
    random_smooth_field_per_bump,
)


def zero_field(ctx):
    return Field(ctx.grid, np.zeros(ctx.grid.shape))


def test_q_boundary_constant_field(ctx_const):
    # symbol at zero frequency cancels the mass: Q = V0 c^2 (2L)^N
    g = ctx_const.grid
    c = 1.5
    q = qdg(ctx_const, np.full(g.shape, c))[0]
    assert q == pytest.approx(1.0 * c**2 * (2 * g.L) ** g.N, rel=1e-12)


def test_q_boundary_cosine_mode(ctx_const):
    g = ctx_const.grid
    m = ctx_const.params.m
    xi1 = np.pi / g.L
    u = Field(g, np.cos(xi1 * g.axis_coords))
    expected = (np.sqrt(xi1**2 + m**2) - m + 1.0) * (2 * g.L) ** g.N / 2.0
    assert qdg(ctx_const, u.values)[0] == pytest.approx(expected, rel=1e-12)


def test_q_boundary_zero(ctx_const):
    assert qdg(ctx_const, zero_field(ctx_const).values)[0] == 0.0


def test_q_boundary_positive_definite(ctx_const, rng):
    for _ in range(10):
        u = random_smooth_field(ctx_const.grid, rng)
        assert qdg(ctx_const, u.values)[0] > 0


def test_d_zero_and_homogeneity(ctx_const, rng):
    assert qdg(ctx_const, zero_field(ctx_const).values)[1] == 0.0
    u = random_smooth_field(ctx_const.grid, rng)
    p = ctx_const.params.p
    d1 = qdg(ctx_const, u.values)[1]
    d2 = qdg(ctx_const, 2.0 * u.values)[1]
    assert d2 == pytest.approx(2.0 ** (2 * p) * d1, rel=1e-11)
    assert d1 >= 0


def test_d_matches_brute_double_sum():
    params = make_params(n=16, L=4.0)
    ctx = build_context(params, const_potential())
    rng = np.random.default_rng(5)
    u = Field(ctx.grid, rng.standard_normal(16))
    h = ctx.grid.h
    gpow = np.abs(u.values) ** ctx.params.p
    S = ctx.kernel.kernel_samples
    brute = 0.0
    for i in range(16):
        for j in range(16):
            brute += h * h * S[(i - j) % 16] * gpow[i] * gpow[j]
    assert qdg(ctx, u.values)[1] == pytest.approx(brute, abs=1e-10, rel=1e-10)


def test_d_shift_equivariance(ctx_const, rng):
    u = random_smooth_field(ctx_const.grid, rng)
    moved = shift(u, [5.0])
    assert qdg(ctx_const, moved.values)[1] == pytest.approx(qdg(ctx_const, u.values)[1], rel=1e-12)


def test_energy_zero_field(ctx_gamma):
    rep = energy_report(ctx_gamma, zero_field(ctx_gamma))
    assert rep.q_val == rep.d_val == rep.gamma_term == rep.e_val == 0.0
    assert rep.e_per_val == 0.0 and rep.grad_norm == 0.0


def test_energy_fiber_closed_form(ctx_const, rng):
    # Gamma = 0: E(t u) = t^2 Q/2 - t^(2p) D/(2p) at twenty scalings
    u = random_smooth_field(ctx_const.grid, rng)
    q, d, g = qdg(ctx_const, u.values)
    assert g == 0.0
    p = ctx_const.params.p
    for t in np.linspace(0.1, 2.0, 20):
        direct = energy_value(ctx_const, Field(ctx_const.grid, t * u.values))
        closed = t**2 * q / 2.0 - t ** (2 * p) * d / (2 * p)
        assert direct == pytest.approx(closed, rel=1e-11, abs=1e-11)


def test_energy_shift_invariance_periodic_problem(ctx_gamma, rng):
    u = random_smooth_field(ctx_gamma.grid, rng)
    e0 = energy_value(ctx_gamma, u)
    e1 = energy_value(ctx_gamma, shift(u, [3.0]))
    assert e1 == pytest.approx(e0, rel=1e-12)
    assert energy_report(ctx_gamma, shift(u, [3.0])).e_per_val == pytest.approx(
        energy_report(ctx_gamma, u).e_per_val, rel=1e-12)


def test_energy_report_consistency(ctx_gamma, rng):
    u = random_smooth_field(ctx_gamma.grid, rng)
    rep = energy_report(ctx_gamma, u)
    p, qe = ctx_gamma.params.p, ctx_gamma.params.q
    assert rep.e_val == pytest.approx(
        rep.q_val / 2 - rep.d_val / (2 * p) + rep.gamma_term / qe, rel=1e-12)
    assert rep.nehari_residual == pytest.approx(
        rep.q_val - rep.d_val + rep.gamma_term, rel=1e-12)
    data = rep.to_json()
    assert '"e_val"' in data and '"grad_norm"' in data


def test_energy_per_equals_energy_without_vl(ctx_const, rng):
    u = random_smooth_field(ctx_const.grid, rng)
    assert energy_report(ctx_const, u).e_per_val == energy_value(ctx_const, u)


def test_energy_per_with_localized_part(rng):
    from choquard_gs.problem import Descriptor, PotentialSpec

    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}),
                        Descriptor("gaussian-bump", {"amplitude": -0.3, "width": 2.0}),
                        "negative", Descriptor("zero"))
    ctx = build_context(make_params(), pot)
    u = random_smooth_field(ctx.grid, rng)
    vl_term = float(ctx.grid.cell_volume * np.sum(ctx.Vl.values * u.values**2))
    assert energy_report(ctx, u).e_per_val == pytest.approx(
        energy_value(ctx, u) - 0.5 * vl_term, rel=1e-12)


def test_grad_zero_field(ctx_gamma):
    g = grad_energy(ctx_gamma, zero_field(ctx_gamma))
    assert not np.any(g.values)


def test_grad_matches_finite_differences(ctx_gamma, rng):
    for _ in range(10):
        u = random_smooth_field(ctx_gamma.grid, rng)
        w = random_smooth_field(ctx_gamma.grid, rng)
        grad = grad_energy(ctx_gamma, u)
        analytic = l2_inner(grad, w)
        fd = directional_derivative_fd(ctx_gamma, u, w, eps=1e-5)
        assert fd == pytest.approx(analytic, rel=1e-6)


def test_grad_pairing_identity(ctx_gamma, rng):
    # E'(u)(u) recombines from the scalar triple
    u = random_smooth_field(ctx_gamma.grid, rng)
    q, d, g = qdg(ctx_gamma, u.values)
    pairing = l2_inner(grad_energy(ctx_gamma, u), u)
    assert pairing == pytest.approx(q - d + g, rel=1e-10, abs=1e-10)


def test_d_bound_regression(ctx_const, rng):
    C = estimate_d_bound(ctx_const)
    assert C > 0
    assert estimate_d_bound(ctx_const) == C  # fixed seed: the same bits again
    p = ctx_const.params.p
    for _ in range(20):
        u = random_smooth_field(ctx_const.grid, rng)
        q = qdg(ctx_const, u.values)[0]
        assert qdg(ctx_const, u.values)[1] / (2 * p) <= C * q**p


@pytest.mark.parametrize("N, n, p, alpha, q", [(1, 64, 2.0, 0.5, 3.0), (1, 64, 3.0, 0.5, 3.0),
                                             (2, 16, 2.0, 1.5, 3.0), (2, 16, 3.0, 1.5, 3.0),
                                             (3, 8, 2.0, 1.5, 2.5)])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_stacked_qdg_matches_the_per_field_oracle(N, n, p, alpha, q, gamma):
    params = make_params(N=N, n=n, L=4.0, p=p, alpha=alpha, q=q)
    ctx = build_context(params, gamma_potential(gamma) if gamma else const_potential())
    assert ctx.has_gamma == bool(gamma)
    stack = random_smooth_fields(ctx.grid, np.random.default_rng(3), 6)
    rows = [qdg_per_field(ctx, Field(ctx.grid, row)) for row in stack]
    want = np.array(rows).T
    got = np.array(qdg(ctx, stack))
    assert got.shape == (3, 6)
    assert got.tobytes() == want.tobytes()
    # D and G alone take the stack the same way, one value per row
    assert nonlocal_terms(ctx, stack)[1].tobytes() == want[1].tobytes()
    assert gamma_values(ctx, stack).tobytes() == want[2].tobytes()
    # one field's values are the one-row case, in Python floats
    for vals, (q_, d_, g_) in zip(stack, rows):
        one = (*qdg(ctx, vals), nonlocal_terms(ctx, vals)[1], gamma_values(ctx, vals))
        assert one == (q_, d_, g_, d_, g_)
        assert all(type(x) is float for x in one)


@pytest.mark.parametrize("N, n, alpha", [(1, 64, 0.5), (2, 16, 1.5)])
@pytest.mark.parametrize("p, q", [(2.0, 3.0), (2.0, 2.5), (3.0, 3.0), (3.0, 2.5)])
def test_exponent_shortcuts_match_the_plain_power_oracle(N, n, alpha, p, q):
    # |u|^e is a square for e = 2, |u| for e = 1 and no factor for e = 0, on
    # one field and on a stack: the bits of np.abs(u) ** e, with exact zeros
    # (of either sign) and sign changes among the values
    ctx = build_context(make_params(N=N, n=n, L=4.0, p=p, alpha=alpha, q=q), gamma_potential(0.5))
    stack = random_smooth_fields(ctx.grid, np.random.default_rng(5), 4)
    flat = stack.reshape(len(stack), -1)
    flat[:, ::7] = 0.0
    flat[:, 3::11] = -0.0
    assert np.any(stack > 0) and np.any(stack < 0) and np.any(np.signbit(stack) & (stack == 0))
    want = [nonlinear_terms_plain(ctx, vals) for vals in stack]
    for vals, (phi_w, d_w, g_w, grad_w) in zip(stack, want):
        phi, d = nonlocal_terms(ctx, vals)
        assert phi.tobytes() == phi_w.tobytes() and d == d_w
        assert gamma_values(ctx, vals) == g_w
        assert grad_values(ctx, vals, b_values(ctx, vals), phi).tobytes() == grad_w.tobytes()
    phi, d = nonlocal_terms(ctx, stack)
    assert phi.tobytes() == np.array([w[0] for w in want]).tobytes()
    assert d.tolist() == [w[1] for w in want]
    assert gamma_values(ctx, stack).tolist() == [w[2] for w in want]
    grad = grad_values(ctx, stack, b_values(ctx, stack), phi)
    assert grad.tobytes() == np.array([w[3] for w in want]).tobytes()


@pytest.mark.parametrize("name", ["ctx_const", "ctx_gamma"])
def test_d_bound_matches_the_per_field_estimate(name, request):
    # the largest per-field ratio D/(2p Q^p), Python floats throughout
    ctx = request.getfixturevalue(name)
    rng, p, best = np.random.default_rng(D_BOUND_SEED), ctx.params.p, 0.0
    for _ in range(D_BOUND_SAMPLES):
        q, d, _ = qdg_per_field(ctx, random_smooth_field_per_bump(ctx.grid, rng))
        best = max(best, d / (2.0 * p * q**p))
    assert estimate_d_bound(ctx) == D_BOUND_SAFETY * best


def test_qdg_rejects_what_is_not_values_or_a_stack(ctx_gamma, rng):
    g = ctx_gamma.grid
    u = random_smooth_field(g, rng)
    for bad in (u, u.values[:10], u.values[None, :10], np.zeros((0,) + g.shape), [u.values]):
        with pytest.raises(ValueError, match=rf"shape \({g.n},\) or a non-empty \(k, \*\({g.n},\)\)"):
            qdg(ctx_gamma, bad)


def test_brezis_lieb_trivial_cases(ctx_const):
    g = ctx_const.grid
    u0 = gaussian_field(g, [0.0], 1.0)
    zero = zero_field(ctx_const)
    shifts = [[2.0], [4.0]]
    assert all(d <= 1e-12 for d in brezis_lieb_check(ctx_const, u0, zero, shifts))
    assert all(d <= 1e-12 for d in brezis_lieb_check(ctx_const, zero, u0, shifts))
    assert brezis_lieb_check(ctx_const, u0, u0, []) == []


@pytest.mark.parametrize("name", ["default.ini", "gamma_sweep.ini", "smoke.ini", "verify.ini",
                                  "vl_sign.ini"])
def test_brezis_lieb_stack_matches_the_per_field_oracle(name, monkeypatch):
    # on the verify suite's own fields and shifts, the one stacked D of the
    # 2k + 1 fields gives the per-field deltas bit for bit, as Python floats
    from choquard_gs import energy
    from choquard_gs.experiments import drivers
    from choquard_gs.experiments.config import Report

    ctx = config_context(name)
    calls = count_calls(monkeypatch, energy.brezis_lieb_check)
    d_calls = count_calls(monkeypatch, energy.nonlocal_terms)
    drivers._suite_brezis_lieb(ctx, Report("splitting"), 1.0)
    (_, u0, w, shifts), = calls
    assert [vals.shape for _, vals in d_calls] == [(2 * len(shifts) + 1,) + ctx.grid.shape]
    got = brezis_lieb_check(ctx, u0, w, shifts)
    assert got == brezis_lieb_per_field(ctx, u0, w, shifts)
    assert all(type(x) is float for x in got)


def test_brezis_lieb_separating_bumps(ctx_const):
    g = ctx_const.grid
    u0 = gaussian_field(g, [0.0], 1.0)
    w = gaussian_field(g, [0.0], 0.8, amplitude=0.7)
    deltas = brezis_lieb_check(ctx_const, u0, w, [[2.0], [4.0], [6.0], [8.0]])
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_gamma_integral_zero_without_gamma(ctx_const, rng):
    assert gamma_values(ctx_const, random_smooth_field(ctx_const.grid, rng).values) == 0.0


def test_fiber_scalar_helpers(ctx_gamma, rng):
    u = random_smooth_field(ctx_gamma.grid, rng)
    q, d, g = qdg(ctx_gamma, u.values)
    t = 1.7
    scaled = Field(ctx_gamma.grid, t * u.values)
    assert energy_from_qdg(ctx_gamma, q, d, g, t) == pytest.approx(
        energy_value(ctx_gamma, scaled), rel=1e-11)
    pairing = l2_inner(grad_energy(ctx_gamma, scaled), scaled)
    assert fiber_residual_from_qdg(ctx_gamma, q, d, g, t) == pytest.approx(
        pairing, rel=1e-9, abs=1e-9)


def test_context_variants(rng):
    from choquard_gs.problem import Descriptor, PotentialSpec

    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}),
                        Descriptor("gaussian-bump", {"amplitude": -0.3, "width": 2.0}),
                        "negative", Descriptor("cosine", {"amplitude": 0.5}))
    ctx = build_context(make_params(), pot)
    per = ctx.periodic_variant()
    assert not per.has_vl
    u = random_smooth_field(ctx.grid, rng)
    assert energy_value(per, u) == pytest.approx(energy_report(ctx, u).e_per_val, rel=1e-12)
    half = ctx.with_gamma_scaled(0.5)
    assert gamma_values(half, u.values) == pytest.approx(0.5 * gamma_values(ctx, u.values),
                                                         rel=1e-12)


def test_nonlocal_derivative_pairing_continuous(ctx_const, rng):
    # pairing of the nonlocal-term derivative converges as the base point
    # does (finite-dimensional shadow of its sequential continuity)
    p = ctx_const.params.p

    def d_prime_pairing(u, w):
        phi = nonlocal_terms(ctx_const, u.values)[0]
        integrand = phi * np.abs(u.values) ** (p - 2.0) * u.values * w.values
        return 2.0 * p * ctx_const.grid.cell_volume * np.sum(integrand)

    u = random_smooth_field(ctx_const.grid, rng)
    w = random_smooth_field(ctx_const.grid, rng)
    v = random_smooth_field(ctx_const.grid, rng)
    base = d_prime_pairing(u, w)
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        u_eps = Field(ctx_const.grid, u.values + eps * v.values)
        errs.append(abs(d_prime_pairing(u_eps, w) - base))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3 * max(abs(base), 1.0)


def test_energy_module_is_not_shadowed_by_a_function():
    # the package exports energy_report, so the submodule keeps its name
    import choquard_gs.energy as E

    assert callable(E.build_context) and callable(E.energy_report)


def test_energy_report_evaluates_bu_and_phi_once(ctx_gamma, rng, monkeypatch):
    from choquard_gs import energy

    u = random_smooth_field(ctx_gamma.grid, rng)
    want = energy_report(ctx_gamma, u)
    b_calls = count_calls(monkeypatch, energy.b_values)
    phi_calls = count_calls(monkeypatch, energy.nonlocal_terms)
    assert energy_report(ctx_gamma, u) == want
    assert (len(b_calls), len(phi_calls)) == (1, 1)


def test_build_context_refuses_an_invalid_problem_with_a_config_error():
    message = r"^problem validation failed: mass positive \(m=-1.0\)$"
    with pytest.raises(ConfigError, match=message):
        build_context(make_params(m=-1.0), const_potential())
    assert issubclass(ConfigError, ValueError)


def test_build_context_validates_and_samples_once(monkeypatch):
    from choquard_gs import problem

    validated = count_calls(monkeypatch, problem.validate)
    sampled = count_calls(monkeypatch, problem.sample_potentials)
    ctx = build_context(make_params(), gamma_potential())
    assert (len(validated), len(sampled)) == (1, 1)
    assert ctx.Gamma.grid is ctx.grid and np.any(ctx.Gamma.values)


def test_build_context_generates_no_quadrature_nodes(monkeypatch):
    # node generation, and the lazy numpy.polynomial import on its first call,
    # would cost a sizeable share of a set-up
    def refuse(*args, **kwargs):
        raise AssertionError("leggauss called while building a context")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    for N, alpha, q, L, n in ((1, 0.5, 3.0, 16.0, 64), (2, 1.0, 3.0, 4.0, 16),
                              (3, 1.5, 2.5, 2.0, 8)):
        build_context(make_params(N=N, alpha=alpha, q=q, L=L, n=n), const_potential())


def test_preconditioner_inverts_b_for_constant_potential(ctx_const, rng):
    # P inverts A - m + min V, which is all of B when V is constant
    g = random_smooth_field(ctx_const.grid, rng).values
    pg, b_pg = direction_and_b(ctx_const, g)
    assert np.array_equal(b_pg, g)
    assert np.allclose(b_values(ctx_const, pg), g, rtol=0, atol=1e-13 * np.max(np.abs(g)))


def test_direction_and_b_matches_b_values_with_varying_potential(rng):
    # verify.ini has a cosine V_p: B(Pg) = g + (V - min V) Pg against a fresh B
    ctx = config_context("verify.ini")
    assert np.ptp(ctx.Vp.values) > 0
    g = random_smooth_field(ctx.grid, rng).values
    pg, b_pg = direction_and_b(ctx, g)
    fresh = b_values(ctx, pg)
    assert np.max(np.abs(b_pg - fresh)) <= 1e-12 * np.max(np.abs(fresh))


def test_identity_factors_skipped_bit_for_bit(rng):
    # gamma_sweep.ini has a constant V: B(Pg) skips the all-zero (V - min V) Pg
    # and gives the bits of the general expression
    ctx = config_context("gamma_sweep.ini")
    v = ctx.Vp.values + ctx.Vl.values
    assert np.ptp(v) == 0.0
    grad = random_smooth_field(ctx.grid, rng).values
    pg, b_pg = direction_and_b(ctx, grad)
    assert b_pg.tobytes() == (grad + (v - ctx.v_min) * pg).tobytes()


@pytest.mark.parametrize("v_floor", [0.0, -0.5])
def test_context_rejects_nonpositive_potential_floor(ctx_const, v_floor):
    # the preconditioner's symbol A - m + min V vanishes at xi = 0 when min V = 0
    c = ctx_const
    vp = Field(c.grid, np.full(c.grid.shape, v_floor))
    with pytest.raises(ValueError, match="min V must be positive"):
        EnergyContext(c.params, c.grid, c.sqrt_op, c.kernel, vp, c.Vl, c.Gamma)

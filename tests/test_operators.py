import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn

from choquard_gs.energy import nonlocal_terms
from choquard_gs.grid import Field, Grid, l2_inner, l2_norm2, random_smooth_field, shift
from choquard_gs.operators import (
    apply_sqrt,
    build_riesz,
    build_sqrt_op,
    epstein_zeta,
    riesz_convolve,
    sample_riesz_kernel,
)


# --- square-root operator ---------------------------------------------------

def test_sqrt_on_constant():
    g = Grid(1, 4.0, 32)
    op = build_sqrt_op(g, m=1.5)
    u = Field(g, np.full(32, 2.0))
    assert np.allclose(apply_sqrt(op, u).values, 3.0, atol=1e-13)


def test_sqrt_on_pure_mode():
    g = Grid(1, 4.0, 64)
    m = 1.0
    op = build_sqrt_op(g, m)
    xi1 = np.pi / g.L
    u = Field(g, np.cos(xi1 * g.axis_coords))
    expected = np.sqrt(xi1**2 + m**2)
    out = apply_sqrt(op, u)
    assert np.allclose(out.values, expected * u.values, atol=1e-13)


def test_sqrt_self_adjoint_and_positive(rng):
    g = Grid(2, 2.0, 16)
    m = 0.7
    op = build_sqrt_op(g, m)
    u = random_smooth_field(g, rng)
    w = random_smooth_field(g, rng)
    au, aw = apply_sqrt(op, u), apply_sqrt(op, w)
    lhs, rhs = l2_inner(au, w), l2_inner(u, aw)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    assert l2_inner(au, u) >= m * l2_norm2(u) - 1e-12


def test_sqrt_multiplier_floor():
    g = Grid(1, 4.0, 32)
    op = build_sqrt_op(g, m=2.0)
    assert op.multiplier[0] == pytest.approx(2.0)
    assert np.all(op.multiplier >= 2.0)


# --- zeta-corrected singular weights ---------------------------------------

ZETA_HALF = -1.4603545088095868  # zeta(1/2)
ZETA_MINUS_3_HALVES = -0.02548520188983304  # zeta(-3/2)


def _signed_offsets(g: Grid) -> np.ndarray:
    return ((np.arange(g.n) + g.n // 2) % g.n - g.n // 2) * g.h


def test_epstein_zeta_known_values():
    assert epstein_zeta(1, 0.5) == pytest.approx(2.0 * ZETA_HALF, rel=1e-14)
    assert epstein_zeta(1, -1.5) == pytest.approx(2.0 * ZETA_MINUS_3_HALVES, rel=1e-13)
    # 4 zeta(1/2) beta(1/2), beta the Dirichlet beta function
    assert epstein_zeta(2, 1.0) == pytest.approx(-3.9002649200019563, rel=1e-14)
    assert epstein_zeta(3, 4.0) == pytest.approx(16.53231595976, rel=1e-11)
    # Z_N(0) = -1 is the limit of the theta-split formula
    assert epstein_zeta(3, 0.0) == -1.0
    assert epstein_zeta(3, 1e-9) == pytest.approx(-1.0, rel=1e-8)


def test_singular_cell_1d_closed_form_reference():
    # in units of h^(-1/2): origin -Z_1(1/2) + Z_1(-3/2), neighbours 1 - Z_1(-3/2)/2,
    # with Z_1 = 2 zeta; farther offsets keep the kernel value
    g = Grid(1, 4.0, 16)
    S = sample_riesz_kernel(g, 0.5)
    unit = g.h**-0.5
    assert S[0] == pytest.approx((-2.0 * ZETA_HALF + 2.0 * ZETA_MINUS_3_HALVES) * unit, rel=1e-13)
    assert S[1] == S[-1] == pytest.approx((1.0 - ZETA_MINUS_3_HALVES) * unit, rel=1e-13)
    assert S[2] == pytest.approx((2.0 * g.h) ** -0.5, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("h", [0.125, 0.5])
def test_singular_cell_1d_vs_quadrature(alpha, h):
    # the weighted lattice sum of an off-centre Gaussian against |x|^(alpha-1)
    # matches Gauss-Jacobi weighted quadrature to O(h^(4+alpha))
    def phi(x):
        return np.exp(-((x - 0.3) ** 2))

    g = Grid(1, 8.0, int(round(16.0 / h)))
    lattice = g.h * sample_riesz_kernel(g, alpha) @ phi(_signed_offsets(g))
    oracle = integrate.quad(lambda x: phi(x) + phi(-x), 0.0, 12.0, weight="alg",
                            wvar=(alpha - 1.0, 0.0), epsabs=1e-14, epsrel=1e-14)[0]
    assert lattice == pytest.approx(oracle, rel=0.05 * h ** (4.0 + alpha))


@pytest.mark.parametrize("alpha", [0.6, 1.3])
def test_singular_cell_2d_vs_nested_quad(alpha):
    def phi(x, y):
        return np.exp(-((x - 0.3) ** 2) - y * y)

    g = Grid(2, 6.0, 30)
    x, y = np.meshgrid(_signed_offsets(g), _signed_offsets(g), indexing="ij")
    lattice = g.h**2 * np.sum(sample_riesz_kernel(g, alpha) * phi(x, y))

    def ring(r):
        return integrate.quad(lambda t: phi(r * np.cos(t), r * np.sin(t)), 0.0, 2.0 * np.pi,
                              epsabs=1e-14)[0]

    oracle = integrate.quad(ring, 0.0, 12.0, weight="alg", wvar=(alpha - 1.0, 0.0),
                            epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    assert lattice == pytest.approx(oracle, rel=0.05 * g.h ** (4.0 + alpha))


def test_singular_cell_3d_consistency():
    # the Gaussian moment pi^(3/2) Gamma(alpha/2) / Gamma(3/2) converges at
    # about 2^(4+alpha) per halving of h
    alpha = 1.4
    exact = np.pi**1.5 * gamma_fn(alpha / 2.0) / gamma_fn(1.5)
    errs = []
    for n in (16, 32):
        g = Grid(3, 4.0, n)
        moment = g.h**3 * np.sum(sample_riesz_kernel(g, alpha) * np.exp(-g.offset_r2()))
        errs.append(abs(moment - exact) / exact)
    assert errs[1] <= 1e-4
    assert errs[0] / errs[1] == pytest.approx(2.0 ** (4.0 + alpha), rel=0.1)


def test_singular_cell_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sample_riesz_kernel(Grid(1, 4.0, 32), 1.5)
    with pytest.raises(ValueError):
        build_riesz(Grid(1, 4.0, 32), 1.2)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_build_riesz_rejects_alpha_at_or_below_exponent_window(alpha):
    # N=3, p=2: the near kernel part lies in some L^t only for alpha > (N-1)p - N = 1;
    # at the edge the window is a point, below it the window is empty
    with pytest.raises(ValueError, match=r"\(N-1\)p - N = 1"):
        build_riesz(Grid(3, 6.0, 24), alpha)


# --- kernel construction ----------------------------------------------------

def test_kernel_multiplier_real_and_even():
    g = Grid(1, 8.0, 64)
    k = build_riesz(g, 0.5)
    assert k.conv_multiplier.dtype == np.float64
    assert k.conv_multiplier.shape == (g.n // 2 + 1,)
    # an even kernel has a real cosine transform on the half spectrum
    j = np.arange(g.n)
    cosine = g.h * np.cos(2 * np.pi * np.outer(np.arange(g.n // 2 + 1), j) / g.n) @ k.kernel_samples
    assert np.allclose(k.conv_multiplier, cosine, rtol=0, atol=1e-12 * np.max(np.abs(cosine)))
    # along a full leading axis evenness is the mirror symmetry k0 -> -k0
    g2 = Grid(2, 2.0, 16)
    m2 = build_riesz(g2, 1.0).conv_multiplier
    assert m2.dtype == np.float64
    assert np.allclose(m2, np.roll(m2[::-1], 1, axis=0), rtol=0, atol=1e-12 * np.max(m2))


def test_far_part_bounded_by_one():
    for N, n, alpha in [(1, 64, 0.25), (1, 64, 0.75), (2, 16, 1.5), (3, 8, 2.5)]:
        k = build_riesz(Grid(N, 2.0, n), alpha)
        assert k.far_part_bound <= 1.0


# --- convolution ------------------------------------------------------------

def brute_circular_convolve(kernel_row: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    n = len(f)
    out = np.empty(n)
    for i in range(n):
        out[i] = h * np.sum(kernel_row * f[(i - np.arange(n)) % n])
    return out


def test_convolve_constant():
    g = Grid(1, 8.0, 64)
    k = build_riesz(g, 0.5)
    c = 1.3
    out = riesz_convolve(k, Field(g, np.full(64, c)))
    expected = c * g.cell_volume * np.sum(k.kernel_samples)
    assert np.allclose(out.values, expected, rtol=1e-12)
    assert k.conv_multiplier[0] == pytest.approx(g.cell_volume * np.sum(k.kernel_samples))


def test_convolve_spike_reproduces_kernel_row():
    g = Grid(1, 4.0, 32)
    k = build_riesz(g, 0.5)
    f = np.zeros(32)
    f[0] = 1.0 / g.h
    out = riesz_convolve(k, Field(g, f))
    assert np.max(np.abs(out.values - k.kernel_samples)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_convolve_matches_brute_force(alpha, n, rng):
    g = Grid(1, 4.0, n)
    k = build_riesz(g, alpha)
    f = rng.standard_normal(n)
    brute = brute_circular_convolve(k.kernel_samples, f, g.h)
    out = riesz_convolve(k, Field(g, f))
    assert np.max(np.abs(out.values - brute)) <= 1e-10


def test_convolve_two_spike_symmetry():
    g = Grid(1, 4.0, 32)
    k = build_riesz(g, 0.5)
    f = np.zeros(32)
    f[16 + 4] = 1.0  # x = +1
    f[16 - 4] = 1.0  # x = -1
    out = riesz_convolve(k, Field(g, f)).values
    for j in range(1, 16):
        assert out[16 + j] == pytest.approx(out[16 - j], rel=1e-12)


def test_convolve_self_adjoint(rng):
    g = Grid(1, 8.0, 64)
    k = build_riesz(g, 0.5)
    f = random_smooth_field(g, rng)
    w = random_smooth_field(g, rng)
    lhs = l2_inner(riesz_convolve(k, f), w)
    rhs = l2_inner(f, riesz_convolve(k, w))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_convolve_commutes_with_shift(rng):
    g = Grid(2, 2.0, 16)
    k = build_riesz(g, 1.2)
    f = random_smooth_field(g, rng)
    z = [1.0, -1.0]
    a = riesz_convolve(k, shift(f, z))
    b = shift(riesz_convolve(k, f), z)
    scale = np.max(np.abs(b.values))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


def test_convolve_positive_on_positive_input(rng):
    g = Grid(1, 8.0, 64)
    k = build_riesz(g, 0.5)
    f = Field(g, rng.random(64))
    out = riesz_convolve(k, f)
    assert np.min(out.values) >= -1e-10 * np.max(out.values)


def test_uncorrected_kernel_biased_low():
    # dropping the origin weight loses the Gaussian moment's singular part
    g = Grid(1, 8.0, 64)
    good = sample_riesz_kernel(g, 0.5)
    bad = good.copy()
    bad[0] = 0.0
    assert good[0] > np.max(bad)
    phi = np.exp(-g.offset_r2())
    exact = gamma_fn(0.25)
    assert g.h * good @ phi == pytest.approx(exact, rel=1e-4)
    assert g.h * bad @ phi < 0.7 * exact


# --- auxiliary potential ----------------------------------------------------
# phi = I_alpha * |u|^p as the solver computes it, in energy.nonlocal_terms

def test_phi_homogeneity(ctx_const, rng):
    u = random_smooth_field(ctx_const.grid, rng)
    p = ctx_const.params.p
    base = nonlocal_terms(ctx_const, u.values)[0]
    scaled = nonlocal_terms(ctx_const, 2.0 * u.values)[0]
    scale = np.max(np.abs(base))
    assert np.max(np.abs(scaled - 2.0**p * base)) <= 1e-12 * 2.0**p * scale


def test_phi_shift_equivariance(ctx_const, rng):
    g = ctx_const.grid
    u = random_smooth_field(g, rng)
    z = [3.0]
    a = nonlocal_terms(ctx_const, shift(u, z).values)[0]
    b = shift(Field(g, nonlocal_terms(ctx_const, u.values)[0]), z).values
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_phi_nonnegative(ctx_const, rng):
    u = random_smooth_field(ctx_const.grid, rng)  # sign-changing input
    out = nonlocal_terms(ctx_const, u.values)[0]
    assert np.min(out) >= -1e-10 * np.max(out)


def test_sqrt_agrees_with_fine_wall_extension(rng):
    # cross-validation against the half-space normal-derivative realization
    from choquard_gs.extension import build_wall, dtn_apply
    from choquard_gs.grid import l2_norm
    from conftest import refined_wall

    g = Grid(1, 16.0, 128)
    m = 1.0
    op = build_sqrt_op(g, m)
    wall = refined_wall(build_wall(g, m), 8)
    for _ in range(3):
        u = random_smooth_field(g, rng)
        exact = apply_sqrt(op, u)
        approx = dtn_apply(u, wall)
        rel = l2_norm(Field(g, approx.values - exact.values)) / l2_norm(exact)
        assert rel <= 1e-6

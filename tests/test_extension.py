import numpy as np
import pytest

from choquard_gs import extension
from choquard_gs.energy import qdg
from choquard_gs.extension import (
    WallGrid,
    build_wall,
    check_norm_equivalence,
    check_trace_inequalities,
    dtn_apply,
    harmonic_extend,
    norm_equivalence_constants,
    volume_integrals,
)
from choquard_gs.grid import (
    Field,
    Grid,
    apply_multiplier,
    dft,
    gaussian_field,
    idft_real,
    l2_norm,
    random_smooth_field,
    random_smooth_fields,
)
from choquard_gs.operators import apply_sqrt, build_sqrt_op
from conftest import count_calls, refined_wall
from oracles import (
    extension_rows,
    pde_residual,
    q_form_volume,
    trace_checks_per_field,
    wall_ratio_200_steps,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 16.0, 128)


@pytest.fixture(scope="module")
def wall(grid):
    return build_wall(grid, m=1.0)


def extended_wall(wall, factor=2.0):
    """Continue the wall's geometric progression past its top (tail-truncation study)."""
    x = list(wall.x)
    step = x[-1] - x[-2]
    ratio, top = step / (x[-2] - x[-3]), x[-1]
    while x[-1] < factor * top:
        step *= ratio
        x.append(x[-1] + step)
    return WallGrid(wall.grid, wall.m, np.asarray(x))


def test_wall_geometry(grid, wall):
    assert wall.x[0] == 0.0
    assert np.all(np.diff(wall.x) > 0)
    assert wall.x[-1] == pytest.approx(23.1 / wall.m, rel=1e-9)
    assert np.all(np.diff(np.diff(wall.x)) > 0)  # clustered toward the boundary
    fine = refined_wall(wall, 2)
    assert fine.nx == 2 * wall.nx
    assert fine.x[1] == pytest.approx(wall.x[1] / 2.0, rel=1e-6)


@pytest.mark.parametrize("N, L, n", [(1, 16.0, 128), (1, 2.0, 8), (2, 8.0, 128), (3, 4.0, 48)])
@pytest.mark.parametrize("m", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("nx", [16, 97, 384, 1536])
def test_wall_ratio_matches_200_bisection_steps(N, L, n, m, nx):
    # the bisection stops once its midpoint equals an end, with the bits all
    # 200 steps give: the bracket shrinks no further after that
    g = Grid(N, L, n)
    s_max = np.sqrt(np.max(g.freq2) + m * m)
    delta0 = (0.01 / s_max) * (384.0 / nx)
    want = wall_ratio_200_steps(nx, 23.1 / m, delta0)
    assert extension._solve_ratio(nx, 23.1 / m, delta0) == want
    assert build_wall(g, m, nx).x[-1] == pytest.approx(23.1 / m, rel=1e-12)


def test_dtn_symbol_is_built_once_per_wall(grid, rng, monkeypatch):
    wall = build_wall(grid, 0.7)
    solves = count_calls(monkeypatch, extension._diff_weights)
    u = random_smooth_field(grid, rng)
    first = dtn_apply(u, wall).values
    for _ in range(6):
        assert dtn_apply(u, wall).values.tobytes() == first.tobytes()
    assert len(solves) == 1
    with pytest.raises(ValueError):
        wall.dtn_symbol[0] = 0.0


def test_wall_rejects_tiny(grid):
    with pytest.raises(ValueError):
        build_wall(grid, 1.0, nx=8)
    with pytest.raises(TypeError):  # the mass has no default
        build_wall(grid)


def test_extend_constant_decays_at_mass_rate(grid, wall):
    m = 1.0
    c = 2.0
    v = harmonic_extend(np.full((1, grid.n), c), wall)
    for i in (0, wall.nx // 2, wall.nx - 1):
        assert np.allclose(extension_rows(v)[0, i], c * np.exp(-m * wall.x[i]), rtol=1e-12)
    assert np.allclose(extension_rows(v)[0, 0], c, atol=1e-12)


def test_extend_trace_reproduces_boundary(grid, wall, rng):
    u = random_smooth_fields(grid, rng, 1)
    v = harmonic_extend(u, wall)
    assert np.max(np.abs(extension_rows(v)[:, 0] - u)) <= 1e-12 * np.max(np.abs(u))


def test_pde_residual_second_order(grid):
    m = 1.0
    u = gaussian_field(grid, [0.0], 2.0)
    errs = []
    for factor in (1, 2, 4):
        w = build_wall(grid, m, nx=96 * factor)
        errs.append(pde_residual(harmonic_extend(u.values[None], w), m))
    assert errs[1] < errs[0] / 3.0
    assert errs[2] < errs[1] / 3.0


def test_energy_stable_under_wall_extension(grid, wall):
    # truncation already below round-off once exp(-m x_max) < 1e-8
    m = 1.0
    u = gaussian_field(grid, [0.0], 2.0)
    base = harmonic_extend(u.values[None], wall)
    taller = harmonic_extend(u.values[None], extended_wall(wall, 2.0))
    (g0,), (m0,) = volume_integrals(base)
    (g1,), (m1,) = volume_integrals(taller)
    e0 = g0 + m**2 * m0
    e1 = g1 + m**2 * m1
    assert np.isfinite(e0)
    assert abs(e1 - e0) <= 1e-12 * e0


def test_dtn_single_mode_converges_to_symbol(grid):
    m = 1.0
    xi1 = 4.0 * np.pi / grid.L  # k = 4 mode
    u = Field(grid, np.cos(xi1 * grid.axis_coords))
    expected = np.sqrt(xi1**2 + m**2)
    errs = []
    for factor in (1, 2, 4):
        w = build_wall(grid, m, nx=96 * factor)
        out = dtn_apply(u, w)
        errs.append(np.max(np.abs(out.values - expected * u.values)) / expected)
    assert errs[0] < 1e-3
    assert errs[2] < errs[1] < errs[0]


def test_dtn_zero_field(grid, wall):
    out = dtn_apply(Field(grid, np.zeros(grid.n)), wall)
    assert not np.any(out.values)


def test_dtn_matches_sqrt_operator(grid, wall, rng):
    m = 1.0
    op = build_sqrt_op(grid, m)
    for _ in range(5):
        u = random_smooth_field(grid, rng)
        via_wall = dtn_apply(u, wall)
        via_symbol = apply_sqrt(op, u)
        rel = l2_norm(Field(grid, via_wall.values - via_symbol.values)) / l2_norm(via_symbol)
        assert rel <= 1e-4


def test_dtn_refinement_order(grid, rng):
    # order-2 stencil: measured convergence slope at least 1.9
    m = 1.0
    op = build_sqrt_op(grid, m)
    u = random_smooth_field(grid, rng)
    exact = apply_sqrt(op, u)
    errs = []
    for factor in (1, 2, 4):
        w = build_wall(grid, m, nx=128 * factor)
        err = l2_norm(Field(grid, dtn_apply(u, w).values - exact.values))
        errs.append(err)
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 1.9


def test_dtn_squares_to_schrodinger(grid, wall, rng):
    m = 1.0
    u = random_smooth_field(grid, rng)
    twice = dtn_apply(dtn_apply(u, wall), wall)
    # full-grid symbol built here, independent of the production half grid
    symbol = grid.axis_freqs() ** 2 + m * m
    target = Field(grid, np.fft.ifft(symbol * np.fft.fft(u.values)).real)
    rel = l2_norm(Field(grid, twice.values - target.values)) / l2_norm(target)
    assert rel <= 1e-4


def test_q_form_volume_matches_boundary_form(grid, wall, ctx_const, rng):
    m = 1.0
    V = Field(grid, np.ones(grid.n))
    gaps = []
    for _ in range(5):
        u = random_smooth_field(grid, rng)
        v = harmonic_extend(u.values[None], wall)
        qv = q_form_volume(v, V, m)
        assert check_norm_equivalence(v, V)[1].tolist() == [qv]  # the form the sandwich checks
        qb = qdg(ctx_const, u.values)[0]
        gaps.append(abs(qv - qb) / abs(qb))
    assert max(gaps) <= 1e-4
    # gap shrinks under wall refinement
    u = random_smooth_field(grid, rng)
    coarse = abs(q_form_volume(harmonic_extend(u.values[None], wall), V, m)
                 - qdg(ctx_const, u.values)[0])
    fine_wall = refined_wall(wall, 2)
    fine = abs(q_form_volume(harmonic_extend(u.values[None], fine_wall), V, m)
               - qdg(ctx_const, u.values)[0])
    assert fine < coarse


def test_q_form_zero_field(grid, wall):
    V = Field(grid, np.ones(grid.n))
    v = harmonic_extend(np.zeros((1, grid.n)), wall)
    assert q_form_volume(v, V, 1.0) == 0.0


def test_q_form_reduces_to_dirichlet_energy_when_v_equals_m(grid, wall, rng):
    m = 1.0
    v = harmonic_extend(random_smooth_fields(grid, rng, 1), wall)
    V = Field(grid, np.full(grid.n, m))
    q = q_form_volume(v, V, m)
    (grad,), (mass,) = volume_integrals(v)
    assert q == pytest.approx(grad + m**2 * mass)
    assert q >= 0


@pytest.mark.parametrize("N,n", [(1, 16), (2, 8)])
def test_volume_integrals_on_single_modes(N, n):
    # a single mode e^{i xi.y} extends to e^{-x s} times itself, s^2 = |xi|^2 + m^2,
    # so on every row |grad v|^2 integrates to (s^2 + |xi|^2) times v^2; the
    # last-axis Nyquist mode (1 copy in the half spectrum) and an interior
    # mode (2 copies) check both half-spectrum weights
    g = Grid(N, 2.0, n)
    m = 1.0
    w = build_wall(g, m, nx=32)
    x = np.meshgrid(*([g.axis_coords] * N), indexing="ij")
    for k in (n // 2, 1):
        xi = np.pi * k / g.L
        (grad,), (mass,) = volume_integrals(harmonic_extend(np.cos(xi * x[-1])[None], w))
        assert grad == pytest.approx((2 * xi**2 + m * m) * mass, rel=1e-12)


def test_trace_inequalities_on_gaussian(grid, wall):
    u = gaussian_field(grid, [0.0], 2.0)
    v = harmonic_extend(u.values[None], wall)
    rep = check_trace_inequalities(v, 2.0)
    (m1,), (m2,) = rep.margins()
    assert m1 > 0 and m2 > 0


def test_trace_inequalities_zero_field(grid, wall):
    v = harmonic_extend(np.zeros((1, grid.n)), wall)
    rep = check_trace_inequalities(v, 2.0)
    assert rep.trace_p_lhs.tolist() == rep.trace_2_lhs.tolist() == [0.0]
    assert np.min(rep.margins()) >= -1e-8


def test_trace_inequalities_random_sweep(grid, wall, rng):
    for _ in range(100):
        v = harmonic_extend(random_smooth_fields(grid, rng, 1), wall)
        rep = check_trace_inequalities(v, 2.0)
        assert np.min(rep.margins()) >= -1e-8


def test_norm_equivalence_constants_reference():
    # V >= m: plain coefficients survive
    assert norm_equivalence_constants(1.0, 1.0, 1.0) == (1.0, 1.0)
    c_low, c_high = norm_equivalence_constants(1.0, 0.5, 2.0)
    assert c_low == pytest.approx(0.5)
    assert c_high == pytest.approx(2.0)
    assert norm_equivalence_constants(2.0, 0.1, 1.0)[0] == pytest.approx(0.05)
    # constants degenerate only when the potential floor is non-positive
    with pytest.raises(ValueError):
        norm_equivalence_constants(1.0, -0.1, 1.0)


def test_norm_equivalence_sandwich(grid, wall, rng):
    V = Field(grid, 1.0 + 0.25 * np.cos(2 * np.pi * grid.axis_coords))
    for _ in range(20):
        v = harmonic_extend(random_smooth_fields(grid, rng, 1), wall)
        (ok,), (q,), (low,), (high,) = check_norm_equivalence(v, V)
        assert ok
        assert low <= q <= high


def test_h1_norm_positive(grid, wall, rng):
    (grad,), (mass,) = volume_integrals(harmonic_extend(random_smooth_fields(grid, rng, 1), wall))
    assert grad + mass > 0


def _slab_oracle(u, wall_x, m, p):
    """Slab integrals and trace-inequality terms from real-space rows built
    with the full complex FFT, trapezoid weights from np.diff: a sum over
    nodes for every integral, no half spectrum and no Parseval."""
    g = u.grid
    axes = tuple(range(1, g.N + 1))
    xi = np.meshgrid(*([2 * np.pi * np.fft.fftfreq(g.n, d=g.h)] * g.N), indexing="ij")
    s = np.sqrt(sum(k * k for k in xi) + m * m)
    decayed = np.fft.fftn(u.values) * np.exp(-wall_x.reshape((-1,) + (1,) * g.N) * s)

    def rows(symbol):
        return np.fft.ifftn(symbol * decayed, axes=axes).real

    v, dx = rows(1.0), rows(-s)
    dx_w = np.diff(wall_x)
    w = np.concatenate([[dx_w[0]], dx_w[:-1] + dx_w[1:], [dx_w[-1]]]) / 2.0

    def slab(f):
        return float(w @ (g.cell_volume * f.sum(axis=axes)))

    mass = slab(v * v)
    dx2 = slab(dx * dx)
    # |grad_y v|^2 integrates to v times -Laplacian_y v (by parts on the torus),
    # which keeps the Nyquist modes whose sampled derivative vanishes
    grad = dx2 + slab(v * rows(sum(k * k for k in xi)))
    u0 = u.values
    trace_p_rhs = p * np.sqrt(slab(np.abs(v) ** (2 * (p - 1))) * dx2)
    trace = (g.cell_volume * np.sum(np.abs(u0) ** p), trace_p_rhs,
             g.cell_volume * np.sum(u0 * u0), m * grad + mass / m)
    return grad, mass, trace


VARIANTS = ("default", "refined", "extended")


# p = 3 reads the trace check's real-space rows, p = 2 takes its mass path
@pytest.mark.parametrize("N,n,L", [(1, 64, 8.0), (2, 16, 4.0)])
@pytest.mark.parametrize("variant,p", [(v, 3.0) for v in VARIANTS] + [(v, 2.0) for v in VARIANTS],
                         ids=list(VARIANTS) + [f"{v}-p2" for v in VARIANTS])
def test_slab_integrals_match_real_space_oracle(N, n, L, variant, p, rng, monkeypatch):
    g = Grid(N, L, n)
    built = count_calls(monkeypatch, extension._rows)
    m = 0.8
    wall = build_wall(g, m)
    wall = {"default": wall, "refined": refined_wall(wall, 2),
            "extended": extended_wall(wall, 2.0)}[variant]
    for _ in range(3):
        u = random_smooth_field(g, rng)
        v = harmonic_extend(u.values[None], wall)
        grad, mass, trace = _slab_oracle(u, wall.x, m, p)
        assert np.concatenate(volume_integrals(v)) == pytest.approx([grad, mass], rel=1e-12)
        rep = check_trace_inequalities(v, p)
        got = np.concatenate([rep.trace_p_lhs, rep.trace_p_rhs, rep.trace_2_lhs, rep.trace_2_rhs])
        assert got == pytest.approx(trace, rel=1e-12)
        # p != 2 builds the rows of its one trace, p = 2 none
        assert [uhat.shape for _, uhat in built] == (p != 2) * [v.uhat.shape[1:]]
        built.clear()
        # the per-wall table reproduces the sum over every row's spectrum
        rows = np.tensordot(wall.weights, np.abs(v.uhat[0] * wall.decay) ** 2, axes=1)
        old = (g.cell_volume / g.size) * g.half_weights * rows
        assert np.max(np.abs(v.slab[0] - old)) <= 1e-13 * np.max(old)


@pytest.mark.parametrize("N,names", [(1, (("rfft",), ("irfft",))),
                                     (2, (("rfft", "fft"), ("ifft", "irfft")))])
def test_transforms_per_extended_field(monkeypatch, rng, N, names):
    # the slab integrals come from the trace's spectrum: extending a field and
    # running every p = 2 check on it costs one forward transform (in 2-D an
    # rfft with one fft stage beside it); the wall rows cost one inverse, paid
    # only when they are read
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    g = Grid(N, 4.0, 16)
    wall = build_wall(g, 1.0)
    u = random_smooth_fields(g, rng, 1)
    V = Field(g, np.full(g.shape, 1.25))
    forward, inverse = names
    one_forward = dict.fromkeys(forward, 1)
    with_rows = {**one_forward, **dict.fromkeys(inverse, 1)}
    calls.clear()
    v = harmonic_extend(u, wall)
    check_trace_inequalities(v, 2.0)
    check_norm_equivalence(v, V)
    volume_integrals(v)
    assert calls == one_forward
    q_form_volume(v, V, 1.0)
    extension_rows(v)
    assert calls == with_rows
    calls.clear()
    v = harmonic_extend(u, wall)
    check_trace_inequalities(v, 3.0)
    check_norm_equivalence(v, V)
    assert calls == with_rows


def test_each_wall_follows_its_own_mass(grid, rng):
    # two walls, each built for its own m, hold read-only tables equal bit for
    # bit to the uncached formulas for that m, and every routine uses them
    for m in (1.0, 0.5):
        wall = build_wall(grid, m)
        assert wall.m == m
        s = np.sqrt(grid.freq2 + m * m)
        decay = np.exp(-np.multiply.outer(wall.x, s))
        tables = {"decay": decay, "s2": s**2, "grad": s**2 + grid.freq2,
                  "slab_weights": np.tensordot(wall.weights, decay**2, axes=1)}
        for name, want in tables.items():
            got = getattr(wall, name)
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 0.0
        v = harmonic_extend(np.full((1, grid.n), 2.0), wall)
        assert np.allclose(extension_rows(v)[0, :, 0], 2.0 * np.exp(-m * wall.x), rtol=1e-12)
        u = random_smooth_field(grid, rng)
        w = np.linalg.solve(np.vander(wall.x[:3], 3, increasing=True).T, [0.0, 1.0, 0.0])
        symbol = np.tensordot(w, tables["decay"][:3], axes=1)
        want = apply_multiplier(-symbol, u.values)
        assert dtn_apply(u, wall).values.tobytes() == want.tobytes()
        v = harmonic_extend(u.values[None], wall)
        assert v.uhat.tobytes() == dft(u.values).tobytes()
        assert extension_rows(v)[0].tobytes() == idft_real(v.uhat[0] * decay, grid.shape).tobytes()
        assert [x.tolist() for x in volume_integrals(v)] == [
            [float(np.vdot(v.slab, tables["grad"]))], [float(np.sum(v.slab))]]


@pytest.mark.parametrize("N, n", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_stacked_trace_checks_match_the_per_field_oracle(N, n, p, monkeypatch):
    # one extension of a stack gives, row by row, the bits one extension per
    # trace gives, and a one-trace stack gives arrays of one value
    g = Grid(N, 4.0, n)
    wall = build_wall(g, 1.0)
    stack = random_smooth_fields(g, np.random.default_rng(8), 5)
    V = Field(g, 1.0 + 0.25 * np.cos(np.sqrt(g.r2())))
    v = harmonic_extend(stack, wall)
    built = count_calls(monkeypatch, extension._rows)
    rep = check_trace_inequalities(v, p)
    # p != 2 builds the wall rows one trace at a time, never the stack's
    assert [uhat.shape for _, uhat in built] == (p != 2) * 5 * [v.uhat.shape[1:]]
    got_sides = np.array([rep.trace_p_lhs, rep.trace_p_rhs, rep.trace_2_lhs, rep.trace_2_rhs])
    got_volume = np.array(volume_integrals(v))
    ok, q, low, high = check_norm_equivalence(v, V)
    want_sides, want_volume, want_norm = (np.array(x).T for x in zip(
        *(trace_checks_per_field(Field(g, row), wall, p, V) for row in stack)))
    assert got_sides.shape == (4, 5)
    assert got_sides.tobytes() == want_sides.tobytes()
    assert got_volume.tobytes() == want_volume.tobytes()
    assert np.array([ok, q, low, high]).tobytes() == want_norm.tobytes()
    assert ok.all()
    margins = np.array(rep.margins())
    for i, row in enumerate(stack):
        one = harmonic_extend(row[None], wall)
        single = check_trace_inequalities(one, p)
        sides = (single.trace_p_lhs, single.trace_p_rhs, single.trace_2_lhs, single.trace_2_rhs)
        for got, want in ((sides, want_sides), (single.margins(), margins),
                          (volume_integrals(one), want_volume),
                          (check_norm_equivalence(one, V), want_norm)):
            assert all(type(x) is np.ndarray and x.shape == (1,) for x in got)
            assert np.array(got)[:, 0].tobytes() == want[:, i].tobytes()
    assert extension_rows(v).shape == (5, wall.nx) + g.shape
    for row, row_values in zip(stack, extension_rows(v)):
        one = harmonic_extend(row[None], wall)
        assert row_values.tobytes() == extension_rows(one)[0].tobytes()


def test_harmonic_extend_checks_the_stack_shape(grid, wall):
    # a field, a list of fields, a bare grid array or an empty stack is no
    # stack: the error names the shape a stack must have
    stack = np.zeros((3,) + grid.shape)
    assert harmonic_extend(stack, wall).uhat.shape == (3, grid.n // 2 + 1)
    field = Field(grid, stack[0])
    for bad in (field, [field, field], list(stack), stack[0], stack[:, :-2], stack[None]):
        with pytest.raises(ValueError, match=r"\(k, \*\(128,\)\)"):
            harmonic_extend(bad, wall)
    with pytest.raises(ValueError, match=r"non-empty \(k, \*\(128,\)\) .* shape \(0, 128\)"):
        harmonic_extend(np.zeros((0,) + grid.shape), wall)

import functools
import struct

import numpy as np
import pytest

from choquard_gs.grid import (
    Field,
    Grid,
    Translations,
    apply_multiplier,
    dft,
    gaussian_field,
    idft_real,
    l2_inner,
    l2_norm2,
    load_field,
    min_image,
    random_smooth_field,
    random_smooth_fields,
    row_dots,
    save_field,
    shift,
)
from choquard_gs import grid as grid_module
from oracles import random_smooth_field_per_bump


def test_grid_geometry():
    g = Grid(1, 16.0, 128)
    assert g.h * g.n == pytest.approx(2 * g.L)
    assert g.cells_per_unit() == 4
    x = g.axis_coords
    assert x[0] == -16.0
    assert x[-1] == pytest.approx(16.0 - g.h)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid(4, 1.0, 16)
    with pytest.raises(ValueError):
        Grid(1, -1.0, 16)
    with pytest.raises(ValueError):
        Grid(1, 1.0, 15)
    with pytest.raises(ValueError):
        Grid(1, 1.0, 4)


def test_field_shape_and_finite_guard():
    g = Grid(1, 2.0, 16)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)


@pytest.mark.parametrize("values", [np.ones(16) * (1 + 1j), np.zeros(16, dtype=complex),
                                    [1j] * 16])
def test_field_rejects_complex_values(values):
    # the imaginary part is refused, never dropped with a ComplexWarning
    with pytest.raises(ValueError, match="must be real, got dtype complex128"):
        Field(Grid(1, 2.0, 16), values)


def test_forward_constant_is_mean():
    # unnormalised: the coefficient at xi = 0 is size times the mean
    g = Grid(1, 4.0, 32)
    F = dft(np.full(32, 2.5))
    assert F[0] == pytest.approx(g.size * 2.5)
    assert np.max(np.abs(F[1:])) < 1e-14 * g.size


def test_forward_cosine_mode_pair():
    g = Grid(1, 4.0, 32)
    c = 1.7
    f = c * np.cos(np.pi * g.axis_coords / g.L)
    F = dft(f)
    # half spectrum: wavenumbers 0..n/2, the mirror k = -1 of k = 1 is not stored
    assert F.shape == (g.n // 2 + 1,)
    # node 0 sits at x = -L, so mode k carries the phase (-1)^k
    assert F[1] == pytest.approx(-c * g.n / 2, abs=1e-12)
    others = np.delete(F, [1])
    assert np.max(np.abs(others)) < 1e-12
    # the multiplier grid is ordered like the coefficients
    assert g.freq2.shape == F.shape
    lap = apply_multiplier(g.freq2, f)
    assert np.max(np.abs(lap - (np.pi / g.L) ** 2 * f)) < 1e-12


@pytest.mark.parametrize("N,n", [(1, 64), (2, 16), (3, 8)])
def test_round_trip(N, n, rng):
    g = Grid(N, 2.0, n)
    f = rng.standard_normal(g.shape)
    back = idft_real(dft(f), g.shape)
    assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))
    # a stack of fields transforms row by row in one call
    rows = np.stack([f, 2.0 * f, -f])
    coeffs = dft(rows, N)
    assert coeffs.shape == (3,) + g.freq2.shape
    assert np.max(np.abs(coeffs[1] - 2.0 * dft(f))) <= 1e-12 * np.max(np.abs(coeffs))
    assert np.max(np.abs(idft_real(coeffs, g.shape) - rows)) <= 1e-12 * np.max(np.abs(rows))


@pytest.mark.parametrize("N, stack", [(1, ()), (1, (5,)), (2, ()), (2, (3,)), (3, ()), (3, (4,))])
def test_transforms_equal_rfftn(N, stack, rng):
    # the per-axis stages, run in place, give rfftn/irfftn bit for bit, for a
    # field and a (rows, n^N) stack; the inverses never write into a spectrum
    # the caller passes in
    n = {1: 256, 2: 32, 3: 16}[N]
    shape = (n,) * N
    axes = tuple(range(-N, 0))
    x = rng.standard_normal(stack + shape)
    symbol = Grid(N, 2.0, n).freq2 + 1.0
    spec = dft(x, N)
    kept = spec.copy()
    assert np.array_equal(spec, np.fft.rfftn(x, axes=axes))
    assert np.array_equal(idft_real(spec, shape), np.fft.irfftn(kept, s=shape, axes=axes))
    expected = np.fft.irfftn(symbol * kept, s=shape, axes=axes)
    assert np.array_equal(apply_multiplier(symbol, x), expected)
    assert np.array_equal(apply_multiplier(symbol, x, spec=spec), expected)
    assert np.array_equal(spec, kept)


def test_forward_hermitian_for_real_fields(rng):
    g = Grid(2, 2.0, 16)
    f = rng.standard_normal(g.shape)
    F = dft(f)
    # the half spectrum is the k1 <= n/2 part of the direct double sum
    k = np.arange(g.n)
    E = np.exp(-2j * np.pi * np.outer(k, k) / g.n)
    full = E @ f @ E.T
    assert F.shape == (g.n, g.n // 2 + 1)
    assert np.max(np.abs(F - full[:, : g.n // 2 + 1])) <= 1e-12 * np.max(np.abs(full))
    # the planes k1 = 0 and k1 = n/2 are their own mirrors: Hermitian in k0
    for plane in (F[:, 0], F[:, -1]):
        mirrored = np.roll(plane[::-1], 1)
        assert np.max(np.abs(plane - np.conj(mirrored))) <= 1e-12 * np.max(np.abs(F))


def test_r2_is_the_minimal_image_distance():
    g = Grid(2, 2.0, 16)
    center = np.array([1.75, -2.0])
    x = g.axis_coords
    d = [np.min(np.abs(x[:, None] - c + 2 * g.L * np.arange(-1, 2)), axis=1) for c in center]
    expect = d[0][:, None] ** 2 + d[1][None, :] ** 2
    assert np.allclose(g.r2(center), expect, rtol=0, atol=1e-12)
    # offsets in FFT index order are the node distances from the origin, rolled
    rolled = np.roll(g.r2(), (-(g.n // 2),) * g.N, axis=(0, 1))
    assert np.allclose(g.offset_r2(), rolled, rtol=0, atol=1e-12)
    assert g.offset_r2()[0, 0] == 0.0


def test_l2_norms_on_reference_fields():
    g = Grid(1, 1.0, 64)
    assert l2_norm2(Field(g, np.ones(64))) == pytest.approx(2.0)
    cos = Field(g, np.cos(np.pi * g.axis_coords / g.L))
    assert l2_norm2(cos) == pytest.approx(g.L)
    g2 = Grid(2, 1.0, 16)
    assert l2_norm2(Field(g2, np.ones((16, 16)))) == pytest.approx(4.0)


def test_inner_product_symmetry_and_grid_guard(rng):
    g = Grid(1, 2.0, 32)
    f = Field(g, rng.standard_normal(32))
    h = Field(g, rng.standard_normal(32))
    assert l2_inner(f, h) == pytest.approx(l2_inner(h, f))
    other = Field(Grid(1, 2.0, 64), np.zeros(64))
    with pytest.raises(ValueError):
        l2_inner(f, other)


def test_parseval(rng):
    g = Grid(1, 8.0, 128)
    f = Field(g, rng.standard_normal(128))
    # coefficients off k = 0 and k = n/2 stand for themselves and their mirror
    w = np.full(g.n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    spectral = g.cell_volume / g.size * np.sum(w * np.abs(dft(f.values)) ** 2)
    assert spectral == pytest.approx(l2_norm2(f), rel=1e-12)
    assert np.array_equal(g.half_weights, w)


def test_shift_identity_period_and_isometry(rng):
    g = Grid(1, 4.0, 32)
    f = Field(g, rng.standard_normal(32))
    assert np.array_equal(shift(f, [0.0]).values, f.values)
    assert np.array_equal(shift(f, [2 * g.L]).values, f.values)
    moved = shift(f, [3.0])
    assert np.sum(moved.values**2) == pytest.approx(np.sum(f.values**2), rel=1e-15)


def test_shift_composition_and_direction():
    g = Grid(1, 4.0, 32)
    f = Field(g, np.zeros(32))
    i0 = 8
    vals = f.values.copy()
    vals[i0] = 1.0
    f = Field(g, vals)
    one = shift(f, [1.0])
    # g(x) = f(x - z): the spike moves from x0 to x0 + z
    assert one.values[i0 + g.cells_per_unit()] == 1.0
    two = shift(shift(f, [1.0]), [2.0])
    assert np.array_equal(two.values, shift(f, [3.0]).values)


def test_shift_rejects_non_cell_multiples():
    g = Grid(1, 4.0, 32)
    f = Field(g, np.zeros(32))
    with pytest.raises(ValueError):
        shift(f, [0.1])


def test_shift_2d(rng):
    g = Grid(2, 2.0, 16)
    f = Field(g, rng.standard_normal(g.shape))
    moved = shift(f, [1.0, -2.0])
    assert np.array_equal(moved.values, np.roll(f.values, (4, -8), axis=(0, 1)))


def _full_symbol(g, a, theta_of):
    """Per-axis factors theta_of(theta, axis) multiplied over the full complex spectrum."""
    theta = 2.0 * np.pi * np.fft.fftfreq(g.n)
    rows = [theta_of(theta, ai) for ai in a]
    out = rows[0]
    for row in rows[1:]:
        out = np.multiply.outer(out, row)
    return out


def _shift_factor(theta, a):
    row = np.exp(-1j * a * theta)
    row[len(theta) // 2] = np.cos(np.pi * a)
    return row


@pytest.mark.parametrize("N,n,L", [(1, 64, 8.0), (2, 16, 4.0), (3, 8, 2.0)])
def test_translations_match_full_spectrum_oracle(N, n, L, rng):
    # S_a from the full complex spectrum with the documented symbol; whole cells
    # are an exact roll
    g = Grid(N, L, n)
    tr = Translations(g)
    u = random_smooth_field(g, rng).values
    for a in (rng.uniform(-3.0, 3.0, size=N), np.array([2.0, -5.0, 1.0][:N])):
        values, spec = tr.shifted(dft(u), a)
        full = np.fft.ifftn(np.fft.fftn(u) * _full_symbol(g, a, _shift_factor))
        assert np.max(np.abs(full.imag)) <= 1e-12
        assert np.allclose(values, full.real, rtol=0, atol=1e-12)
        assert np.allclose(spec, dft(values), rtol=0, atol=1e-10)
    assert np.allclose(values, np.roll(u, (2, -5, 1)[:N], axis=tuple(range(N))), atol=1e-12)


@pytest.mark.parametrize("N,n,L", [(1, 64, 8.0), (2, 16, 4.0)])
def test_translation_slope_and_home(N, n, L, rng):
    g = Grid(N, L, n)
    tr = Translations(g)
    u, w = random_smooth_field(g, rng).values, random_smooth_field(g, rng).values
    fu = np.fft.fftn(u)
    for axis in range(N):
        # the derivative per cell: i theta on this axis, 0 at its Nyquist entry
        symbol = _full_symbol(g, np.eye(N)[axis], lambda theta, e: np.where(
            np.arange(len(theta)) == len(theta) // 2, 0.0, 1j * theta) if e else np.ones(len(theta)))
        du = np.fft.ifftn(symbol * fu).real
        assert tr.slope(dft(u), dft(w))[axis] == pytest.approx(float(np.sum(w * du)), rel=1e-12)
    # a bump at x = 2.8 in each coordinate goes home by 3 units of n/(2L) cells
    bump = gaussian_field(g, np.full(N, 2.8), 0.5).values
    assert tr.home(bump).tolist() == [-3.0 * n / (2.0 * L)] * N


def test_field_file_round_trip(tmp_path, rng):
    g = Grid(2, 3.0, 12)
    f = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "field.cgsf"
    save_field(f, path, {"note": "test"})
    back = load_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    raw = path.read_bytes()
    assert raw[:4] == b"CGSF"
    assert len(raw) == 16 + 8 * g.size
    sidecar = (tmp_path / "field.cgsf.meta.json").read_text()
    assert '"note": "test"' in sidecar


@pytest.mark.parametrize("L", [3.3, 3.5e38])
def test_save_rejects_length_without_exact_f32(tmp_path, L):
    # the header stores L as f32: 3.3 would load onto Grid(1, 3.2999999523..., 64),
    # 3.5e38 does not fit at all
    g = Grid(1, L, 64)
    path = tmp_path / "field.cgsf"
    with pytest.raises(ValueError, match="L="):
        save_field(Field(g, np.zeros(g.shape)), path)
    assert not path.exists()


def test_load_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.cgsf"
    p.write_bytes(b"XXXX" + b"\0" * 100)
    with pytest.raises(ValueError):
        load_field(p)


def test_load_rejects_truncated_header(tmp_path):
    p = tmp_path / "short.cgsf"
    p.write_bytes(b"CGSF\x01\0\0")
    with pytest.raises(ValueError, match="truncated"):
        load_field(p)


@pytest.mark.parametrize("N, n, body", [(3, 2**22, 64), (2, 2**30, 64), (1, 64, 8 * 64 - 1)])
def test_load_rejects_header_beyond_file(tmp_path, N, n, body):
    # a header whose 8 n^N bytes of data are not in the file is a truncation,
    # found before any read, even when n^N does not fit an index
    p = tmp_path / "big.cgsf"
    p.write_bytes(struct.pack("<4sB3xIf", b"CGSF", N, n, 4.0) + b"\0" * body)
    with pytest.raises(ValueError, match="truncated"):
        load_field(p)


def test_load_rejects_trailing_bytes(tmp_path):
    # the body must be exactly 8 n^N bytes: garbage after the values is refused
    g = Grid(1, 4.0, 16)
    p = tmp_path / "field.cgsf"
    save_field(Field(g, np.ones(g.shape)), p)
    p.write_bytes(p.read_bytes() + b"x" * 43)
    assert p.stat().st_size == 187
    with pytest.raises(ValueError, match="43 bytes past"):
        load_field(p)


def test_centre_needs_one_component_per_axis():
    # a centre of the wrong length raises a ValueError naming N, as shift does,
    # neither dropping components nor failing on an index
    with pytest.raises(ValueError, match="center must have 1 components, got 2"):
        gaussian_field(Grid(1, 4.0, 8), [0.0, 5.0])
    with pytest.raises(ValueError, match="center must have 2 components, got 1"):
        gaussian_field(Grid(2, 4.0, 8), [0.0])
    with pytest.raises(ValueError, match="center must have 3 components, got 2"):
        Grid(3, 4.0, 8).r2([0.0, 1.0])
    g = Grid(1, 4.0, 8)
    assert gaussian_field(g, 1.0).values.tobytes() == gaussian_field(g, [1.0]).values.tobytes()


def test_gaussian_field_is_smooth_on_torus():
    g = Grid(1, 8.0, 128)
    f = gaussian_field(g, [7.5], 1.0)
    jumps = np.abs(np.diff(np.concatenate([f.values, f.values[:1]])))
    assert np.max(jumps) < 0.2  # wrap seam is as smooth as the interior


def test_only_grid_calls_numpy_fft():
    from pathlib import Path

    import choquard_gs

    package = Path(choquard_gs.__file__).resolve().parent
    callers = sorted(str(p.relative_to(package)) for p in package.rglob("*.py")
                     if "np.fft" in p.read_text() or "numpy.fft" in p.read_text())
    assert callers == ["grid.py"]


@pytest.mark.parametrize("N, n", [(1, 16), (2, 8), (3, 8)])
def test_grid_tables_are_built_once_and_read_only(N, n):
    g = Grid(N, 2.5, n)
    xi2 = ((np.pi / g.L) * np.fft.fftfreq(n, d=1.0 / n)) ** 2
    uncached = {
        "axis_coords": -g.L + g.h * np.arange(n),
        "freq2": functools.reduce(np.add.outer, [xi2] * (N - 1) + [xi2[: n // 2 + 1]]),
        "half_weights": np.where(np.arange(n // 2 + 1) % (n // 2) == 0, 1.0, 2.0),
    }
    for name, want in uncached.items():
        table = getattr(g, name)
        assert table.shape == want.shape and table.tobytes() == want.tobytes()
        assert getattr(g, name) is table
        with pytest.raises(AttributeError):
            setattr(g, name, want)
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1.0
        with pytest.raises(ValueError):
            table *= 2.0
        assert table.tobytes() == want.tobytes()


@pytest.mark.parametrize("N, n", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("n_bumps", [3, 12])
def test_random_smooth_field_matches_the_per_bump_oracle(N, n, n_bumps, monkeypatch):
    # the default bump count, and another one set through the module constant
    assert grid_module.SMOOTH_FIELD_BUMPS == 3
    monkeypatch.setattr(grid_module, "SMOOTH_FIELD_BUMPS", n_bumps)
    g = Grid(N, 4.0, n)
    for seed in range(6):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_smooth_field(g, rng)
        want = random_smooth_field_per_bump(g, ref, n_bumps)
        assert got.values.tobytes() == want.values.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("N, n", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("n_bumps", [3, 12])
def test_random_smooth_fields_match_k_per_bump_oracle_draws(N, n, n_bumps, monkeypatch):
    # one stack, every row and the generator state after it as k oracle draws;
    # the last seed takes verify's pattern, stacks of 7, 100, 1 and 50 in turn
    # from one generator, and an empty one, which draws nothing
    monkeypatch.setattr(grid_module, "SMOOTH_FIELD_BUMPS", n_bumps)
    g = Grid(N, 4.0, n)
    for seed, ks in [(0, [1]), (1, [2]), (2, [7]), (3, [20]), (4, [7, 100, 0, 1, 50])]:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in ks:
            got = random_smooth_fields(g, rng, k)
            want = [random_smooth_field_per_bump(g, ref, n_bumps).values for _ in range(k)]
            assert got.shape == (k,) + g.shape
            assert got.tobytes() == np.array(want).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
def test_random_smooth_fields_take_any_bit_generator(bit_generator):
    # the draws are rng.random's, so every bit generator gives the oracle's
    # fields, and an empty stack draws nothing: the next doubles of both
    # generators agree (MT19937's state holds an array, so it is not compared)
    g = Grid(2, 4.0, 16)
    rng, ref = (np.random.Generator(bit_generator(5)) for _ in range(2))
    got = random_smooth_fields(g, rng, 3)
    want = [random_smooth_field_per_bump(g, ref).values for _ in range(3)]
    assert got.tobytes() == np.array(want).tobytes()
    assert random_smooth_field(g, rng).values.tobytes() == \
        random_smooth_field_per_bump(g, ref).values.tobytes()
    assert random_smooth_fields(g, rng, 0).shape == (0,) + g.shape
    assert rng.random(8).tobytes() == ref.random(8).tobytes()


@pytest.mark.parametrize("N, n, L", [(1, 64, 4.0), (2, 16, 3.0), (3, 8, 16.0)])
def test_min_image_matches_the_float_remainder(N, n, L):
    # bit for bit numpy's (x + L) % (2L) - L, on a grid's coordinate rows and
    # on values below -L and above L, exact multiples of 2L, the box ends,
    # -0.0, and the x where x + L is 2L, 4L or -2L (the ends of the range
    # wrapped without np.fmod) with their neighbours; each value also as its
    # own array, so that every one in that range takes the path without fmod
    g = Grid(N, L, n)
    rng = np.random.default_rng(N)
    ends = np.array([L, 3 * L, -3 * L])
    special = np.concatenate([
        [-0.0, 0.0, -L, L, 2 * L, -2 * L, 6 * L, -6 * L, 3 * L, -3 * L,
         np.nextafter(-L, 0), np.nextafter(L, 0), np.nextafter(-L, -np.inf),
         -1e-300, 1e-300, -5e-324, 7.5 * L, -7.5 * L],
        np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf), [-4 * L, 4 * L]])
    assert [(e + L) / L for e in ends] == [2.0, 4.0, -2.0]
    values = np.concatenate([special, rng.uniform(-9 * L, 9 * L, 500)])
    in_range = values[(values + L >= -2 * L) & (values + L < 4 * L)]
    draws = values[: 6 * N].reshape(6, N, 1)
    for x in (values, values.reshape(-1, 2), in_range, *special[:, None],
              g.axis_coords - draws, g.axis_coords, np.zeros((0, N, n))):
        want = (x + L) % (2 * L) - L
        assert min_image(g, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("N, n", [(1, 64), (2, 16), (3, 8)])
def test_row_dots_match_vdot_row_by_row(N, n):
    g = Grid(N, 4.0, n)
    a, b = (random_smooth_fields(g, np.random.default_rng(seed), 5) for seed in (0, 1))
    want = [float(np.vdot(x, y)) for x, y in zip(a, b)]
    assert row_dots(a, b, N).tobytes() == np.array(want).tobytes()
    shared = [float(np.vdot(b[0], y)) for y in a]
    assert row_dots(b[0], a, N).tobytes() == np.array(shared).tobytes()
    # two single grid arrays give np.vdot's Python float itself
    one = row_dots(a[0], b[0], N)
    assert type(one) is float and one == want[0]
    assert row_dots(a[:1], b[:1], N).tobytes() == np.array(want[:1]).tobytes()

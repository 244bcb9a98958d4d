"""Periodic box discretization: the one transform convention, the torus metric,
quadrature, exact lattice shifts and spectral translations.

Transform convention, used by every spectral operator in the package: the
unnormalised real-to-complex DFT over the trailing N axes (the result of
``np.fft.rfftn``, inverse ``irfftn``; further leading axes stack rows), node 0
at x = -L. Fields are real, so only the half spectrum is kept, on the grid of
``Grid.freq2``: FFT index order on the leading axes, wavenumbers 0..n/2 on the
last; sums over the full spectrum weight it by ``Grid.half_weights``. No other
module calls ``np.fft``.

Every inner product of grid values is ``row_dots``: ``float(np.vdot(a, b))``
for two grid arrays, one BLAS call with no grid-sized temporary, and for a
stack ``np.vecdot`` over the trailing N axes, the same BLAS dot per row.
"""

from __future__ import annotations

import functools
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

FIELD_MAGIC = b"CGSF"
_FIELD_HEADER = struct.Struct("<4sB3xIf")
SMOOTH_FIELD_BUMPS = 3   # signed Gaussian bumps in each random smooth field


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the box [-L, L)^N, periodically extended, n points per axis.

    axis_coords, freq2 and half_weights are built on an instance's first read,
    and every later read returns that same array, read-only."""

    N: int
    L: float
    n: int

    def __post_init__(self):
        if self.N not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.N}")
        if not self.L > 0:
            raise ValueError("box half-period L must be positive")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError("points per axis must be even and >= 8")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.N

    @property
    def size(self) -> int:
        return self.n**self.N

    @property
    def cell_volume(self) -> float:
        return self.h**self.N

    @functools.cached_property
    def axis_coords(self) -> np.ndarray:
        return _read_only(-self.L + self.h * np.arange(self.n))

    def axis_freqs(self) -> np.ndarray:
        """Angular frequencies xi_k = pi*k/L in FFT index order."""
        return (np.pi / self.L) * np.fft.fftfreq(self.n, d=1.0 / self.n)

    @staticmethod
    def _axis_sum(rows) -> np.ndarray:
        """Sum over axes of per-axis 1-D terms, each broadcast along its own axis."""
        return functools.reduce(np.add.outer, rows)

    @functools.cached_property
    def freq2(self) -> np.ndarray:
        """|xi|^2 on the half-spectrum grid of dft (FFT entry n/2 is -n/2, same square)."""
        xi2 = self.axis_freqs() ** 2
        return _read_only(self._axis_sum([xi2] * (self.N - 1) + [xi2[: self.n // 2 + 1]]))

    @functools.cached_property
    def half_weights(self) -> np.ndarray:
        """Copies in the full spectrum of each half-spectrum coefficient, along the
        last axis: 1 at k = 0 and k = n/2 (self-mirrored), 2 elsewhere."""
        return _read_only(np.where(np.arange(self.n // 2 + 1) % (self.n // 2) == 0, 1.0, 2.0))

    def r2(self, center=None) -> np.ndarray:
        """Squared minimal-image distance of every node from center (default the origin)."""
        if center is None:
            center = np.zeros(self.N)
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.N,):
            raise ValueError(f"center must have {self.N} components, got {center.size}")
        d = min_image(self, self.axis_coords - center[:, None])
        return self._axis_sum(list(d * d))

    def offset_r2(self) -> np.ndarray:
        """Squared minimal-image length of each node offset, FFT index order (0 first)."""
        d = self.h * (((np.arange(self.n) + self.n // 2) % self.n) - self.n // 2)
        return self._axis_sum([d**2] * self.N)

    def cells_per_unit(self) -> int:
        """Grid cells per unit length; integral so unit-lattice shifts are exact."""
        cpu = self.n / (2.0 * self.L)
        if abs(cpu - round(cpu)) > 1e-9 * cpu or round(cpu) < 1:
            raise ValueError(
                f"one length unit is not an integer number of cells (n={self.n}, L={self.L})"
            )
        return int(round(cpu))


@dataclass(eq=False)
class Field:
    """Real grid function, values in row-major order over the box nodes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if np.iscomplexobj(values):
            raise ValueError(f"field values must be real, got dtype {values.dtype}")
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")


def _check_same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def dft(values: np.ndarray, N: int | None = None) -> np.ndarray:
    """Unnormalised real-to-complex DFT over the trailing N axes (default all).

    The stages rfftn runs, rfft on the last axis then fft on each other one,
    called directly: rfftn's argument handling costs about as much as a small
    transform, and each later stage runs in place on the new spectrum."""
    N = np.ndim(values) if N is None else N
    spec = np.fft.rfft(values)
    for axis in range(-2, -N - 1, -1):
        np.fft.fft(spec, axis=axis, out=spec)
    return spec


def _idft_consuming(work: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """idft_real that may overwrite work, the caller's own fresh spectrum."""
    for axis in range(-len(shape), -1):
        np.fft.ifft(work, axis=axis, out=work)
    return np.fft.irfft(work, shape[-1])


def idft_real(coeffs: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of dft back to real values whose trailing axes have the given shape;
    coeffs are left as they are."""
    if len(shape) == 1:
        return np.fft.irfft(coeffs, shape[0])
    # the first stage writes a new array; the rest run in place on it
    return _idft_consuming(np.fft.ifft(coeffs, axis=-len(shape)), shape[1:])


def apply_multiplier(multiplier: np.ndarray, values: np.ndarray,
                     spec: np.ndarray | None = None) -> np.ndarray:
    """Fourier multiplier (symbol on the freq2 grid) applied to real grid values,
    or to each of a stack of them; spec, the values' dft when the caller has it,
    saves the forward transform and is left as it is."""
    N = multiplier.ndim
    if spec is None:
        spec = dft(values, N)
        spec *= multiplier
    else:
        spec = multiplier * spec
    return _idft_consuming(spec, values.shape[-N:])


def check_stack(grid: Grid, vals) -> None:
    """Raise ValueError unless vals is a (k, *grid.shape) stack of grid values, k >= 1."""
    if getattr(vals, "shape", ())[1:] != grid.shape or len(vals) == 0:
        raise ValueError(f"expected a non-empty (k, *{grid.shape}) stack of values, "
                         f"got {type(vals).__name__} of shape {np.shape(vals)}")


def row_dots(a: np.ndarray, b: np.ndarray, N: int) -> float | np.ndarray:
    """Inner products over the trailing N axes: a Python float for two single
    grid arrays, else one per row of a stack, either side of which may be a
    single grid array that every row shares."""
    if a.ndim == b.ndim == N:
        return float(np.vdot(a, b))
    return np.vecdot(a.reshape(a.shape[:a.ndim - N] + (-1,)),
                     b.reshape(b.shape[:b.ndim - N] + (-1,)))


def l2_inner(f: Field, g: Field) -> float:
    """Box inner product, Riemann sum with weight h^N."""
    _check_same_grid(f, g)
    return f.grid.cell_volume * row_dots(f.values, g.values, f.grid.N)


def l2_norm2(f: Field) -> float:
    return f.grid.cell_volume * row_dots(f.values, f.values, f.grid.N)


def l2_norm(f: Field) -> float:
    return float(np.sqrt(l2_norm2(f)))


def shift(f: Field, z) -> Field:
    """Translate by z: returns g with g(x) = f(x - z), exact circular shift.

    Each component of z must be an integer multiple of the grid spacing;
    no interpolation is ever performed.
    """
    g = f.grid
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (g.N,):
        raise ValueError(f"shift vector must have {g.N} components")
    cells = z / g.h
    rounded = np.round(cells)
    if np.any(np.abs(cells - rounded) > 1e-9):
        raise ValueError(f"shift {z} is not an integer number of cells (h={g.h})")
    return Field(g, np.roll(f.values, tuple(int(c) for c in rounded), axis=tuple(range(g.N))))


class Translations:
    """Translations S_a u = u(. - a h) of grid values by any a, in cells, on the
    half spectrum of dft, and the lattice roll that brings a bump home.

    S_a multiplies coefficient k by exp(-i theta_k a) with theta_k = 2 pi k / n
    per axis; the self-mirrored Nyquist entries take cos(pi a), which keeps the
    spectrum that of a real field and is exact for integer a. The derivative
    per cell multiplies by i theta_k, 0 at Nyquist, which is d/da of S_a at 0.
    The wavenumber rows are built once, with the instance.
    """

    def __init__(self, grid: Grid):
        n = grid.n
        self._theta = (2.0 * np.pi / n) * np.fft.fftfreq(n, d=1.0 / n)
        self._dtheta = np.where(np.arange(n) == n // 2, 0.0, self._theta)
        self._half = n // 2 + 1
        self._weights = grid.half_weights / grid.size
        self._x = grid.axis_coords
        self._cpu = grid.cells_per_unit()
        self.shape = grid.shape

    def shifted(self, spec: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
        """Values and half spectrum of S_a u from the half spectrum of u."""
        rows = []
        for ai in a:
            row = np.exp(-1j * ai * self._theta)
            row[self._half - 1] = np.cos(np.pi * ai)
            rows.append(row)
        rows[-1] = rows[-1][: self._half]
        moved = functools.reduce(np.multiply.outer, rows)
        moved *= spec
        return idft_real(moved, self.shape), moved

    def slope(self, u_spec: np.ndarray, g_spec: np.ndarray) -> np.ndarray:
        """sum_x g(x) d_i u(x) on each axis i, d_i per cell, by Parseval over the
        half spectra of u and g."""
        cross = g_spec.conj()
        cross *= u_spec
        cross = cross.imag * self._weights
        N = cross.ndim
        return np.array([-float(cross.sum(axis=tuple(b for b in range(N) if b != i))
                                @ self._dtheta[: cross.shape[i]]) for i in range(N)])

    def home(self, values: np.ndarray) -> np.ndarray:
        """The lattice roll, in cells, that moves the peak of |u| into the unit
        cell at the origin. Coordinates round half to even: a peak at a
        half-integer x goes home to +0.5 if floor(x) is even, else to -0.5."""
        peak = np.unravel_index(int(np.argmax(np.abs(values))), self.shape)
        return np.array([-round(self._x[k]) * self._cpu for k in peak], dtype=float)


def min_image(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Wrap an array of coordinates to the fundamental box [-L, L): numpy's
    float remainder (x + L) % 2L - L, bit for bit.

    With every y = x + L in [-2L, 4L), the remainder is y, y + 2L below 0,
    or y - 2L from 2L on, a difference that is exact there (Sterbenz).
    Otherwise np.fmod, which costs several times these passes, plus 2L where
    it is negative gives it."""
    L, two = grid.L, 2.0 * grid.L
    w = np.asarray(x) + L
    lo, hi = w.min(initial=np.inf), w.max(initial=-np.inf)
    if not (lo >= -two and hi < 2.0 * two):   # NaN lands here too
        w = np.fmod(w, two)
    elif hi >= two:
        np.subtract(w, two, out=w, where=w >= two)
    if lo < 0.0:
        np.add(w, two, out=w, where=w < 0.0)
    w -= L
    return w


def gaussian_field(grid: Grid, center=None, width: float = 1.0, amplitude: float = 1.0) -> Field:
    """Gaussian bump, periodized through minimal-image distance so it is smooth on the torus."""
    return Field(grid, amplitude * np.exp(-grid.r2(center) / width**2))


def random_smooth_fields(grid: Grid, rng: np.random.Generator, k: int) -> np.ndarray:
    """k random superpositions of SMOOTH_FIELD_BUMPS signed Gaussian bumps,
    generic smooth test fields, as one (k, *grid.shape) stack of values.

    One rng.random block gives each bump, in C order over (field, bump), N + 3
    doubles: N centre coordinates in [-L, L), the width in [0.5, max(1, L/4))
    and the amplitude's size in [0.2, 1), each lo + (hi - lo) * u as in
    rng.uniform, then the sign, negative below 0.5. So row i, and the state
    left, are those of k calls of random_smooth_field; one exp takes all."""
    N, L, n_bumps = grid.N, grid.L, SMOOTH_FIELD_BUMPS
    units = rng.random((k * n_bumps, N + 3))
    lo = np.array([-L] * N + [0.5, 0.2])
    span = np.array([L] * N + [max(1.0, L / 4), 1.0]) - lo
    draws = lo + span * units[:, :-1]
    amps = draws[:, N + 1] * np.where(units[:, -1] < 0.5, -1.0, 1.0)
    # Python's float ** (C pow), not numpy's square: they differ in the last
    # bit for about one width in a thousand
    width2 = np.array([w**2 for w in draws[:, N].tolist()])
    d2 = min_image(grid, grid.axis_coords - draws[:, :N, None]) ** 2
    r2 = d2[:, 0]
    for i in range(1, N):
        r2 = r2[..., None] + d2[:, i].reshape((-1,) + (1,) * i + (grid.n,))
    col = (-1,) + (1,) * N
    bumps = amps.reshape(col) * np.exp(-r2 / width2.reshape(col))
    return bumps.reshape((k, n_bumps) + grid.shape).sum(axis=1)


def random_smooth_field(grid: Grid, rng: np.random.Generator) -> Field:
    """Random superposition of signed Gaussian bumps; generic smooth test field."""
    return Field(grid, random_smooth_fields(grid, rng, 1)[0])


def save_field(f: Field, path, metadata: dict | None = None) -> None:
    """Write binary field file plus a JSON sidecar with grid parameters and provenance.

    Layout: 16-byte header (magic, u8 N, u32 n, f32 L) then n^N little-endian
    float64 values, row-major.
    """
    path = str(path)
    try:
        header = _FIELD_HEADER.pack(FIELD_MAGIC, f.grid.N, f.grid.n, f.grid.L)
        exact = _FIELD_HEADER.unpack(header)[3] == f.grid.L
    except OverflowError:
        exact = False
    if not exact:
        raise ValueError(f"box half-period L={f.grid.L!r} has no exact f32 value for the "
                         "field header; the file would load onto a different grid")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    meta = {
        "N": f.grid.N,
        "n": f.grid.n,
        "L": f.grid.L,
        "h": f.grid.h,
        "format": "CGSF/1 float64 row-major",
    }
    if metadata:
        meta.update(metadata)
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_field(path) -> Field:
    with open(str(path), "rb") as fh:
        header = fh.read(_FIELD_HEADER.size)
        if len(header) < _FIELD_HEADER.size:
            raise ValueError("field file truncated")
        magic, N, n, L = _FIELD_HEADER.unpack(header)
        if magic != FIELD_MAGIC:
            raise ValueError(f"not a field file (magic {magic!r})")
        grid = Grid(int(N), float(L), int(n))
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body < 8 * grid.size:
            raise ValueError("field file truncated")
        if body > 8 * grid.size:
            raise ValueError(f"field file has {body - 8 * grid.size} bytes past its values")
        data = np.frombuffer(fh.read(8 * grid.size), dtype="<f8")
    return Field(grid, data.reshape(grid.shape).copy())

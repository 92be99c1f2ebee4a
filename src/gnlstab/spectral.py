"""Fourier spectral toolbox on the periodic interval [0, L).

Equispaced grids, FFT differentiation, rectangle-rule quadrature (spectrally
accurate for periodic integrands), the parity-adapted trigonometric bases
(cosine / sine / full) that block-diagonalize Hill operators with even
potentials, and the one dense assembly of such an operator on those bases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisError, ParameterError

EVEN = "even"
ODD = "odd"
NONE = "none"

PARITIES = (EVEN, ODD, NONE)

#: relative tolerance for the parity self-consistency check of a RealField
PARITY_RTOL = 1e-10


@dataclass(frozen=True)
class PeriodicGrid:
    """Equispaced nodes x_j = j*L/N, j = 0..N-1, on the period cell [0, L)."""

    length: float
    size: int

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0.0):
            raise ParameterError(f"grid length must be positive and finite, got {self.length}")
        if not isinstance(self.size, (int, np.integer)) or self.size < 8 or self.size % 2:
            raise ParameterError(f"grid size must be an even integer >= 8, got {self.size}")
        object.__setattr__(self, "size", int(self.size))

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.size) * (self.length / self.size)

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @property
    def rfft_wavenumbers(self) -> np.ndarray:
        """Wavenumbers 2*pi*n/L for the rfft layout n = 0..N/2."""
        return 2.0 * np.pi * np.arange(self.size // 2 + 1) / self.length


def build_grid(length: float, size: int) -> PeriodicGrid:
    """Validate (L, N) and return the periodic grid."""
    return PeriodicGrid(length, size)


def _reverse(values: np.ndarray) -> np.ndarray:
    # values of x -> -x on the periodic grid: index j -> (N - j) mod N
    n = values.shape[0]
    return values[(-np.arange(n)) % n]


def parity_defect(values: np.ndarray, parity: str) -> float:
    """Max-norm deviation of ``values`` from the requested symmetry class."""
    if parity == NONE:
        return 0.0
    rev = _reverse(values)
    if parity == EVEN:
        return float(np.max(np.abs(values - rev)))
    if parity == ODD:
        return float(np.max(np.abs(values + rev)))
    raise ParameterError(f"unknown parity {parity!r}")


@dataclass(frozen=True)
class RealField:
    """Real grid function with an optional declared parity.

    Parity is validated on construction: the mismatch against the reflected
    samples must stay below PARITY_RTOL * max|values|.  Values are stored
    read-only; all operations return new fields.
    """

    grid: PeriodicGrid
    values: np.ndarray
    parity: str = NONE

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.size,):
            raise ParameterError(
                f"field has {vals.shape} values for a grid of size {self.grid.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ParameterError("field values must be finite")
        if self.parity not in PARITIES:
            raise ParameterError(f"unknown parity {self.parity!r}")
        scale = float(np.max(np.abs(vals)))
        defect = parity_defect(vals, self.parity)
        if defect > PARITY_RTOL * scale:
            raise ParameterError(
                f"declared parity {self.parity!r} violated: defect {defect:.3e} "
                f"exceeds {PARITY_RTOL:.0e} * max|values| = {PARITY_RTOL * scale:.3e}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def sample_function(grid: PeriodicGrid, fn, parity: str = NONE) -> RealField:
    """Sample fn on the grid nodes and tag the result with ``parity``."""
    return RealField(grid, np.asarray([fn(x) for x in grid.nodes], dtype=float), parity)


def project_parity(field: RealField, parity: str) -> RealField:
    """Symmetric/antisymmetric part of a field; idempotent on its own output."""
    if parity == NONE:
        return RealField(field.grid, field.values, NONE)
    rev = _reverse(field.values)
    if parity == EVEN:
        return RealField(field.grid, 0.5 * (field.values + rev), EVEN)
    if parity == ODD:
        return RealField(field.grid, 0.5 * (field.values - rev), ODD)
    raise ParameterError(f"unknown parity {parity!r}")


_DERIVATIVE_PARITY = {EVEN: ODD, ODD: EVEN, NONE: NONE}


def first_derivative(field: RealField) -> RealField:
    """Spectral d/dx.  Flips parity; the Nyquist mode is annihilated."""
    xi = field.grid.rfft_wavenumbers
    coef = np.fft.rfft(field.values) * (1j * xi)
    coef[-1] = 0.0  # odd-order derivative of the sawtooth mode is not representable
    vals = np.fft.irfft(coef, n=field.grid.size)
    return RealField(field.grid, vals, _DERIVATIVE_PARITY[field.parity])


def second_derivative(field: RealField) -> RealField:
    """Spectral d^2/dx^2.  Preserves parity."""
    xi = field.grid.rfft_wavenumbers
    coef = np.fft.rfft(field.values) * (-(xi**2))
    vals = np.fft.irfft(coef, n=field.grid.size)
    return RealField(field.grid, vals, field.parity)


def integrate(field: RealField) -> float:
    """Rectangle rule (L/N) * sum, spectrally accurate on the period cell."""
    return float(field.grid.spacing * np.sum(field.values))


def inner(f: RealField, g: RealField) -> float:
    """Discrete L2 inner product (L/N) * sum f_j g_j."""
    if f.grid != g.grid:
        raise ParameterError("inner product requires a common grid")
    return float(f.grid.spacing * np.dot(f.values, g.values))


def l2_norm(field: RealField) -> float:
    return float(np.sqrt(field.grid.spacing * np.dot(field.values, field.values)))


def resample(field: RealField, new_size: int) -> RealField:
    """Trigonometric interpolation onto a grid with ``new_size`` nodes.

    Exact for band-limited fields; downsampling truncates the spectrum.
    """
    grid = field.grid
    new_grid = PeriodicGrid(grid.length, new_size)
    n, m = grid.size, new_grid.size
    coef = np.fft.rfft(field.values)
    if m >= n:
        out = np.zeros(m // 2 + 1, dtype=complex)
        out[: n // 2] = coef[: n // 2]
        out[n // 2] = 0.5 * coef[n // 2]  # split the Nyquist cosine between +/- modes
    else:
        out = coef[: m // 2 + 1].copy()
        out[m // 2] = out[m // 2].real  # target Nyquist mode carries no phase
    vals = np.fft.irfft(out * (m / n), n=m)
    return RealField(new_grid, vals, field.parity)


COSINE = "cosine"
SINE = "sine"
FULL = "full_fourier"

_BASIS_KINDS = (COSINE, SINE, FULL)
_BASIS_PARITY = {COSINE: EVEN, SINE: ODD, FULL: NONE}


def _mode_weights(modes: np.ndarray, size: int) -> np.ndarray:
    """L / ||b||^2 of b = cos or sin(2 pi m x / L) under (L/N) * sum_j:
    1 at m = 0 and m = N/2, 2 elsewhere."""
    return np.where((modes == 0) | (modes == size // 2), 1.0, 2.0)


@dataclass(frozen=True)
class ParityBasis:
    """Discrete-orthonormal trigonometric basis on a periodic grid.

    cosine:       cos(2*pi*n*x/L), n = 0..N/2          (even subspace, N/2+1)
    sine:         sin(2*pi*n*x/L), n = 1..N/2-1        (odd subspace,  N/2-1)
    full_fourier: cosine block followed by sine block   (dimension N)

    Columns are normalized against the quadrature inner product
    (L/N) * sum_j, so analysis/synthesis are transposes of each other up to
    the quadrature weight.
    """

    kind: str
    grid: PeriodicGrid

    def __post_init__(self):
        if self.kind not in _BASIS_KINDS:
            raise BasisError(f"unknown basis kind {self.kind!r}")

    @property
    def dimension(self) -> int:
        n = self.grid.size
        if self.kind == COSINE:
            return n // 2 + 1
        if self.kind == SINE:
            return n // 2 - 1
        return n

    @property
    def parity(self) -> str:
        return _BASIS_PARITY[self.kind]

    def frequencies(self) -> np.ndarray:
        """Wavenumber of each column (2*pi*n/L)."""
        n = self.grid.size
        two_pi_over_l = 2.0 * np.pi / self.grid.length
        cos_part = two_pi_over_l * np.arange(n // 2 + 1)
        sin_part = two_pi_over_l * np.arange(1, n // 2)
        if self.kind == COSINE:
            return cos_part
        if self.kind == SINE:
            return sin_part
        return np.concatenate([cos_part, sin_part])

    def _cosine_scale(self) -> np.ndarray:
        # normalizations of cos(2 pi m x / L), m = 0..N/2
        m = np.arange(self.grid.size // 2 + 1)
        return np.sqrt(_mode_weights(m, self.grid.size) / self.grid.length)

    def matrix(self) -> np.ndarray:
        """Synthesis matrix: (N, dimension), column n = basis function at nodes.

        :meth:`analyze` and :meth:`synthesize` apply it and its transpose
        by FFT without forming it.
        """
        x = self.grid.nodes[:, None]
        length, n = self.grid.length, self.grid.size
        blocks = []
        if self.kind in (COSINE, FULL):
            m = np.arange(n // 2 + 1)
            blocks.append(self._cosine_scale() * np.cos(2.0 * np.pi * m * x / length))
        if self.kind in (SINE, FULL):
            m = np.arange(1, n // 2)
            blocks.append(np.sqrt(2.0 / length) * np.sin(2.0 * np.pi * m * x / length))
        return np.hstack(blocks)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Coefficients (L/N) * matrix().T @ values of one grid function.

        Exact for fields in the subspace; the component outside it is
        dropped.  One rfft: cosine coefficients come from its real part,
        sine coefficients from minus its imaginary part.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.grid.size,):
            raise ParameterError(
                f"expected {self.grid.size} grid values, got {values.shape}"
            )
        spec = self.grid.spacing * np.fft.rfft(values)
        parts = []
        if self.kind in (COSINE, FULL):
            parts.append(self._cosine_scale() * spec.real)
        if self.kind in (SINE, FULL):
            parts.append(-np.sqrt(2.0 / self.grid.length) * spec.imag[1:-1])
        return np.concatenate(parts)

    def synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        """Grid values matrix() @ coefficients of a coefficient vector, by one irfft."""
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (self.dimension,):
            raise ParameterError(
                f"expected {self.dimension} coefficients, got {coefficients.shape}"
            )
        n = self.grid.size
        spec = np.zeros(n // 2 + 1, dtype=complex)
        if self.kind in (COSINE, FULL):
            spec.real = self._cosine_scale() * coefficients[: n // 2 + 1]
        if self.kind in (SINE, FULL):
            spec.imag[1:-1] = -np.sqrt(2.0 / self.grid.length) * coefficients[-(n // 2 - 1):]
        spec[1:-1] *= 0.5  # irfft counts each interior mode twice, as +m and -m
        return n * np.fft.irfft(spec, n=n)

    def field(self, coefficients: np.ndarray) -> RealField:
        return RealField(self.grid, self.synthesize(coefficients), self.parity)


#: machine epsilon of float64, looked up once
_EPS = np.finfo(float).eps


def _rounding_floor(dimension: int, norm):
    """dimension * eps * norm: how far rounding may move a computed
    eigenvalue; elementwise for an array of norms."""
    return dimension * _EPS * norm


def _plus_diagonal(matrix: np.ndarray, shift: float) -> np.ndarray:
    """matrix + shift * I, in place on a C-ordered square matrix."""
    diagonal = matrix.reshape(-1)[:: matrix.shape[0] + 1]
    diagonal += shift
    return matrix


def _rayleigh_ritz(apply, y: np.ndarray) -> tuple:
    """The Ritz values, ascending, and vectors of each symmetric matrix M of
    a stack on the span of the columns of its y, a (rows, d, k) stack, with
    ``apply(x)`` = M x for each matrix's (d, k) block of x: the j-th Ritz
    value bounds the j-th eigenvalue of M from above (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998, chapter 11)."""
    q = np.linalg.qr(y)[0]
    theta, w = np.linalg.eigh(q.transpose(0, 2, 1) @ apply(q))
    return theta, q @ w


def _potential_tables(grid: PeriodicGrid, potential: np.ndarray) -> tuple:
    """2 C_k and 2 S_k of ``potential`` for k = 0..2N-1, read-only, with
    C_k - i S_k = sum_j q_j exp(-2 pi i j k / N), from one rfft: C_{N-k} = C_k
    and S_{N-k} = -S_k hold exactly, so the blocks built from them are exactly
    symmetric.  The factor 2 is the weight sqrt(w_m w_n) of an interior
    entry; doubling is exact, and 2a + 2b rounds to exactly 2 (a + b)."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (grid.size,):
        raise ParameterError(
            f"potential has {potential.shape} values for a grid of size {grid.size}"
        )
    n = grid.size
    half = np.fft.rfft(potential)
    k = np.arange(n)
    folded = np.minimum(k, n - k)
    c = np.tile(2.0 * half.real[folded], 2)
    s = np.tile(np.where(k <= n // 2, -2.0, 2.0) * half.imag[folded], 2)
    c.setflags(write=False)
    s.setflags(write=False)
    return c, s


#: sqrt(2) / 2: turns the doubled entry of an edge row or column (m = 0 or
#: m = N/2) into sqrt(2) times the entry, rounded once as sqrt(2) * entry is
_EDGE = 0.5 * np.sqrt(2.0)


def _window(table: np.ndarray, first: int, shape: tuple, step: int) -> np.ndarray:
    """The view v[i, j] = table[first + i + step * j] of ``shape``, read-only
    as the table is.  numpy checks that it lies inside the table and raises
    ValueError otherwise, so a wrong offset cannot read past either end."""
    size = table.itemsize
    return np.ndarray(shape, table.dtype, table, first * size, (size, step * size))


def _potential_block(out, row0: int, col0: int, table, combine, n: int) -> None:
    """Write combine(table_{m+n}, table_{m-n+N}), ``combine`` np.add or
    np.subtract, into ``out`` for rows m = row0.. and columns n = col0..

    Both terms are strided windows of the table: the Hankel term steps +1
    along a row and the Toeplitz term -1, and both step +1 down a column.
    No index array is built or gathered through."""
    hankel = _window(table, row0 + col0, out.shape, 1)
    toeplitz = _window(table, row0 - col0 + n, out.shape, -1)
    combine(hankel, toeplitz, out=out)


def hill_matrix(basis: ParityBasis, omega: float, potential: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix of -d_xx + omega - potential on ``basis``.

    The kinetic part is the exact diagonal symbol xi^2.  The potential block
    is the rectangle-rule Galerkin matrix (L/N) * sum_j q_j b_m(x_j) b_n(x_j)
    of the basis functions b, i.e. pointwise multiplication conjugated by the
    basis transforms, aliasing included (the grid-doubling checks control
    it).  Product-to-sum identities make it a Toeplitz-plus-Hankel matrix in
    the DFT of q: with C_k - i S_k = sum_j q_j exp(-2 pi i j k / N), indices
    mod N, and w_m = 1 at m = 0 and m = N/2 and 2 elsewhere,

        cos m . cos n  ->  sqrt(w_m w_n) (C_{m-n} + C_{m+n}) / 2
        sin m . sin n  ->  sqrt(w_m w_n) (C_{m-n} - C_{m+n}) / 2
        cos m . sin n  ->  sqrt(w_m w_n) (S_{n+m} + S_{n-m}) / 2

    so one rfft builds it, and each block is two strided windows of one
    coefficient table (a Hankel and a Toeplitz window, see
    :func:`_potential_block`) added or subtracted in place; no index array is
    gathered through.  The weight is sqrt(w_m w_n) in {2, sqrt(2), 1}, not
    sqrt(w_m) * sqrt(w_n): sqrt(2)**2 rounds to 2(1 + eps), a bias that
    moves eigenvalues near zero by ~eps * ||q||.  It is folded in by powers
    of two, so every entry rounds exactly as sqrt(w_m w_n) * (sum) does: the
    tables hold 2 C_k and 2 S_k, which makes an interior entry 2 * (sum)
    exactly; the O(N) entries on an edge row or column are multiplied by
    sqrt(2)/2, which rounds (sqrt(2)/2) * (2 sum) = sqrt(2) * sum once, and
    the four corners (edge row and edge column) by 1/2, which is exact.  The
    result is exactly symmetric, and the cosine and sine blocks of the full
    basis are, bit for bit, the matrices on the cosine and on the sine basis.
    """
    n = basis.grid.size
    c, s = _potential_tables(basis.grid, potential)
    nc = n // 2 + 1 if basis.kind != SINE else 0
    scale = -0.5 / n
    pot = np.empty((basis.dimension, basis.dimension))
    # a step of nc - 1 = N/2 picks the edge rows or columns m = 0 and N/2
    if basis.kind != SINE:
        cos_block = pot[:nc, :nc]
        _potential_block(cos_block, 0, 0, c, np.add, n)
        cos_block[:: nc - 1, 1:-1] *= _EDGE
        cos_block[1:-1, :: nc - 1] *= _EDGE
        cos_block[:: nc - 1, :: nc - 1] *= 0.5
        cos_block *= scale
    if basis.kind != COSINE:
        # sin . sin holds the negated difference C_{m-n} - C_{m+n}: scaling
        # the difference by -scale rounds as negating it and scaling by scale
        # does, sign of zero included; where the two are equal, computing
        # C_{m-n} - C_{m+n} directly would give +0 for -(+0) = -0
        sin_block = pot[nc:, nc:]
        _potential_block(sin_block, 1, 1, c, np.subtract, n)
        sin_block *= -scale
    if basis.kind == FULL:
        cross = pot[nc:, :nc]
        _potential_block(cross, 1, 0, s, np.add, n)
        cross[:, :: nc - 1] *= _EDGE
        cross *= scale
        pot[:nc, nc:] = cross.T
    pot[np.diag_indices_from(pot)] += basis.frequencies() ** 2 + omega
    return pot


def sector_coupling(grid: PeriodicGrid, potential: np.ndarray) -> float:
    """max |entry| of the cosine-sine block of :func:`hill_matrix` on the full
    basis, bit for bit, without assembling the full matrix: the block holds
    only the odd part of the potential (the S_k), and it is built alone in a
    temporary freed on return."""
    n = grid.size
    _, s = _potential_tables(grid, potential)
    block = np.empty((n // 2 - 1, n // 2 + 1))
    _potential_block(block, 1, 0, s, np.add, n)
    block[:, :: n // 2] *= _EDGE
    # |x * c| = |x| * |c| and rounding is monotone: the max of the scaled
    # entries is the scaled max, and max |x| is max(max x, -min x)
    return float(max(block.max(), -block.min())) * (0.5 / n)

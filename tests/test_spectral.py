"""Grids, fields, parity handling, and spectral calculus."""

import numpy as np
import pytest

import oracles
from gnlstab import spectral
from gnlstab.errors import BasisError, ParameterError
from gnlstab.spectral import (
    COSINE,
    EVEN,
    FULL,
    NONE,
    ODD,
    SINE,
    ParityBasis,
    RealField,
    build_grid,
    first_derivative,
    hill_matrix,
    inner,
    integrate,
    l2_norm,
    parity_defect,
    project_parity,
    resample,
    sample_function,
    second_derivative,
    sector_coupling,
)

TWO_PI = 2.0 * np.pi


def test_build_grid_nodes():
    grid = build_grid(TWO_PI, 8)
    assert np.allclose(grid.nodes, np.arange(8) * np.pi / 4.0)
    assert grid.spacing == pytest.approx(np.pi / 4.0)


def test_build_grid_spacing_unit_length():
    grid = build_grid(1.0, 16)
    assert grid.spacing == pytest.approx(1.0 / 16.0)


def test_build_grid_rejects_odd_size():
    with pytest.raises(ParameterError):
        build_grid(TWO_PI, 7)


def test_build_grid_rejects_tiny_size():
    with pytest.raises(ParameterError):
        build_grid(TWO_PI, 4)


def test_build_grid_rejects_nonpositive_length():
    with pytest.raises(ParameterError):
        build_grid(0.0, 16)
    with pytest.raises(ParameterError):
        build_grid(-1.0, 16)


def test_second_derivative_cosine():
    grid = build_grid(TWO_PI, 16)
    f = sample_function(grid, np.cos, EVEN)
    d2 = second_derivative(f)
    assert np.max(np.abs(d2.values + np.cos(grid.nodes))) <= 1e-12
    assert d2.parity == EVEN


def test_second_derivative_constant():
    grid = build_grid(TWO_PI, 16)
    f = RealField(grid, np.ones(16), EVEN)
    assert np.max(np.abs(second_derivative(f).values)) <= 1e-13


def test_second_derivative_sin3x():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, lambda x: np.sin(3 * x), ODD)
    d2 = second_derivative(f)
    assert np.max(np.abs(d2.values + 9.0 * np.sin(3 * grid.nodes))) <= 1e-11
    assert d2.parity == ODD


def test_first_derivative_flips_parity():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, np.cos, EVEN)
    df = first_derivative(f)
    assert np.max(np.abs(df.values + np.sin(grid.nodes))) <= 1e-12
    assert df.parity == ODD


def test_integrate_constant():
    grid = build_grid(TWO_PI, 16)
    assert integrate(RealField(grid, np.ones(16), EVEN)) == pytest.approx(TWO_PI)


def test_integrate_cosine_vanishes():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, np.cos, EVEN)
    assert abs(integrate(f)) <= 1e-14


def test_integrate_cosine_squared():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, lambda x: np.cos(x) ** 2, EVEN)
    assert integrate(f) == pytest.approx(np.pi, abs=1e-12)


def test_project_parity_decomposition():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, lambda x: np.cos(x) + np.sin(x))
    even = project_parity(f, EVEN)
    odd = project_parity(f, ODD)
    assert np.max(np.abs(even.values - np.cos(grid.nodes))) <= 1e-14
    assert np.max(np.abs(odd.values - np.sin(grid.nodes))) <= 1e-14
    # the two projections reconstruct the input exactly up to rounding
    assert np.max(np.abs(even.values + odd.values - f.values)) <= 1e-15


def test_project_parity_idempotent():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, np.cos, EVEN)
    again = project_parity(f, EVEN)
    assert np.max(np.abs(again.values - f.values)) <= 1e-15


def test_parity_tag_is_validated():
    grid = build_grid(TWO_PI, 16)
    asymmetric = np.cos(grid.nodes) + 0.3 * np.sin(grid.nodes)
    with pytest.raises(ParameterError):
        RealField(grid, asymmetric, EVEN)
    # the untagged constructor accepts anything
    RealField(grid, asymmetric, NONE)


def test_parity_defect_scales():
    grid = build_grid(TWO_PI, 16)
    vals = np.cos(grid.nodes) + 1e-13 * np.sin(grid.nodes)
    assert parity_defect(vals, EVEN) <= 3e-13


def test_parseval():
    grid = build_grid(TWO_PI, 64)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(10)
    vals = sum(c * np.cos(n * grid.nodes) for n, c in enumerate(coeffs))
    f = RealField(grid, vals, EVEN)
    mass = integrate(RealField(grid, vals**2, EVEN))
    fhat = np.fft.rfft(vals) / grid.size
    spectral_mass = grid.length * (
        np.abs(fhat[0]) ** 2
        + 2.0 * np.sum(np.abs(fhat[1:-1]) ** 2)
        + np.abs(fhat[-1]) ** 2
    )
    assert abs(mass - spectral_mass) <= 1e-12 * mass
    assert inner(f, f) == pytest.approx(mass)
    assert l2_norm(f) == pytest.approx(np.sqrt(mass))


def test_second_derivative_twice_is_fourth_derivative():
    grid = build_grid(TWO_PI, 64)
    vals = np.cos(3 * grid.nodes) + 0.5 * np.cos(7 * grid.nodes)
    f = RealField(grid, vals, EVEN)
    d4 = second_derivative(second_derivative(f))
    xi = grid.rfft_wavenumbers
    direct = np.fft.irfft(np.fft.rfft(vals) * xi**4, n=grid.size)
    assert np.max(np.abs(d4.values - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_grid_refinement_leaves_calculus_unchanged():
    coarse = build_grid(TWO_PI, 32)
    fine_vals_fn = lambda x: np.cos(2 * x) + 0.25 * np.cos(5 * x) + 1.0
    f = sample_function(coarse, fine_vals_fn, EVEN)
    g = resample(f, 64)
    assert abs(integrate(f) - integrate(g)) <= 1e-12 * abs(integrate(f))
    d2f = second_derivative(f)
    d2g = second_derivative(g)
    # compare on the shared nodes (every second fine node)
    assert np.max(np.abs(d2g.values[::2] - d2f.values)) <= 1e-12 * np.max(np.abs(d2f.values))


def test_resample_round_trip():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, lambda x: 1.0 + np.cos(x) + 0.1 * np.cos(4 * x), EVEN)
    back = resample(resample(f, 64), 32)
    assert np.max(np.abs(back.values - f.values)) <= 1e-13


def test_basis_dimensions_sum_to_grid_size():
    grid = build_grid(TWO_PI, 32)
    cos_b = ParityBasis(COSINE, grid)
    sin_b = ParityBasis(SINE, grid)
    full_b = ParityBasis(FULL, grid)
    assert cos_b.dimension == 17
    assert sin_b.dimension == 15
    assert cos_b.dimension + sin_b.dimension == full_b.dimension == 32


@pytest.mark.parametrize("size", [16, 32, 256, 1024])
@pytest.mark.parametrize("kind", [COSINE, SINE, FULL])
def test_basis_matrix_matches_column_reference(kind, size):
    for length in (TWO_PI, 6.2831853, 3.7):
        mat = ParityBasis(kind, build_grid(length, size)).matrix()
        assert np.array_equal(mat, oracles.basis_matrix_reference(kind, length, size))


def test_basis_orthonormal_under_quadrature():
    grid = build_grid(TWO_PI, 32)
    for kind in (COSINE, SINE, FULL):
        basis = ParityBasis(kind, grid)
        mat = basis.matrix()
        gram = grid.spacing * mat.T @ mat
        assert np.max(np.abs(gram - np.eye(basis.dimension))) <= 1e-12


def test_basis_analyze_synthesize_round_trip():
    grid = build_grid(TWO_PI, 32)
    rng = np.random.default_rng(11)
    for kind, parity in ((COSINE, EVEN), (SINE, ODD)):
        basis = ParityBasis(kind, grid)
        coeffs = rng.standard_normal(basis.dimension)
        vals = basis.synthesize(coeffs)
        assert parity_defect(vals, parity) <= 1e-12 * max(np.max(np.abs(vals)), 1e-300)
        back = basis.analyze(vals)
        assert np.max(np.abs(back - coeffs)) <= 1e-12
        field = basis.field(coeffs)
        assert field.parity == parity


def _potentials(grid):
    # even, odd and parity-free samples: an even potential leaves the
    # cosine-sine cross block of the full basis empty, an odd one the
    # cosine-cosine and sine-sine potential blocks
    x = 2.0 * np.pi * grid.nodes / grid.length
    rng = np.random.default_rng(grid.size)
    return {
        "even": 1.5 + np.cos(x) ** 2 + 0.3 * np.cos(5.0 * x),
        "odd": 2.0 * np.sin(x) ** 3 - 0.4 * np.sin(7.0 * x),
        "none": rng.standard_normal(grid.size) + np.sin(x),
    }


@pytest.mark.parametrize("size", [16, 128, 512, 1024])
@pytest.mark.parametrize("kind", [COSINE, SINE, FULL])
def test_hill_matrix_matches_dense_reference(kind, size):
    lengths = (TWO_PI, 3.7) if size <= 128 else (3.7,)
    for length in lengths:
        basis = ParityBasis(kind, build_grid(length, size))
        for q in _potentials(basis.grid).values():
            entries = hill_matrix(basis, 0.7, q)
            reference = oracles.hill_matrix_reference(kind, length, size, 0.7, q)
            assert np.array_equal(entries, entries.T)
            assert np.max(np.abs(entries - reference)) <= 1e-13 * np.max(np.abs(reference))


def _bits(matrix):
    # the float64 bit patterns: equal arrays of these are equal bit for bit,
    # sign of zero included
    return np.ascontiguousarray(matrix).view(np.int64)


# N = 8 and 10 give sine blocks of 3 x 3 and 4 x 4, whose windows start at
# the table's ends; 2048 runs at one length only
@pytest.mark.parametrize(
    "size", [8, 10, 12, 14, 16, 30, 32, 64, 96, 128, 256, 384, 512, 1000, 1002, 1024, 2048]
)
def test_hill_matrix_matches_the_frozen_gather_assembly(size):
    lengths = (TWO_PI,) if size == 2048 else (TWO_PI, 3.7, 1e-3, 1e3)
    for length in lengths:
        grid = build_grid(length, size)
        potentials = _potentials(grid)
        noise = potentials["none"]
        potentials.update(tiny=1e-300 * noise, huge=1e300 * noise)
        for q in potentials.values():
            for kind in (COSINE, SINE, FULL):
                entries = hill_matrix(ParityBasis(kind, grid), 0.7, q)
                reference = oracles.hill_matrix_gather_reference(kind, length, size, 0.7, q)
                assert np.array_equal(_bits(entries), _bits(reference))
            assert sector_coupling(grid, q) == oracles.sector_coupling_gather_reference(size, q)


def test_a_block_window_past_the_table_raises():
    # the windows are bounds-checked views: a Toeplitz window reaching one
    # entry past either end of the 2N-entry table (the Hankel one fitting)
    # raises instead of reading memory beside it
    table, _ = spectral._potential_tables(build_grid(TWO_PI, 16), np.ones(16))
    out = np.empty((7, 9))
    spectral._potential_block(out, 1, 0, table, np.add, 16)
    for row0, col0 in ((10, 0), (0, 9)):
        with pytest.raises(ValueError):
            spectral._potential_block(out, row0, col0, table, np.add, 16)


@pytest.mark.parametrize("size", [16, 32, 256, 1024])
@pytest.mark.parametrize("kind", [COSINE, SINE, FULL])
def test_transforms_match_the_synthesis_matrix(kind, size):
    rng = np.random.default_rng(size)
    for length in (TWO_PI, 3.7):
        basis = ParityBasis(kind, build_grid(length, size))
        mat = basis.matrix()
        values = rng.standard_normal(size)
        coefficients = rng.standard_normal(basis.dimension)
        analyzed = basis.grid.spacing * (mat.T @ values)
        synthesized = mat @ coefficients
        assert np.max(np.abs(basis.analyze(values) - analyzed)) <= 1e-12 * np.max(np.abs(analyzed))
        assert np.max(np.abs(basis.synthesize(coefficients) - synthesized)) <= 1e-12 * np.max(
            np.abs(synthesized)
        )


def test_transforms_and_assembly_reject_wrong_shapes():
    grid = build_grid(TWO_PI, 16)
    for kind in (COSINE, SINE, FULL):
        basis = ParityBasis(kind, grid)
        for bad in (np.ones(18), np.ones((16, 2)), np.ones(()), np.ones(15)):
            with pytest.raises(ParameterError, match="grid values"):
                basis.analyze(bad)
            with pytest.raises(ParameterError, match="potential"):
                hill_matrix(basis, 1.0, bad)
        with pytest.raises(ParameterError, match="coefficients"):
            basis.synthesize(np.ones((basis.dimension, 2)))


def test_basis_rejects_unknown_kind():
    grid = build_grid(TWO_PI, 16)
    with pytest.raises(BasisError):
        ParityBasis("hermite", grid)


def test_sample_function_checks_declared_parity():
    grid = build_grid(TWO_PI, 16)
    with pytest.raises(ParameterError):
        sample_function(grid, np.sin, EVEN)


def test_a_lifted_cholesky_proves_the_next_eigenvalue():
    # A has one negative eigenvalue theta; A - F I factors once lifted by
    # 2 (|theta| + F) along theta's eigenvector, not unlifted, and not lifted
    # along an orthogonal vector
    theta, floor = -0.5, 0.1
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
    a = (q * np.array([theta, 1.0, 2.0, 3.0, 4.0, 5.0])) @ q.T
    a = 0.5 * (a + a.T)
    shifted = a - floor * np.eye(6)
    lift = np.array([2.0 * (abs(theta) + floor)])
    assert spectral._lifted_cholesky(shifted.copy(), q[:, :1], lift)
    assert not spectral._lifted_cholesky(shifted.copy(), q[:, :0], lift[:0])
    assert not spectral._lifted_cholesky(shifted.copy(), q[:, 1:2], lift)
    # the update is built in place
    matrix = shifted.copy()
    spectral._lifted_cholesky(matrix, q[:, :1], lift)
    assert np.allclose(matrix, shifted + lift[0] * np.outer(q[:, 0], q[:, 0]))

"""Hill operators, block compositions, and spectral-count assertions."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import oracles
from gnlstab import hill
from gnlstab.errors import BasisError, NumericalConsistencyError, ParameterError
from gnlstab.hill import (
    HillOperators,
    OperatorMatrix,
    SectorBlock,
    _summarize,
    build_block,
    build_hill,
    check_propositions,
    default_zero_tolerance,
    hill_operators,
    shifted_block_spectra,
    spectrum,
)
from gnlstab.scan import evolution_block, verify_hypotheses
from gnlstab.spectral import (
    COSINE,
    FULL,
    SINE,
    ParityBasis,
    RealField,
    build_grid,
    hill_matrix,
    sector_coupling,
)
from gnlstab.waves import ProblemParams, constant_wave, solve_wave, wave_at_resolution

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# constant-state analytics


def test_constant_L1_spectrum(const_wave):
    basis = ParityBasis(FULL, const_wave.phi.grid)
    summary = spectrum(build_hill(const_wave, "L1", basis))
    expected = oracles.constant_hill_eigenvalues("L1", 2.0, 1.0, TWO_PI, 16)
    assert np.max(np.abs(summary.eigenvalues[:16] - expected)) <= 1e-10
    assert summary.n_negative == 3
    assert summary.kernel_dimension == 0


def test_constant_L2_spectrum(const_wave):
    basis = ParityBasis(FULL, const_wave.phi.grid)
    summary = spectrum(build_hill(const_wave, "L2", basis))
    expected = oracles.constant_hill_eigenvalues("L2", 2.0, 1.0, TWO_PI, 16)
    assert np.max(np.abs(summary.eigenvalues[:16] - expected)) <= 1e-10
    assert summary.n_negative == 0
    assert summary.kernel_dimension == 1


def test_parity_blocks_partition_full_spectrum(even_wave):
    # cosine and sine sectors together reproduce the eigenvalues of the whole
    # full-basis matrix, solved by scipy since spectrum() splits it itself
    for which in ("L1", "L2"):
        full = scipy.linalg.eigvalsh(
            build_hill(even_wave, which, ParityBasis(FULL, even_wave.phi.grid)).entries
        )
        cos = spectrum(
            build_hill(even_wave, which, ParityBasis(COSINE, even_wave.phi.grid))
        ).eigenvalues
        sin = spectrum(
            build_hill(even_wave, which, ParityBasis(SINE, even_wave.phi.grid))
        ).eigenvalues
        merged = np.sort(np.concatenate([cos, sin]))
        assert merged.size == full.size
        assert np.max(np.abs(merged - full)) <= 1e-10 * (1.0 + np.max(np.abs(full)))


# ---------------------------------------------------------------------------
# assembly and validation


def test_block_layouts(even_wave):
    basis = ParityBasis(FULL, even_wave.phi.grid)
    l1 = build_hill(even_wave, "L1", basis).entries
    l2 = build_hill(even_wave, "L2", basis).entries
    d = basis.dimension

    lcal = build_block(even_wave, "Lcal").entries
    assert np.array_equal(lcal[:d, :d], l1)
    assert np.array_equal(lcal[d:, d:], l2)
    assert not lcal[:d, d:].any()

    kappa = 0.7
    s = build_block(even_wave, "S_kappa", kappa=kappa).entries
    assert np.allclose(s[:d, :d], l2 + kappa**2 * np.eye(d), rtol=0, atol=0)
    assert np.allclose(s[d:, d:], l1 + kappa**2 * np.eye(d), rtol=0, atol=0)


_SECTOR_KINDS = {"even": COSINE, "odd": SINE, "full": FULL}


def _relative_gap(entries, reference):
    return float(np.max(np.abs(entries - reference)) / np.max(np.abs(reference)))


def reference_pair(wave, kind):
    grid, params = wave.phi.grid, wave.params
    return oracles.hill_pair_reference(
        kind, grid.length, grid.size, params.alpha, params.omega, wave.phi.values
    )


@pytest.mark.parametrize("size", [32, 256])
def test_assembly_matches_column_reference(even_wave, odd_wave, size):
    kappa = 0.7
    for wave in (wave_at_resolution(even_wave, size), wave_at_resolution(odd_wave, size)):
        for sector, kind in _SECTOR_KINDS.items():
            ref_l1, ref_l2 = reference_pair(wave, kind)
            basis = ParityBasis(kind, wave.phi.grid)
            assert _relative_gap(build_hill(wave, "L1", basis).entries, ref_l1) <= 1e-13
            assert _relative_gap(build_hill(wave, "L2", basis).entries, ref_l2) <= 1e-13
            lcal = build_block(wave, "Lcal", sector=sector).entries
            assert _relative_gap(lcal, scipy.linalg.block_diag(ref_l1, ref_l2)) <= 1e-13
            shift = kappa**2 * np.eye(basis.dimension)
            s_kappa = build_block(wave, "S_kappa", kappa, sector=sector).entries
            ref_s = scipy.linalg.block_diag(ref_l2 + shift, ref_l1 + shift)
            assert _relative_gap(s_kappa, ref_s) <= 1e-13


def test_build_hill_rejects_unknown_operator(even_wave):
    basis = ParityBasis(FULL, even_wave.phi.grid)
    with pytest.raises(ParameterError, match="'L1' or 'L2'"):
        build_hill(even_wave, "L3", basis)


def test_build_hill_rejects_grid_mismatch(even_wave):
    other = ParityBasis(FULL, build_grid(TWO_PI, 64))
    with pytest.raises(ParameterError, match="different grids"):
        build_hill(even_wave, "L1", other)


def test_build_block_parameter_errors(even_wave):
    with pytest.raises(ParameterError):
        build_block(even_wave, "Lcal", kappa=0.3)
    with pytest.raises(ParameterError):
        build_block(even_wave, "S_kappa", kappa=-1.0)
    with pytest.raises(ParameterError):
        build_block(even_wave, "M_kappa")
    with pytest.raises(ParameterError):
        build_block(even_wave, "S_kappa", kappa=1.0, sector="diagonal")


def test_operator_matrix_requires_symmetry(even_wave):
    basis = ParityBasis(COSINE, even_wave.phi.grid)
    bad = np.zeros((basis.dimension, basis.dimension))
    bad[0, 1] = 1.0
    with pytest.raises(ParameterError, match="not symmetric"):
        OperatorMatrix(basis=basis, entries=bad, label="L1", wave_id="junk")


def test_spectrum_rejects_bad_tolerance(const_wave):
    op = build_hill(const_wave, "L2", ParityBasis(FULL, const_wave.phi.grid))
    with pytest.raises(ParameterError):
        spectrum(op, zero_tolerance=0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_hypotheses_reject_a_bad_zero_tolerance(even_wave, tol):
    # the hypotheses gate the tolerance as the spectra and propositions do
    for check in (check_propositions, verify_hypotheses):
        with pytest.raises(ParameterError, match="zero tolerance must be positive"):
            check(even_wave, zero_tolerance=tol)


def test_eigenfunction_export(even_wave):
    # L2 phi = 0 with phi > 0, so the lowest L2 eigenfunction on the cosine
    # sector is the wave itself up to normalization
    op = build_hill(even_wave, "L2", ParityBasis(COSINE, even_wave.phi.grid))
    summary = spectrum(op, n_eigenfunctions=2)
    assert len(summary.lowest_eigenfunctions) == 2
    ground = summary.lowest_eigenfunctions[0].values
    phi = even_wave.phi.values
    ground = ground / np.linalg.norm(ground)
    phi = phi / np.linalg.norm(phi)
    err = min(np.max(np.abs(ground - phi)), np.max(np.abs(ground + phi)))
    assert err <= 1e-6


def test_eigenfunction_export_on_the_full_basis(even_wave):
    # the sector eigenvectors are lifted to full-basis coefficients: the
    # lowest L2 eigenfunction is still the wave, and every exported pair is
    # an eigenpair of the whole matrix
    op = build_hill(even_wave, "L2", ParityBasis(FULL, even_wave.phi.grid))
    summary = spectrum(op, n_eigenfunctions=3)
    ground = summary.lowest_eigenfunctions[0].values
    phi = even_wave.phi.values
    ground, phi = ground / np.linalg.norm(ground), phi / np.linalg.norm(phi)
    assert min(np.max(np.abs(ground - phi)), np.max(np.abs(ground + phi))) <= 1e-6
    scale = np.max(np.abs(op.entries))
    for value, field in zip(summary.eigenvalues, summary.lowest_eigenfunctions):
        coeffs = op.basis.analyze(field.values)
        assert np.linalg.norm(op.entries @ coeffs - value * coeffs) <= 1e-12 * scale


@pytest.mark.parametrize("size", [128, 512])
def test_cosine_sine_coupling_sits_far_below_the_floor(even_wave, odd_wave, const_wave, size):
    # the even potential leaves only rounding in the cosine-sine block, at
    # least 1e4 below the floor d * eps * max|entries| at which the split
    # raises (the odd wave's L1 at N=128 is the closest: 3.2e-15, 3.6e4 below)
    for wave in (even_wave, odd_wave, const_wave):
        wave = wave_at_resolution(wave, size)
        basis = ParityBasis(FULL, wave.phi.grid)
        nc = ParityBasis(COSINE, wave.phi.grid).dimension
        for which in ("L1", "L2"):
            entries = build_hill(wave, which, basis).entries
            floor = size * np.finfo(float).eps * np.max(np.abs(entries))
            assert np.max(np.abs(entries[nc:, :nc])) <= 1e-4 * floor


@pytest.mark.parametrize("size", [16, 128, 1024])
def test_the_store_assembles_the_full_matrix_blocks_bit_for_bit(even_wave, odd_wave, size):
    # the full-space store assembles each sector block on its own basis: bit
    # for bit the diagonal block of the full-basis matrix, whose coupling
    # block sector_coupling measures exactly without building it
    nc = size // 2 + 1
    for wave in (wave_at_resolution(even_wave, size), wave_at_resolution(odd_wave, size)):
        ops = hill_operators(wave, "full")
        full = ParityBasis(FULL, wave.phi.grid)
        for which, (cosine, sine) in (("L1", (b.l1 for b in ops.blocks)),
                                      ("L2", (b.l2 for b in ops.blocks))):
            entries = build_hill(wave, which, full).entries
            assert np.array_equal(cosine, entries[:nc, :nc])
            assert np.array_equal(sine, entries[nc:, nc:])
            coupling = sector_coupling(wave.phi.grid, hill._potential(wave, which))
            assert coupling == np.max(np.abs(entries[nc:, :nc]))
        # the full matrices, assembled on request, are the full-basis assembly
        lcal = build_block(ops, "Lcal").entries
        for rows, which in ((slice(0, size), "L1"), (slice(size, 2 * size), "L2")):
            assert np.array_equal(lcal[rows, rows], build_hill(wave, which, full).entries)
    # a potential without parity: the coupling is its odd part, exactly
    grid = build_grid(TWO_PI, size)
    x = grid.nodes
    q = 1.0 + 0.3 * np.sin(x) + 0.2 * np.cos(2.0 * x) + 0.1 * np.sin(3.0 * x + 0.4)
    entries = hill_matrix(ParityBasis(FULL, grid), 1.0, q)
    assert sector_coupling(grid, q) == np.max(np.abs(entries[nc:, :nc])) > 0.01


def test_a_parity_free_profile_is_split_by_its_potential(even_wave):
    # the coupling gate decides for a profile of parity 'none', not its parity
    grid = even_wave.phi.grid
    free = dataclasses.replace(even_wave, phi=RealField(grid, even_wave.phi.values, "none"))
    for a, b in zip(hill_operators(free, "full").blocks, hill_operators(even_wave).blocks):
        assert np.array_equal(a.l1, b.l1) and np.array_equal(a.l2, b.l2)
    # a shifted profile's potential is not even: the store raises what the
    # split of the full-basis L1 raises, the same coupling and floor
    shifted = dataclasses.replace(free, phi=RealField(grid, np.roll(free.phi.values, 3), "none"))
    with pytest.raises(NumericalConsistencyError, match="coupling .* rounding floor") as store:
        hill_operators(shifted, "full")
    with pytest.raises(NumericalConsistencyError) as matrix:
        spectrum(build_hill(shifted, "L1", ParityBasis(FULL, grid)))
    assert str(store.value) == str(matrix.value)
    # a sector basis still needs a parity
    with pytest.raises(BasisError):
        hill_operators(free, "even")


def test_eigenfunction_export_rejects_out_of_range_counts():
    wave = constant_wave(2.0, 1.0, TWO_PI, 20)
    op = build_hill(wave, "L2", ParityBasis(SINE, wave.phi.grid))
    assert op.dimension == 9
    assert len(spectrum(op, n_eigenfunctions=9).lowest_eigenfunctions) == 9
    for count in (10, -1):
        with pytest.raises(ParameterError, match="n_eigenfunctions"):
            spectrum(op, n_eigenfunctions=count)


def test_eigenfunction_export_rejects_blocks(even_wave):
    op = build_block(even_wave, "Lcal")
    with pytest.raises(ParameterError, match="single-component"):
        spectrum(op, n_eigenfunctions=1)


# ---------------------------------------------------------------------------
# block spectra, one diagonal block at a time


def dense_summary(op: OperatorMatrix):
    """Counts of the dense eigh of a composed matrix, by the same counting rule."""
    return _summarize(op.label, op.wave_id, scipy.linalg.eigh(op.entries, eigvals_only=True), None)


@pytest.mark.parametrize("size", [128, 256])
def test_block_spectra_match_dense_solve(even_wave, odd_wave, size):
    for wave in (wave_at_resolution(even_wave, size), wave_at_resolution(odd_wave, size)):
        for sector in ("full", "odd"):
            for kind in ("Lcal", "S_kappa"):
                op = build_block(wave, kind, sector=sector)
                dense, blocks = dense_summary(op), spectrum(op)
                scale = np.max(np.abs(op.entries))
                assert np.max(np.abs(blocks.eigenvalues - dense.eigenvalues)) <= 1e-13 * scale
                assert blocks.n_negative == dense.n_negative
                assert blocks.kernel_dimension == dense.kernel_dimension
                assert blocks.ambiguous == dense.ambiguous

            s0 = build_block(wave, "S_kappa", sector=sector)
            dense_eigs = dense_summary(s0).eigenvalues
            report = verify_hypotheses(wave, sector=sector)
            h0, h4 = report.h0, report.h4
            assert h0["max_asymmetry"] == float(np.max(np.abs(s0.entries - s0.entries.T)))
            assert h4["n_negative"] == int(np.sum(dense_eigs < -h4["zero_tolerance"]))
            assert abs(h4["lowest"] - dense_eigs[0]) <= 1e-13 * np.max(np.abs(s0.entries))

        checks = {c.name: c for c in check_propositions(wave).checks}
        if wave.params.parity == "even":
            full = build_block(wave, "Lcal", sector="full")
            lcal = dense_summary(full)
            assert checks["n(Lcal)"].actual == str(lcal.n_negative)
            assert checks["z(Lcal)"].actual == str(lcal.kernel_dimension)
            # the propositions merge the cosine and sine spectra into Lcal's
            gap = lcal.eigenvalues[1] - lcal.eigenvalues[0]
            margin = checks["negative eigenvalue simple"].margin
            assert abs(margin - gap) <= 1e-13 * np.max(np.abs(full.entries))
        else:
            lcal = dense_summary(build_block(wave, "Lcal", sector="odd"))
            assert checks["z(Lcal,odd)"].actual == str(lcal.kernel_dimension)


def test_h0_gates_an_asymmetric_store(even_wave):
    # the store keeps L1 and L2 as assembled, unchecked: H0 is their one
    # symmetry gate, measured where the hypotheses report it
    ops = hill_operators(even_wave)
    cos, sine = ops.blocks
    skewed_l1 = cos.l1.copy()
    skewed_l1[0, 1] += 1e-9 * np.max(np.abs(skewed_l1))
    skewed_l1.setflags(write=False)
    skewed = HillOperators(ops.wave, ops.sector, (SectorBlock(cos.basis, skewed_l1, cos.l2), sine))
    assert verify_hypotheses(ops).h0["passed"] is True
    h0 = verify_hypotheses(skewed).h0
    assert h0["passed"] is False
    assert h0["max_asymmetry"] == float(np.max(np.abs(skewed_l1 - skewed_l1.T)))


@pytest.mark.parametrize("size", [16, 128])
def test_whole_basis_operators_are_assembled_from_the_wave(even_wave, odd_wave, size):
    # build_block and evolution_block assemble L1 and L2 on the whole basis
    # from the store's wave: the same bits from a full store, a sector store
    # and each view of a full store as from the wave, and the store's sector
    # blocks on the diagonal
    kappa = 0.7
    for wave in (wave_at_resolution(even_wave, size), wave_at_resolution(odd_wave, size)):
        full = hill_operators(wave, "full")
        for sector in ("full", "odd", "even"):
            lcal = build_block(wave, "Lcal", sector=sector)
            s_kappa = build_block(wave, "S_kappa", kappa, sector=sector)
            growth, basis = evolution_block(wave, kappa, sector)
            for ops in (hill_operators(wave, sector), full.restrict(sector)):
                assert np.array_equal(build_block(ops, "Lcal", sector=sector).entries, lcal.entries)
                assert np.array_equal(
                    build_block(ops, "S_kappa", kappa, sector=sector).entries, s_kappa.entries
                )
                block, block_basis = evolution_block(ops, kappa, sector)
                assert np.array_equal(block, growth) and block_basis == basis == ops.basis
                d = ops.basis.dimension
                for rows, sector_block in ops.sectors():
                    shifted = slice(d + rows.start, d + rows.stop)
                    assert np.array_equal(lcal.entries[rows, rows], sector_block.l1)
                    assert np.array_equal(lcal.entries[shifted, shifted], sector_block.l2)


def test_spectrum_rejects_coupled_block_operators(even_wave):
    op = build_block(even_wave, "Lcal", sector="odd")
    d = op.basis.dimension
    coupled = op.entries.copy()
    coupled[0, d] = coupled[d, 0] = 1.0
    with pytest.raises(ParameterError, match="couples"):
        spectrum(OperatorMatrix(op.basis, coupled, label="Lcal", wave_id=op.wave_id))


# ---------------------------------------------------------------------------
# the exact kappa^2 shift


def test_shift_family_matches_matrix_identity(even_wave):
    kappas = [0.0, 0.5, 1.0, 1.3]
    family = shifted_block_spectra(even_wave, kappas)
    # the same LAPACK driver as the library: 1e-12 against ||S(0)|| ~ 4e3 is
    # below the rounding gap of two different drivers, so it tests the shift,
    # not the driver (the direct-solve cross-check below uses scipy)
    base = np.linalg.eigvalsh(build_block(even_wave, "S_kappa", kappa=0.0).entries)
    for kappa in kappas:
        assert np.max(np.abs(family[kappa] - (base + kappa**2))) <= 1e-12


def test_shift_holds_at_matrix_level(even_wave):
    base = build_block(even_wave, "S_kappa", kappa=0.0).entries
    for kappa in (0.5, 1.0, 1.3):
        shifted = build_block(even_wave, "S_kappa", kappa=kappa).entries
        d = base.shape[0]
        assert np.array_equal(shifted, base + kappa**2 * np.eye(d))


def test_shift_family_crosschecks_direct_solves(even_wave):
    kappas = [0.5, 1.3]
    family = shifted_block_spectra(even_wave, kappas)
    for kappa in kappas:
        direct = scipy.linalg.eigh(
            build_block(even_wave, "S_kappa", kappa=kappa).entries, eigvals_only=True
        )
        scale = 1.0 + np.max(np.abs(direct))
        assert np.max(np.abs(family[kappa] - direct)) <= 1e-10 * scale


def test_shift_family_rejects_negative_kappa(even_wave):
    with pytest.raises(ParameterError):
        shifted_block_spectra(even_wave, [0.5, -0.1])


def test_shift_family_checks_every_kappa_before_solving(even_wave, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("S(0) assembled before every kappa was checked")

    monkeypatch.setattr(hill, "build_block", never)
    with pytest.raises(ParameterError, match="kappa must be nonnegative, got -0.1"):
        shifted_block_spectra(even_wave, [0.5, -0.1])


# ---------------------------------------------------------------------------
# resolution robustness


def test_grid_doubling_stabilizes_lcal_spectrum(even_wave):
    fine = wave_at_resolution(even_wave, 2 * even_wave.phi.grid.size)
    coarse_eigs = spectrum(build_block(even_wave, "Lcal")).eigenvalues[:10]
    fine_eigs = spectrum(build_block(fine, "Lcal")).eigenvalues[:10]
    assert np.max(np.abs(coarse_eigs - fine_eigs)) <= 1e-9


# ---------------------------------------------------------------------------
# proposition checks


def test_even_wave_propositions(even_wave):
    report = check_propositions(even_wave)
    assert report.passed
    assert report.parity == "even"
    by_name = {c.name: c for c in report.checks}
    assert by_name["n(L1,even)"].actual == "1"
    assert by_name["n(L2,even)"].actual == "0"
    assert by_name["n(Lcal)"].actual == "1"
    assert by_name["z(Lcal)"].actual == "2"
    assert by_name["kernel residual (phi',0)"].margin <= 1e-7
    assert by_name["kernel residual (0,phi)"].margin <= 1e-7
    # simplicity gap clears the tolerance with a factor-10 margin
    lcal = spectrum(build_block(even_wave, "Lcal"))
    assert by_name["negative eigenvalue simple"].margin >= 10.0 * lcal.zero_tolerance


def test_odd_wave_propositions(odd_wave):
    report = check_propositions(odd_wave)
    assert report.passed
    assert report.parity == "odd"
    by_name = {c.name: c for c in report.checks}
    assert by_name["n(L1) full space"].actual == "2"
    assert by_name["n(L1,odd)"].actual == "1"
    assert by_name["n(L2,odd)"].actual == "0"
    assert by_name["z(Lcal,odd)"].actual == "1"
    assert by_name["kernel residual (0,phi)"].margin <= 1e-7
    lcal = spectrum(build_block(odd_wave, "Lcal", sector="odd"))
    assert by_name["lambda0(L1,odd) < lambda0(L2,odd)"].margin >= 10.0 * lcal.zero_tolerance
    assert by_name["lambda1(L1,odd) < lambda1(L2,odd)"].margin >= 10.0 * lcal.zero_tolerance


def test_constant_minimizers_flagged_outside_regime():
    # for alpha <= 1 at omega=1, L=2*pi the even minimizer is the constant;
    # the non-constant count template must be reported as failing, with a note
    for alpha in (0.5, 1.0):
        wave = solve_wave(
            ProblemParams(alpha=alpha, omega=1.0, period=TWO_PI, tau=5.0, parity="even")
        )
        assert np.ptp(wave.phi.values) == 0.0
        report = check_propositions(wave)
        assert not report.passed
        assert any("constant" in note for note in report.notes)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["profile non-constant"].passed


def test_ambiguous_counts_flagged_not_fatal(const_wave):
    # L2 on the constant has eigenvalues {0, 1, 1, 4, ...}; tolerance 0.7
    # gives kernel 1, but doubling it sweeps the pair at 1 into the kernel
    op = build_hill(const_wave, "L2", ParityBasis(FULL, const_wave.phi.grid))
    summary = spectrum(op, zero_tolerance=0.7)
    assert summary.kernel_dimension == 1
    assert summary.ambiguous


def test_default_zero_tolerance_scales():
    eigs = np.array([-2.0, 0.0, 4.0e3])
    assert default_zero_tolerance(eigs) == pytest.approx(1e-6 * 4001.0)
